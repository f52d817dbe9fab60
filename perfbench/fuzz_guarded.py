"""fuzz_guarded: schedule fuzzing over every guarded scenario.

The only workload with the happens-before checker and the fuzz hooks
on, so it is the only one that measures ``hb``; it is also the
wall-bound loop exhaustive schedule search depends on.  Each pass runs
``fuzz.engine.fuzz`` for :data:`ITERATIONS` tapes per ``GUARDED``
scenario.  Every verdict must be ``clean``.  Deploy latencies are read
from each iteration's own telemetry once its scenario ends.
"""

from __future__ import annotations

import dataclasses

from repro.fuzz.engine import fuzz
from repro.fuzz.scenarios import GUARDED, get
from repro.obs import telemetry_of

from perfbench.workload import PassResult

#: Tapes per scenario per pass: 13 rounds of the five guarded
#: scenarios land just over 1,000 deploys, enough for a p99.
ITERATIONS = 13
VERDICTS = ("clean", "finding", "invariant", "inconclusive")


class State:
    def __init__(self, seed: int):
        self.seed = seed
        self.iterations: list = []
        self.scenarios = [self._observed(get(name)) for name in GUARDED]
        # Warm-up: one tape per scenario from a seed the pass never
        # uses, so lazy imports and first-call costs land in set-up.
        for scenario in self.scenarios:
            fuzz(scenario, 1, seed=~seed, workload_seed=seed)
        self.iterations.clear()

    def _observed(self, scenario):
        """``scenario`` with its deploy latencies captured per tape."""
        drive = scenario.drive

        def observed_drive(sim, workload_seed, plan):
            try:
                drive(sim, workload_seed, plan)
            finally:
                registry = telemetry_of(sim).registry
                latencies = [
                    value
                    for series in registry.series("rdx.deploy.install_visible_us")
                    for value in series.samples()
                ]
                self.iterations.append((latencies, sim.processed_events))

        return dataclasses.replace(scenario, drive=observed_drive)


def setup(seed: int) -> State:
    return State(seed)


def run(state: State) -> None:
    state.reports = []
    state.results = []
    for scenario in state.scenarios:
        state.reports.append(
            fuzz(
                scenario, ITERATIONS, seed=state.seed, workload_seed=state.seed,
                progress=lambda i, res: state.results.append(res),
            )
        )


def finish(state: State) -> PassResult:
    result = PassResult()
    verdicts = dict.fromkeys(VERDICTS, 0)
    events, findings = [], 0
    for i, (run_result, (latencies, sim_events)) in enumerate(
        zip(state.results, state.iterations)
    ):
        result.sim_events += sim_events
        result.attempted += 1
        verdicts[run_result.verdict] = verdicts.get(run_result.verdict, 0) + 1
        if run_result.verdict != "clean":
            result.failures.append(
                f"{run_result.scenario}#{i}: verdict {run_result.verdict} "
                f"{run_result.kinds} {run_result.failures}"
            )
        events.append(run_result.events)
        findings += len(run_result.findings)
        result.deploy_us.extend(latencies)
        result.fingerprint.add(
            run_result.scenario, i, run_result.verdict, run_result.digest,
            run_result.events, latencies,
        )
    if len(state.results) != ITERATIONS * len(state.scenarios):
        result.failures.append("fuzz iterations missing")
    layers = {
        "fuzz.iterations": float(len(state.results)),
        "hb.events_per_iteration": sum(events) / len(events) if events else 0.0,
        "hb.findings": float(findings),
    }
    for verdict, count in verdicts.items():
        layers[f"fuzz.verdict.{verdict}"] = float(count)
    result.layers = layers
    return result

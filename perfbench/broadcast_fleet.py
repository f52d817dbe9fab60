"""broadcast_fleet: Big Bubble Update rounds across 64 targets.

``rdx_broadcast`` at its defaults (flat fan-out, CRC verify on) sends
one fresh program per round to all 64 targets.  Each of the sizes
{200, 400, 800, 1600} insns is used in the same number of rounds, in a
seeded order and jittered by up to 12.5%, so seeds differ in their
latencies but not in how much work a pass holds.  The fan-out, bubble and RDMA-batch layers
do the work; every round compiles once and every link misses, the
opposite cache use to ``redeploy_warm``, and no round is
delta-eligible.  Programs are generated during set-up; compiling them
is part of each broadcast.
"""

from __future__ import annotations

import random

from repro.core.api import rdx_broadcast
from repro.ebpf.stress import make_stress_program
from repro.exp.harness import make_testbed

from perfbench.checks import check_audits, check_hooks
from perfbench.layers import fingerprint_report, system_layers
from perfbench.stats import percentile, tail
from perfbench.workload import PassResult

N_TARGETS = 64
ROUNDS = 20
SIZES = (200, 400, 800, 1600)
HOOK = "ingress"


class State:
    def __init__(self, seed: int):
        self.bed = make_testbed(n_hosts=N_TARGETS, seed=seed, with_agents=False)
        rng = random.Random(seed)
        sizes = [SIZES[r % len(SIZES)] for r in range(ROUNDS)]
        rng.shuffle(sizes)
        self.programs = [
            make_stress_program(
                rng.randint(round(size * 0.875), round(size * 1.125)),
                seed=seed * 1_009 + r, name=f"round{r}",
            )
            for r, size in enumerate(sizes)
        ]
        self.rounds: list = []
        self.busy_before: list = []
        self.window_us = 0.0


def setup(seed: int) -> State:
    return State(seed)


def _rounds(state: State):
    sim = state.bed.sim
    flows = state.bed.codeflows
    begin = sim.now
    for program in state.programs:
        start = sim.now
        outcome = yield from rdx_broadcast(flows, [program] * len(flows), HOOK)
        state.rounds.append((sim.now - start, outcome))
    state.window_us = sim.now - begin


def run(state: State) -> None:
    state.busy_before = [state.bed.control.host.cpu.busy_us]
    state.bed.sim.run_process(_rounds(state))


def finish(state: State) -> PassResult:
    result = PassResult()
    reports, windows, calls = [], [], []
    for r, (latency, outcome) in enumerate(state.rounds):
        result.attempted += 1
        if outcome.aborted or outcome.degraded or outcome.failed_targets:
            result.failures.append(
                f"round{r}: aborted={outcome.aborted} degraded={outcome.degraded} "
                f"failed={[t.target for t in outcome.failed_targets]}"
            )
        windows.append(outcome.bubble_window_us)
        calls.append(latency)
        result.fingerprint.add(r, latency, outcome.bubble_window_us)
        for leg in outcome.outcomes:
            if leg.report is not None:
                result.deploy_us.append(leg.report.total_us)
                fingerprint_report(result.fingerprint, r, leg.target, report=leg.report)
                reports.append(leg.report)
    if len(state.rounds) != ROUNDS:
        result.failures.append(f"{ROUNDS - len(state.rounds)} rounds missing")
    last = state.programs[-1]
    result.failures.extend(
        check_hooks(
            ((flow, HOOK, last) for flow in state.bed.codeflows),
            result.fingerprint,
        )
    )
    result.failures.extend(check_audits(state.bed.sim, state.bed.codeflows))
    result.sim_events = state.bed.sim.processed_events
    window_tail = tail(windows)
    result.named = {
        "bubble_window_p50_us": percentile(windows, 50),
        "bubble_window_tail_us": window_tail[0] if window_tail else None,
        "bubble_window_tail_pct": window_tail[1] if window_tail else None,
        "broadcast_p50_us": percentile(calls, 50),
    }
    layers = system_layers([state.bed], reports, state.busy_before, [state.window_us])
    legs = [r.total_us for r in reports]
    layers["broadcast.leg_us.p50"] = percentile(legs, 50) or 0.0
    layers["broadcast.leg_us.max"] = max(legs, default=0.0)
    for key in ("bubble_window_p50_us", "bubble_window_tail_us",
                "broadcast_p50_us"):
        layers[f"broadcast.{key}"] = result.named[key] or 0.0
    result.layers = layers
    return result

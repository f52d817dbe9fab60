"""redeploy_warm: closed-loop hot-patching with every cache warm.

Eight closed-loop clients, one per target, each flip their target's
hook between a program of about 1,302 insns and its one-insn
``make_stress_variant`` hotpatch.  The size is drawn from the seed
(1,270 to 1,334 insns): the warm path has no contention, so without it
every seed would give the same simulated latency.  Both are validated, compiled and
linked on every target during set-up, so every timed deploy hits the
compile registry and the link cache and the verifier does nothing;
wall time goes to re-encoding the program behind ``tag()``.  The pair
differs in one instruction, so the input is delta-eligible.  A
deploy's latency runs from the closed-loop call to its return.
"""

from __future__ import annotations

import random

from repro.core.api import rdx_deploy_prog
from repro.ebpf.stress import make_stress_program, make_stress_variant
from repro.errors import ReproError
from repro.exp.harness import make_testbed

from perfbench.checks import check_audits, check_hooks
from perfbench.layers import fingerprint_report, system_layers
from perfbench.workload import PassResult

N_TARGETS = 8
INSNS = 1_302
INSNS_SPREAD = 32
DEPLOYS_PER_CLIENT = 200
HOOK = "ingress"


class State:
    def __init__(self, seed: int):
        self.bed = make_testbed(n_hosts=N_TARGETS, seed=seed, with_agents=False)
        self.programs = _program_pair(seed)
        sim = self.bed.sim
        # Warm-up: compile both, then land each once on every target so
        # the timed loop starts with warm registry and link cache.
        for program in self.programs:
            for flow in self.bed.codeflows:
                sim.run_process(rdx_deploy_prog(flow, program, HOOK))
        self.results: list = [[] for _ in self.bed.codeflows]
        self.busy_before: list = []
        self.window_us = 0.0


def _program_pair(seed: int) -> tuple:
    """A program and its hotpatch; sizes whose generator blocks leave no
    padding to edit are skipped upward."""
    size = INSNS + random.Random(seed).randint(-INSNS_SPREAD, INSNS_SPREAD)
    while True:
        base = make_stress_program(size, seed=seed, name="warm")
        try:
            return base, make_stress_variant(base, imm=1 + seed % 997)
        except ReproError:
            size += 1


def setup(seed: int) -> State:
    return State(seed)


def _client(state: State, index: int):
    sim = state.bed.sim
    flow = state.bed.codeflows[index]
    out = state.results[index]
    for i in range(DEPLOYS_PER_CLIENT):
        start = sim.now
        report = yield from rdx_deploy_prog(flow, state.programs[i % 2], HOOK)
        out.append((sim.now - start, report))


def _all_clients(state: State):
    sim = state.bed.sim
    start = sim.now
    clients = [
        sim.spawn(_client(state, i), name=f"client{i}")
        for i in range(len(state.bed.codeflows))
    ]
    yield sim.all_of(clients)
    state.window_us = sim.now - start


def run(state: State) -> None:
    state.busy_before = [state.bed.control.host.cpu.busy_us]
    state.bed.sim.run_process(_all_clients(state))


def finish(state: State) -> PassResult:
    result = PassResult()
    reports = []
    for index, calls in enumerate(state.results):
        result.attempted += DEPLOYS_PER_CLIENT
        if len(calls) != DEPLOYS_PER_CLIENT:
            result.failures.append(f"client{index}: deploys missing")
        for i, (latency, report) in enumerate(calls):
            result.deploy_us.append(latency)
            result.fingerprint.add(index, i, latency)
            fingerprint_report(result.fingerprint, index, i, report=report)
            reports.append(report)
    last = state.programs[(DEPLOYS_PER_CLIENT - 1) % 2]
    result.failures.extend(
        check_hooks(
            ((flow, HOOK, last) for flow in state.bed.codeflows),
            result.fingerprint,
        )
    )
    result.failures.extend(check_audits(state.bed.sim, state.bed.codeflows))
    result.sim_events = state.bed.sim.processed_events
    result.layers = system_layers(
        [state.bed], reports, state.busy_before, [state.window_us]
    )
    return result

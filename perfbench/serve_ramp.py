"""serve_ramp: the open-loop multi-tenant mix at five fixed load steps.

The only workload with queueing, admission, shedding and warm-pool
misses and evictions; its wall time is mostly the verifier, because
every cold arrival is a never-seen program.

The tenant mix and base rates are ``ServeWorkloadSpec``'s defaults
(hot-patch, bulk and cold tenants over 8 targets).  Program sizes are
drawn from the seed within :data:`SIZE_SPREAD` of the spec's sizes:
with fixed sizes every uncontended deploy costs the same, and the 1x
step would report the same latency for every seed.  Unlike
``run_serve_workload``, every program is generated during set-up, so
the timed phase never pays for the input generator.  Each step runs on
a fresh testbed and ``DeployService`` with exactly
:data:`ARRIVALS_PER_STEP` arrivals, enough for a p99 with ten samples
beyond it.  An arrival is submitted at the simulated instant it is
due, so latency is timed from its due time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.ebpf.stress import make_stress_program
from repro.exp.harness import make_testbed
from repro.exp.serve_workload import ServeWorkloadSpec
from repro.serve import SHED_REASONS, DeployService, default_classes

from perfbench.checks import check_audits, check_hooks
from perfbench.layers import fingerprint_report, system_layers
from perfbench.stats import (
    StepOutcome,
    max_rate_at_slo,
    p99,
    percentile,
    step_passes,
    tail,
)
from perfbench.workload import PassResult

STEPS = (1, 4, 8, 12, 16)
ARRIVALS_PER_STEP = 1_000
MIX = ServeWorkloadSpec()
#: Relative spread of program sizes around the spec's hot/bulk/cold sizes.
SIZE_SPREAD = 0.125
CLASS_OF_KIND = {"hot": "hotpatch", "bulk": "bulk", "cold": "standard"}
HOOK_OF_KIND = {"hot": "ingress", "bulk": "egress", "cold": "ingress"}


@dataclass
class Arrival:
    due_us: float
    kind: str
    tenant: str
    target: int
    program: object


@dataclass
class Step:
    multiplier: int
    arrivals: list
    bed: object = None
    service: object = None
    tickets: list = field(default_factory=list)
    start_us: float = 0.0
    busy_before: float = 0.0


def _size(rng: random.Random, insns: int) -> int:
    low, high = insns * (1 - SIZE_SPREAD), insns * (1 + SIZE_SPREAD)
    return rng.randint(round(low), round(high))


def _arrivals(seed: int, multiplier: int, tenants: dict, hot_pool, bulk_progs):
    """Poisson arrivals at ``multiplier``x the summed base rates of the
    three classes.  Each class gets its exact share of the step's
    arrivals, in a seeded order, so seeds differ in timing and programs
    but not in how much cold work a step holds."""
    rng = random.Random(seed * 1_000 + multiplier)
    rates = {
        "hot": multiplier / MIX.hot_period_us,
        "bulk": multiplier / MIX.bulk_period_us,
        "cold": multiplier / MIX.cold_period_us,
    }
    total = sum(rates.values())
    kinds = [
        kind
        for kind, rate in rates.items()
        for _ in range(round(ARRIVALS_PER_STEP * rate / total))
    ][:ARRIVALS_PER_STEP]
    kinds += ["hot"] * (ARRIVALS_PER_STEP - len(kinds))
    rng.shuffle(kinds)
    due = 0.0
    out = []
    for serial, kind in enumerate(kinds):
        due += rng.expovariate(total)
        tenant = rng.choice(tenants[kind])
        if kind == "hot":
            program = rng.choice(hot_pool)
        elif kind == "bulk":
            program = bulk_progs[tenant]
        else:
            program = make_stress_program(
                _size(rng, MIX.cold_insns),
                seed=(seed * 100_003 + multiplier * 10_007 + serial) & 0x7FFFFFFF,
                name=f"cold{multiplier}x{serial}",
            )
        out.append(
            Arrival(due, kind, tenant, rng.randrange(MIX.n_targets), program)
        )
    return out


def setup(seed: int) -> list:
    n_hot = int(MIX.n_tenants * MIX.hot_fraction)
    n_bulk = int(MIX.n_tenants * MIX.bulk_fraction)
    tenants = {
        "hot": [f"hot{i}" for i in range(n_hot)],
        "bulk": [f"bulk{i}" for i in range(n_bulk)],
        "cold": [f"cold{i}" for i in range(MIX.n_tenants - n_hot - n_bulk)],
    }
    rng = random.Random(seed)
    hot_pool = [
        make_stress_program(
            _size(rng, MIX.hot_insns), seed=seed + i, name=f"hotprog{i}"
        )
        for i in range(MIX.n_hot_programs)
    ]
    bulk_progs = {
        tenant: make_stress_program(
            _size(rng, MIX.bulk_insns), seed=seed + 1_000 + i, name=f"bulkprog{i}"
        )
        for i, tenant in enumerate(tenants["bulk"])
    }
    steps = []
    for multiplier in STEPS:
        step = Step(
            multiplier, _arrivals(seed, multiplier, tenants, hot_pool, bulk_progs)
        )
        step.bed = make_testbed(
            n_hosts=MIX.n_targets, cores_per_host=8, seed=seed + multiplier
        )
        step.service = DeployService(step.bed.control, classes=default_classes())
        for kind, names in tenants.items():
            for tenant in names:
                step.service.register(tenant, CLASS_OF_KIND[kind])
        # Cache warm-up: pre-link the popular pool for every target.
        for flow in step.bed.codeflows:
            for program in hot_pool:
                step.bed.sim.run_process(
                    step.service.warm_pool.prewarm(flow, program)
                )
        steps.append(step)
    return steps


def _open_loop(step: Step):
    sim = step.bed.sim
    service = step.service
    flows = step.bed.codeflows
    service.start()
    step.start_us = sim.now
    for arrival in step.arrivals:
        delay = step.start_us + arrival.due_us - sim.now
        if delay > 0:
            yield sim.timeout(delay)
        step.tickets.append(
            service.submit(
                arrival.tenant, flows[arrival.target], arrival.program,
                HOOK_OF_KIND[arrival.kind], kind=arrival.kind,
            )
        )
    for ticket in step.tickets:
        if ticket.accepted:
            yield ticket.done


def run(steps: list) -> None:
    for step in steps:
        step.busy_before = step.bed.control.host.cpu.busy_us
        step.bed.sim.run_process(_open_loop(step))


def finish(steps: list) -> PassResult:
    result = PassResult()
    outcomes = []
    reports = []
    windows = []
    queue_waits = {}
    warm_service, cold_service = [], []
    by_class = {c.name: [] for c in default_classes()}
    shed_by_reason = {reason: 0 for reason in SHED_REASONS}
    lateness = 0.0
    hits = lookups = evictions = 0
    for step in steps:
        service, tickets = step.service, step.tickets
        fp_key = f"x{step.multiplier}"
        accounting = service.accounting()
        shed = sum(accounting["shed"].values())
        result.attempted += accounting["offered"]
        if accounting["offered"] != (
            accounting["completed"] + accounting["failed"] + shed
        ) or accounting["unaccounted"]:
            result.failures.append(f"{fp_key}: ledger does not balance {accounting}")
        result.failures.extend(
            f"{fp_key}: {t.tenant} failed: {t.error}" for t in tickets if t.error
        )
        for reason, count in accounting["shed"].items():
            shed_by_reason[reason] = shed_by_reason.get(reason, 0) + count
        done = [t for t in tickets if t.completed]
        for arrival, ticket in zip(step.arrivals, tickets):
            lateness = max(
                lateness, ticket.submitted_us - (step.start_us + arrival.due_us)
            )
            result.fingerprint.add(
                fp_key, ticket.kind, ticket.shed_reason, ticket.submitted_us,
                ticket.started_us, ticket.finished_us,
            )
            if ticket.report is not None:
                fingerprint_report(result.fingerprint, fp_key, report=ticket.report)
        last_due = step.start_us + step.arrivals[-1].due_us
        finish_us = max((t.finished_us for t in done), default=last_due)
        outcome = StepOutcome(
            multiplier=step.multiplier,
            offered=accounting["offered"],
            completed=accounting["completed"],
            failed=accounting["failed"],
            shed=shed,
            latencies_us=[t.latency_us for t in done],
            window_us=last_due - step.start_us,
            drain_us=max(0.0, finish_us - last_due),
        )
        outcomes.append(outcome)
        windows.append(finish_us - step.start_us)
        reports.extend(t.report for t in done)
        waits = [t.queue_wait_us for t in done]
        queue_waits[step.multiplier] = waits
        warm_service += [t.service_us for t in done if t.report.warm]
        cold_service += [t.service_us for t in done if t.kind == "cold"]
        for ticket in done:
            by_class[ticket.class_name].append(ticket.latency_us)
        pool = service.warm_pool
        hits += pool.hits
        lookups += pool.hits + pool.misses
        evictions += pool.evictions
        # Untimed output checks: the last deploy to land on each target
        # hook must be the one executing there.
        live = {}
        for ticket in sorted(done, key=lambda t: t.finished_us):
            live[(ticket.codeflow.sandbox.name, ticket.hook_name)] = ticket
        result.failures.extend(
            f"{fp_key}: {msg}"
            for msg in check_hooks(
                ((t.codeflow, t.hook_name, t.program) for t in live.values()),
                result.fingerprint,
            )
        )
        result.failures.extend(
            f"{fp_key}: {msg}"
            for msg in check_audits(step.bed.sim, step.bed.codeflows)
        )
        result.sim_events += step.bed.sim.processed_events

    base = outcomes[0]
    result.deploy_us = list(base.latencies_us)
    offered = sum(o.offered for o in outcomes)
    named = {
        "deploy_p99_us.x4": p99(outcomes[1].latencies_us),
        "deploy_p99_us.x8": p99(outcomes[2].latencies_us),
        "max_deploys_per_s_at_slo": max_rate_at_slo(outcomes),
        "shed_ratio": sum(o.shed for o in outcomes) / offered,
        "generator_lateness_us": lateness,
    }
    for o in outcomes:
        named[f"step.x{o.multiplier}.p99_us"] = o.p99_us
        named[f"step.x{o.multiplier}.pass"] = float(step_passes(o))
        named[f"step.x{o.multiplier}.drain_share"] = (
            o.drain_us / o.window_us if o.window_us else 0.0
        )
    result.named = named
    layers = system_layers(
        [s.bed for s in steps], reports, [s.busy_before for s in steps], windows
    )
    for multiplier, waits in queue_waits.items():
        layers[f"serve.queue_wait_us.p50.x{multiplier}"] = percentile(waits, 50) or 0.0
        layers[f"serve.queue_wait_us.p99.x{multiplier}"] = p99(waits) or 0.0
    layers["serve.service_us.warm_p50"] = percentile(warm_service, 50) or 0.0
    layers["serve.service_us.cold_p50"] = percentile(cold_service, 50) or 0.0
    layers["serve.warm_pool.hit_ratio"] = hits / lookups if lookups else 0.0
    layers["serve.warm_pool.evictions"] = float(evictions)
    for reason, count in shed_by_reason.items():
        layers[f"serve.shed.{reason}"] = float(count)
    for name, latencies in by_class.items():
        found = tail(latencies)
        layers[f"serve.{name}.tail_us"] = found[0] if found else 0.0
    for key in ("deploy_p99_us.x4", "deploy_p99_us.x8",
                "max_deploys_per_s_at_slo", "shed_ratio"):
        layers[f"serve.{key}"] = named[key] or 0.0
    result.layers = layers
    return result

"""Open-loop multi-tenant serving workload (the §7 service at scale).

A population of ~1000 tenants in three priority classes drives a
:class:`~repro.serve.DeployService` open-loop (arrivals don't wait for
completions -- overload shows up as counted shedding, not as a
slowed-down generator):

* **hot-patch** tenants re-deploy small variants of a shared pool of
  popular programs -- the warm path's bread and butter;
* **bulk** tenants roll large programs, each tenant reusing its own;
* **cold** tenants deploy never-seen-before programs every time, so
  each one pays the full validate+JIT+link pipeline.

The result separates *service* latency (dequeue to install-visible) by
warm/cold so the warm path's skip-the-pipeline win is measurable
independently of queueing, alongside sustained deploys/sec, exact p50/
p95/p99 end-to-end latency per class, and the full shed ledger.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.ebpf.stress import make_stress_program, make_stress_variant
from repro.exp.harness import Testbed, make_testbed
from repro.serve import DeployService, DeployTicket, default_classes


@dataclass
class ServeWorkloadSpec:
    """Knobs for one open-loop serving run."""

    n_tenants: int = 1000
    n_targets: int = 8
    duration_us: float = 2_000_000.0
    #: Tenant-population mix (fractions of ``n_tenants``).
    hot_fraction: float = 0.5
    bulk_fraction: float = 0.2
    # The remainder is the cold fraction.
    #: Mean inter-arrival per *tenant class aggregate*, us.
    hot_period_us: float = 400.0
    bulk_period_us: float = 4_000.0
    cold_period_us: float = 1_500.0
    #: Shared popular programs the hot-patch tenants draw from.
    n_hot_programs: int = 12
    hot_insns: int = 64
    bulk_insns: int = 512
    cold_insns: int = 300
    seed: int = 7
    #: Pre-link the hot program pool before opening the doors.
    prewarm: bool = True


def percentile(values: list, q: float) -> float:
    """Exact (nearest-rank, interpolated) percentile of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class ServeWorkloadResult:
    """What one run measured."""

    duration_us: float = 0.0
    offered: int = 0
    completed: int = 0
    failed: int = 0
    shed: dict = field(default_factory=dict)
    unaccounted: int = 0
    deploys_per_sec: float = 0.0
    #: End-to-end (submit -> install-visible) latency percentiles, us.
    latency_p50_us: float = 0.0
    latency_p95_us: float = 0.0
    latency_p99_us: float = 0.0
    per_class_p99_us: dict = field(default_factory=dict)
    #: Service latency (dequeue -> install-visible), split by path.
    warm_service_p50_us: float = 0.0
    cold_service_p50_us: float = 0.0
    warm_hits: int = 0
    warm_misses: int = 0
    warm_evictions: int = 0


def run_serve_workload(
    spec: Optional[ServeWorkloadSpec] = None,
    testbed: Optional[Testbed] = None,
) -> tuple[ServeWorkloadResult, DeployService]:
    """Drive one open-loop serving run; returns (result, service)."""
    spec = spec or ServeWorkloadSpec()
    bed = testbed or make_testbed(
        n_hosts=spec.n_targets, cores_per_host=8, seed=spec.seed
    )
    sim = bed.sim
    rng = random.Random(spec.seed)
    service = DeployService(bed.control, classes=default_classes())

    # -- tenant population ---------------------------------------------------
    n_hot = int(spec.n_tenants * spec.hot_fraction)
    n_bulk = int(spec.n_tenants * spec.bulk_fraction)
    n_cold = spec.n_tenants - n_hot - n_bulk
    hot_tenants = [f"hot{i}" for i in range(n_hot)]
    bulk_tenants = [f"bulk{i}" for i in range(n_bulk)]
    cold_tenants = [f"cold{i}" for i in range(n_cold)]
    for tenant in hot_tenants:
        service.register(tenant, "hotpatch")
    for tenant in bulk_tenants:
        service.register(tenant, "bulk")
    for tenant in cold_tenants:
        service.register(tenant, "standard")

    # -- program pools -------------------------------------------------------
    hot_pool = [
        make_stress_program(
            spec.hot_insns, seed=spec.seed + i, name=f"hotprog{i}"
        )
        for i in range(spec.n_hot_programs)
    ]
    bulk_progs = {
        tenant: make_stress_program(
            spec.bulk_insns, seed=spec.seed + 1000 + i, name=f"bulkprog{i}"
        )
        for i, tenant in enumerate(bulk_tenants)
    }
    cold_serial = [0]  # unique-program counter for the cold stream

    tickets: list[DeployTicket] = []

    def pick_flow():
        return bed.codeflows[rng.randrange(len(bed.codeflows))]

    # -- arrival processes (open loop: fire and record) -----------------------
    def hot_arrivals() -> Generator:
        while sim.now < spec.duration_us:
            yield sim.timeout(rng.expovariate(1.0 / spec.hot_period_us))
            tenant = rng.choice(hot_tenants)
            program = rng.choice(hot_pool)
            tickets.append(
                service.submit(
                    tenant, pick_flow(), program, "ingress", kind="hot"
                )
            )

    def bulk_arrivals() -> Generator:
        while sim.now < spec.duration_us:
            yield sim.timeout(rng.expovariate(1.0 / spec.bulk_period_us))
            tenant = rng.choice(bulk_tenants)
            tickets.append(
                service.submit(
                    tenant, pick_flow(), bulk_progs[tenant], "egress",
                    kind="bulk",
                )
            )

    def cold_arrivals() -> Generator:
        while sim.now < spec.duration_us:
            yield sim.timeout(rng.expovariate(1.0 / spec.cold_period_us))
            tenant = rng.choice(cold_tenants)
            cold_serial[0] += 1
            program = make_stress_program(
                spec.cold_insns,
                seed=spec.seed + 10_000 + cold_serial[0],
                name=f"coldprog{cold_serial[0]}",
            )
            tickets.append(
                service.submit(
                    tenant, pick_flow(), program, "ingress", kind="cold"
                )
            )

    def body() -> Generator:
        if spec.prewarm:
            # Off-critical-path admission: pre-link the popular pool
            # for every target layout before opening the doors.
            for flow in bed.codeflows:
                for program in hot_pool:
                    yield from service.warm_pool.prewarm(flow, program)
        service.start()
        procs = [
            sim.spawn(hot_arrivals(), name="arrivals.hot"),
            sim.spawn(bulk_arrivals(), name="arrivals.bulk"),
            sim.spawn(cold_arrivals(), name="arrivals.cold"),
        ]
        start = sim.now
        for proc in procs:
            yield proc
        # Arrivals stopped; let accepted work drain fully.
        yield from service.drain()
        pending = [t.done for t in tickets if t.accepted]
        for done in pending:
            yield done
        return sim.now - start

    elapsed = sim.run_process(body())

    # -- measurements ----------------------------------------------------------
    done = [t for t in tickets if t.completed]
    latencies = [t.latency_us for t in done]
    per_class: dict[str, list] = {}
    for ticket in done:
        per_class.setdefault(ticket.class_name, []).append(ticket.latency_us)
    # Warm/cold split on *service* latency: the hot pool rides the
    # linked stage (report.warm), the cold stream pays validate+JIT+link.
    warm_service = [
        t.service_us for t in done if t.report is not None and t.report.warm
    ]
    cold_service = [t.service_us for t in done if t.kind == "cold"]

    accounting = service.accounting()
    result = ServeWorkloadResult(
        duration_us=elapsed,
        offered=accounting["offered"],
        completed=accounting["completed"],
        failed=accounting["failed"],
        shed=accounting["shed"],
        unaccounted=accounting["unaccounted"],
        deploys_per_sec=(
            accounting["completed"] / (elapsed / 1e6) if elapsed else 0.0
        ),
        latency_p50_us=percentile(latencies, 0.50),
        latency_p95_us=percentile(latencies, 0.95),
        latency_p99_us=percentile(latencies, 0.99),
        per_class_p99_us={
            name: percentile(vals, 0.99) for name, vals in per_class.items()
        },
        warm_service_p50_us=percentile(warm_service, 0.50),
        cold_service_p50_us=percentile(cold_service, 0.50),
        warm_hits=service.warm_pool.hits,
        warm_misses=service.warm_pool.misses,
        warm_evictions=service.warm_pool.evictions,
    )
    return result, service

"""Span self time, parent chains across interleaved simulated
processes, and patch restoration."""

from repro.core.codeflow import CodeFlow
from repro.core.control_plane import RdxControlPlane
from repro.ebpf import program
from repro.ebpf.stress import make_stress_program
from repro.exp.harness import make_testbed

from perfbench.tracing import SIM, WALL, Tracer


def _span(tracer, name, clock, start, end, parent):
    span = tracer._open(name, clock, start, parent)
    span.end = end
    return span


def test_self_time_subtracts_same_clock_child_coverage():
    tracer = Tracer()
    root = _span(tracer, "root", WALL, 0.0, 10.0, None)
    # Children cover [1, 3] and [6, 7]; a grandchild inside [1, 3] only
    # counts against its own parent.  A simulated span in between does
    # not hide its wall child from ``root``.
    a = _span(tracer, "a", WALL, 1.0, 3.0, root)
    _span(tracer, "b", WALL, 2.0, 2.5, a)
    mid = _span(tracer, "mid", SIM, 100.0, 300.0, root)
    _span(tracer, "c", WALL, 6.0, 7.0, mid)
    # Two concurrent simulated children overlap on [160, 180].
    _span(tracer, "d", SIM, 150.0, 180.0, mid)
    _span(tracer, "d", SIM, 160.0, 200.0, mid)
    own = tracer.self_times()
    assert own["root"] == (1, 10.0 - 2.0 - 1.0)
    assert own["a"] == (1, 1.5)
    assert own["mid"] == (1, 200.0 - 50.0)
    assert own["d"] == (2, 70.0)


def test_traced_deploys_nest_and_patches_restore():
    originals = (
        RdxControlPlane.inject, CodeFlow.deploy_prog, program.encode_program,
    )
    bed = make_testbed(n_hosts=2, with_agents=False)
    progs = [make_stress_program(64, seed=s) for s in (1, 2)]
    tracer = Tracer()
    tracer.install()
    try:
        procs = [
            bed.sim.spawn(bed.control.inject(flow, prog, "ingress"))
            for flow, prog in zip(bed.codeflows, progs)
        ]
        bed.sim.run()
    finally:
        tracer.uninstall()
    assert all(p.ok for p in procs)
    assert originals == (
        RdxControlPlane.inject, CodeFlow.deploy_prog, program.encode_program,
    )
    injects = [s for s in tracer.spans if s.name == "control.inject"]
    deploys = [s for s in tracer.spans if s.name == "codeflow.deploy"]
    verifies = [s for s in tracer.spans if s.name == "ebpf.verify"]
    assert len(injects) == len(deploys) == len(verifies) == 2
    # Each deploy and verify belongs to its own inject, though the two
    # injects ran interleaved in simulated time.
    assert {tracer.root_of(s).sid for s in deploys} == {s.sid for s in injects}
    assert {tracer.root_of(s).sid for s in verifies} == {s.sid for s in injects}
    assert all(s.end >= s.start for s in tracer.spans)

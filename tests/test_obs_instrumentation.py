"""End-to-end checks that the RDX pipeline feeds the telemetry hub.

Each test drives real operations through a testbed and asserts on the
metrics/spans they should leave behind -- this is what keeps the
instrumentation honest as the pipeline evolves.
"""

import pytest

from repro import params
from repro.core.broadcast import CodeFlowGroup
from repro.core.introspect import RemoteIntrospector
from repro.ebpf.stress import make_stress_program
from repro.exp.harness import make_testbed
from repro.obs import telemetry_of


@pytest.fixture
def bed():
    return make_testbed(n_hosts=3, cores_per_host=8)


def _counter_value(registry, name, **labels):
    metric = registry.counter(name, **labels)
    return metric.value


class TestDeployInstrumentation:
    def test_cold_then_warm_deploy_moves_cache_counters(self, bed, monkeypatch):
        monkeypatch.setattr(params, "RDX_PIPELINED_DEPLOY", True)
        program = make_stress_program(1_300, seed=3)
        bed.sim.run_process(bed.control.inject(bed.codeflow, program, "ingress"))
        registry = bed.obs.registry
        assert registry.counter("rdx.cache.miss").value == 1
        assert registry.counter("rdx.cache.hit").value == 0
        assert registry.counter("rdx.link.cache_miss", reason="absent").value == 1
        assert registry.counter("rdx.link.cache_hit").value == 0
        bed.sim.run_process(bed.control.inject(bed.codeflow, program, "ingress"))
        # The warm redeploy is a linked-stage hit: the compiled stage
        # is never consulted.
        assert registry.counter("rdx.cache.miss").value == 1
        assert registry.counter("rdx.cache.hit").value == 0
        assert registry.counter("rdx.link.cache_hit").value == 1

    def test_deploy_feeds_latency_histogram(self, bed):
        program = make_stress_program(1_300, seed=3)
        bed.sim.run_process(bed.control.inject(bed.codeflow, program, "ingress"))
        hist = bed.obs.registry.get("rdx.deploy.latency_us")
        assert hist is not None
        assert hist.count == 1
        assert hist.min > 0
        summary = hist.summary()
        assert 0 < summary["p50"] <= summary["p99"]

    def test_deploy_counts_bytes_written(self, bed):
        program = make_stress_program(1_300, seed=3)
        bed.sim.run_process(bed.control.inject(bed.codeflow, program, "ingress"))
        registry = bed.obs.registry
        assert registry.counter("rdx.deploy.count").value == 1
        record = bed.codeflow.deployed[program.name]
        assert registry.counter("rdx.deploy.bytes_written").value >= record.code_len

    def test_span_tree_mirrors_pipeline(self, bed):
        program = make_stress_program(1_300, seed=3)
        bed.sim.run_process(bed.control.inject(bed.codeflow, program, "ingress"))
        tracer = bed.obs.tracer
        (inject,) = tracer.by_name("rdx.inject")
        child_names = {s.name for s in tracer.children_of(inject)}
        # Cold path: validate + jit + link + deploy all under the inject.
        assert {"rdx.validate", "rdx.jit", "rdx.link", "rdx.deploy"} <= child_names

    def test_validate_and_jit_cpu_histograms(self, bed):
        program = make_stress_program(1_300, seed=3)
        bed.sim.run_process(bed.control.inject(bed.codeflow, program, "ingress"))
        registry = bed.obs.registry
        assert registry.get("rdx.validate.cpu_us").count == 1
        assert registry.get("rdx.jit.cpu_us").count == 1


class TestBroadcastInstrumentation:
    def test_fanout_produces_per_target_child_spans(self, bed):
        group = CodeFlowGroup(bed.codeflows)
        programs = [
            make_stress_program(900, seed=11, name="rollout")
            for _ in bed.codeflows
        ]
        bed.sim.run_process(group.broadcast(programs, "egress"))
        tracer = bed.obs.tracer
        (parent,) = tracer.by_name("rdx.broadcast")
        children = [
            s for s in tracer.children_of(parent)
            if s.name == "rdx.broadcast.target"
        ]
        assert len(children) == len(bed.codeflows)
        targets = {c.attrs["target"] for c in children}
        assert targets == {cf.sandbox.name for cf in bed.codeflows}

    def test_fanout_metrics(self, bed):
        group = CodeFlowGroup(bed.codeflows)
        programs = [
            make_stress_program(900, seed=11, name="rollout")
            for _ in bed.codeflows
        ]
        bed.sim.run_process(group.broadcast(programs, "egress"))
        registry = bed.obs.registry
        assert registry.counter("rdx.broadcast.count").value == 1
        assert registry.counter("rdx.broadcast.targets").value == len(bed.codeflows)
        assert registry.get("rdx.broadcast.fanout").max == len(bed.codeflows)
        assert registry.get("rdx.broadcast.bubble_window_us").count == 1


class TestAuditInstrumentation:
    def test_findings_counted_by_severity_and_plane(self, bed):
        program = make_stress_program(1_300, seed=3)
        bed.sim.run_process(bed.control.inject(bed.codeflow, program, "ingress"))
        introspector = RemoteIntrospector(bed.codeflow)
        introspector.snapshot_deployed()
        bed.sim.run_process(introspector.audit())
        registry = bed.obs.registry
        assert registry.counter("rdx.audit.runs").value == 1
        clean_findings = sum(m.value for m in registry.series("rdx.audit.findings"))

        # Tamper with the deployed image: the next audit must flag it.
        record = bed.codeflow.deployed[program.name]
        raw = bed.host.memory.read(record.code_addr + 16, 1)
        bed.host.memory.write(record.code_addr + 16, bytes([raw[0] ^ 0xFF]))
        bed.sim.run_process(introspector.audit())
        assert registry.counter(
            "rdx.audit.findings", severity="critical", plane="code"
        ).value >= clean_findings + 1
        assert registry.counter("rdx.audit.bytes_read").value > 0
        assert registry.get("rdx.audit.duration_us").count == 2

    def test_audit_span_recorded(self, bed):
        program = make_stress_program(1_300, seed=3)
        bed.sim.run_process(bed.control.inject(bed.codeflow, program, "ingress"))
        introspector = RemoteIntrospector(bed.codeflow)
        introspector.snapshot_deployed()
        bed.sim.run_process(introspector.audit())
        (span,) = bed.obs.tracer.by_name("rdx.audit")
        assert span.duration_us > 0


class TestRdmaInstrumentation:
    def test_verb_counters_and_dma_bytes(self, bed):
        program = make_stress_program(1_300, seed=3)
        bed.sim.run_process(bed.control.inject(bed.codeflow, program, "ingress"))
        registry = bed.obs.registry
        verbs = registry.series("rdma.verbs")
        assert verbs, "deploy must issue RDMA verbs"
        assert sum(m.value for m in verbs) > 0
        dma = registry.series("rdma.bytes_dma")
        assert sum(m.value for m in dma) > 0
        assert registry.get("rdma.cq.depth").count > 0


class TestIsolation:
    def test_two_testbeds_do_not_share_metrics(self):
        bed_a = make_testbed(n_hosts=1, cores_per_host=8)
        bed_b = make_testbed(n_hosts=1, cores_per_host=8)
        program = make_stress_program(1_300, seed=3)
        bed_a.sim.run_process(
            bed_a.control.inject(bed_a.codeflow, program, "ingress")
        )
        assert bed_a.obs.registry.counter("rdx.cache.miss").value == 1
        assert bed_b.obs.registry.counter("rdx.cache.miss").value == 0

    def test_telemetry_of_is_cached_per_sim(self, bed):
        assert telemetry_of(bed.sim) is telemetry_of(bed.sim)
        assert bed.obs is telemetry_of(bed.sim)

"""The control plane's artifact store (repro.core.artifacts).

What may be reused, and where: a compiled artifact only where its
verification holds (same map names, same map geometry), a linked one
only from a validated compile and only on the layout it was linked
for.  None of these tests needs a serve tier.
"""

import pytest

from repro import params
from repro.core.api import rdx_link_code
from repro.core.xstate import XStateSpec
from repro.ebpf import opcodes as op
from repro.ebpf.asm import Asm
from repro.ebpf.jit import jit_compile
from repro.ebpf.maps import MapType
from repro.ebpf.program import BpfProgram
from repro.ebpf.stress import make_stress_program
from repro.errors import VerifierError


def _inject(bed, codeflow, program, hook="ingress"):
    return bed.sim.run_process(bed.control.inject(codeflow, program, hook))


def _deploy_map(bed, codeflow, name, value_size=8):
    spec = XStateSpec(name, MapType.ARRAY, 4, value_size, 4)
    bed.sim.run_process(codeflow.deploy_xstate(spec))


class TestCompiledKey:
    """Regressions: the compiled key once held only (tag, arch)."""

    def test_map_names_are_part_of_the_key(self, testbed):
        """Same instructions, different map: two compiles, own bytes.

        The tag hashes instructions only, so a (tag, arch) key handed
        the second program the first one's binary -- relocated against
        ``stress_map`` although it names ``other_map``.
        """
        bed = testbed
        codeflow = bed.codeflow
        _deploy_map(bed, codeflow, "stress_map")
        _deploy_map(bed, codeflow, "other_map")
        first = make_stress_program(200, seed=5, with_map=True, name="first")
        second = BpfProgram(
            insns=list(first.insns), name="second", map_names=("other_map",)
        )
        assert first.tag() == second.tag()
        _inject(bed, codeflow, first)
        _inject(bed, codeflow, second, hook="egress")
        assert bed.control.compiles_run == 2
        record = codeflow.deployed["second"]
        shipped = bed.host.memory.read(record.code_addr, record.code_len)
        own, _cost = codeflow.linker.link(jit_compile(second))
        assert shipped == own.code

    def test_map_geometry_is_part_of_the_key(self, testbed2):
        """A binary verified against an 8-byte map value must not be
        reused where the value is 2 bytes: that target re-verifies,
        and the verifier refuses the 4-byte load."""
        bed = testbed2
        wide, narrow = bed.codeflows
        _deploy_map(bed, wide, "stress_map", value_size=8)
        _deploy_map(bed, narrow, "stress_map", value_size=2)
        program = make_stress_program(200, seed=5, with_map=True)
        _inject(bed, wide, program)
        with pytest.raises(VerifierError, match="value_size=2"):
            _inject(bed, narrow, program)
        assert program.name not in narrow.deployed


class TestLinkedStage:
    def test_unvalidated_link_never_deploys(self, testbed):
        """``rdx_link_code`` may JIT without verifying, but that image
        must never reach ``inject``: the deploy still verifies."""
        bed = testbed
        bad = BpfProgram(
            Asm().mov_reg(op.R0, op.R5).exit_().build(), name="bad"
        )
        bed.sim.run_process(rdx_link_code(bed.codeflow, bad))
        with pytest.raises(VerifierError):
            _inject(bed, bed.codeflow, bad)

    def test_redeploy_is_a_linked_hit(self, testbed, monkeypatch):
        """A plain control plane: no serve tier, still the warm path."""
        monkeypatch.setattr(params, "RDX_PIPELINED_DEPLOY", True)
        bed = testbed
        plane = bed.control
        program = make_stress_program(300, seed=3)
        cold = _inject(bed, bed.codeflow, program)
        assert not cold.warm
        compile_lookups = (
            plane.cache_hits, plane.prepare_coalesced, plane.compiles_run
        )
        links = bed.codeflow.linker.links_done
        warm = _inject(bed, bed.codeflow, program)
        assert warm.warm
        assert warm.link_us == pytest.approx(params.RDX_LINK_CACHE_LOOKUP_US)
        assert (
            plane.cache_hits, plane.prepare_coalesced, plane.compiles_run
        ) == compile_lookups
        assert bed.codeflow.linker.links_done == links

    def test_serial_arm_never_touches_the_linked_stage(
        self, testbed, monkeypatch
    ):
        bed = testbed
        store = bed.control.artifacts

        def forbidden(*_args, **_kwargs):
            raise AssertionError("serial arm touched the linked stage")

        monkeypatch.setattr(params, "RDX_PIPELINED_DEPLOY", False)
        monkeypatch.setattr(store, "lookup", forbidden)
        monkeypatch.setattr(store, "insert", forbidden)
        program = make_stress_program(300, seed=3)
        _inject(bed, bed.codeflow, program)
        report = _inject(bed, bed.codeflow, program)
        assert not report.warm
        assert bed.control.cache_hits == 1  # the compiled stage served it
        assert len(store) == 0 and store.hits == store.misses == 0

    def test_linked_hit_survives_compiled_eviction(self, testbed, monkeypatch):
        bed = testbed
        store = bed.control.artifacts
        monkeypatch.setattr(params, "RDX_PIPELINED_DEPLOY", True)
        monkeypatch.setattr(params, "RDX_REGISTRY_CAP", 1)
        first = make_stress_program(200, seed=1, name="first")
        second = make_stress_program(200, seed=2, name="second")
        _inject(bed, bed.codeflow, first)
        _inject(bed, bed.codeflow, second, hook="egress")
        assert store.cache_evictions == 1
        assert store.key(first, bed.codeflow.manifest.arch) not in store.compiled
        validations = bed.control.validations_run
        report = _inject(bed, bed.codeflow, first)
        assert report.warm
        assert bed.control.validations_run == validations

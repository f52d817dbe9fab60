"""Delta-deploy ablation: dirty chunks vs a full-image deploy.

The production redeploy shape is a one-instruction edit to a live
extension.  The deploy planner (:meth:`repro.core.codeflow.CodeFlow.
_delta_plan`) diffs the newly linked image against the target's
resident baseline at MTU-chunk granularity and, when the diff is under
break-even, ships only the dirty spans plus the metadata descriptor,
committing with the same CAS as a full install.  The two arms deploy
the identical v3 hotpatch and differ only in whether a baseline is
resident, so they differ only in bytes moved and write-phase latency.

The scenario is the paper's hotpatch story: an ~8 KB program (818
10-byte JIT'd instructions plus header and CRC = exactly two MTU
chunks).  The delta arm deploys it three times -- v1 cold, v2 warm
(registers v1's extent as the baseline), v3 a one-instruction variant
-- and v3 diffs against the v1 baseline, where the edited instruction
and the image CRC share one dirty chunk, trimmed to a single cache
line.  The full arm deploys v1 then v3 on a fresh testbed: no
baseline is registered yet, so the planner falls back (reason
``no-baseline``) and v3 ships as a full image.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ebpf.stress import make_stress_program, make_stress_variant
from repro.exp.harness import make_testbed

#: 818 insns -> 8 + 818*10 + 4 = 8192 image bytes: exactly two MTU
#: chunks, the "8 KB program" of the acceptance criteria.
HOTPATCH_INSNS = 818


@dataclass
class ModeResult:
    """Measurements for one ablation arm."""

    delta: bool
    #: The measured v3 one-instruction hotpatch.
    hotpatch_us: float = 0.0
    hotpatch_bytes: int = 0
    hotpatch_chunks: int = 0
    mode_used: str = ""
    base_version: int = 0
    #: Cold v1 deploy, for context.
    deploy_cold_us: float = 0.0
    delta_deploys: int = 0
    delta_fallbacks: int = 0
    #: Fallbacks the planner counted for the measured hotpatch, by
    #: reason (empty when it shipped as a delta).
    hotpatch_fallbacks: dict[str, int] = field(default_factory=dict)
    exec_r0: int = 0
    sim_time_us: float = 0.0


@dataclass
class DeltaDeployResult:
    insn_size: int
    image_bytes: int = 0
    modes: dict[str, ModeResult] = field(default_factory=dict)

    @property
    def bytes_ratio(self) -> float:
        """Full-arm / delta-arm bytes moved."""
        full, delta = self.modes["full"], self.modes["delta"]
        return full.hotpatch_bytes / delta.hotpatch_bytes

    @property
    def latency_ratio(self) -> float:
        """Full-arm / delta-arm hotpatch latency."""
        full, delta = self.modes["full"], self.modes["delta"]
        return full.hotpatch_us / delta.hotpatch_us


def run_delta_deploy(insn_size: int = HOTPATCH_INSNS) -> DeltaDeployResult:
    """Run the hotpatch chain on both arms.

    Each arm gets a fresh testbed (clean caches, clean telemetry).
    """
    result = DeltaDeployResult(
        insn_size=insn_size, image_bytes=8 + insn_size * 10 + 4
    )
    for mode in ("delta", "full"):
        result.modes[mode] = _run_mode(mode == "delta", insn_size)
    return result


def _fallbacks(bed) -> dict[str, int]:
    """``rdx.delta.fallback`` counts so far, by reason."""
    return {
        dict(metric.labels)["reason"]: int(metric.value)
        for metric in bed.obs.registry.series("rdx.delta.fallback")
    }


def _run_mode(delta: bool, insn_size: int) -> ModeResult:
    mode = ModeResult(delta=delta)
    bed = make_testbed(n_hosts=1, with_agents=False)
    v1 = make_stress_program(insn_size, seed=7, name="hotpatch")
    v3 = make_stress_variant(v1, 2)

    def deploy(program):
        return bed.sim.run_process(
            bed.control.inject(
                bed.codeflow, program, "ingress", retain_history=False
            )
        )

    cold = deploy(v1)
    if delta:
        # Superseding v1 registers its extent as the baseline v3 is
        # diffed against; v3 differs from v1 by one instruction (plus
        # the trailing image CRC).
        deploy(make_stress_variant(v1, 1))
    before = _fallbacks(bed)
    patch = deploy(v3)
    after = _fallbacks(bed)
    mode.deploy_cold_us = cold.total_us
    mode.hotpatch_us = patch.total_us
    mode.hotpatch_bytes = patch.bytes_moved
    mode.hotpatch_chunks = patch.delta_chunks
    mode.mode_used = patch.mode
    mode.base_version = patch.delta_base_version
    mode.hotpatch_fallbacks = {
        reason: count - before.get(reason, 0)
        for reason, count in after.items()
        if count != before.get(reason, 0)
    }

    # The data path must decode v3 exactly -- a torn delta would
    # crash or return v2/v1 semantics here.
    result, _ = bed.sandbox.run_hook("ingress", bytes(range(256)))
    mode.exec_r0 = result.r0

    deltas = bed.obs.registry.get("rdx.deploy.delta")
    mode.delta_deploys = int(deltas.value) if deltas is not None else 0
    mode.delta_fallbacks = sum(after.values())
    mode.sim_time_us = bed.sim.now
    return mode

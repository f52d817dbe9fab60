"""Fig 4b -- injection-time breakdown at 1.3K instructions.

Paper claim: the agent's load time decomposes into verify, JIT
compile, and other overheads, with verify+JIT >= 90%; RDX's path
contains neither -- its time is dispatch + write + commit + coherence
(§2.2 Obs 1, §6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ebpf.stress import make_stress_program
from repro.exp.harness import Testbed, make_testbed

PAPER = {
    "size": 1_300,
    "claim": "agent time is dominated by verify + JIT; RDX has neither",
    "verify_jit_share_min": 0.90,
}


@dataclass
class Fig4bResult:
    insn_size: int
    agent_phases_us: dict[str, float] = field(default_factory=dict)
    rdx_phases_us: dict[str, float] = field(default_factory=dict)

    @property
    def agent_total_us(self) -> float:
        return sum(self.agent_phases_us.values())

    @property
    def rdx_total_us(self) -> float:
        return sum(self.rdx_phases_us.values())

    @property
    def agent_verify_jit_share(self) -> float:
        compile_us = self.agent_phases_us.get("verify", 0.0) + self.agent_phases_us.get(
            "jit", 0.0
        )
        total = self.agent_total_us
        return compile_us / total if total else 0.0


def run_fig4b(
    insn_size: int = 1_300, testbed: Testbed | None = None
) -> Fig4bResult:
    """Collect per-phase timings for both paths at one size."""
    bed = testbed or make_testbed()
    program = make_stress_program(insn_size, seed=5)

    agent_breakdown = bed.sim.run_process(bed.agent.inject(program, "ingress"))

    # Warm the artifact store, then measure the deploy path.
    bed.sim.run_process(
        bed.control.inject(bed.codeflow, program, "egress", retain_history=False)
    )
    report = bed.sim.run_process(
        bed.control.inject(bed.codeflow, program, "egress", retain_history=False)
    )

    return Fig4bResult(
        insn_size=insn_size,
        agent_phases_us=dict(agent_breakdown.phases()),
        rdx_phases_us=dict(report.phases()),
    )

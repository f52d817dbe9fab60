"""Output checks run after a workload's timed phase (never timed).

Each check returns a list of failure strings; an empty list passes.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.introspect import RemoteIntrospector
from repro.ebpf.interpreter import Interpreter

#: Fixed probe context: one packet-sized buffer every hook runs on.
PROBE_CTX = bytes((i * 37 + 11) & 0xFF for i in range(256))


def check_hooks(expected: Iterable[tuple], fingerprint) -> list[str]:
    """Run each target's hook on :data:`PROBE_CTX` through the sandbox
    and compare with the interpreter over the program that should be
    live there; every hook's result joins ``fingerprint``.

    ``expected`` holds ``(codeflow, hook_name, program)`` triples.
    """
    failures = []
    for codeflow, hook, program in expected:
        sandbox = codeflow.sandbox
        got, cost_us = sandbox.run_hook(hook, PROBE_CTX)
        fingerprint.add(
            sandbox.name, hook, None if got is None else got.r0, cost_us
        )
        want = Interpreter(maps=sandbox.maps).run(program.insns, PROBE_CTX)
        if got is None or got.r0 != want.r0:
            failures.append(
                f"{sandbox.name}/{hook}: hook returned "
                f"{None if got is None else got.r0}, "
                f"{program.name} computes {want.r0}"
            )
    return failures


def check_audits(sim, codeflows: Iterable) -> list[str]:
    """One remote integrity audit per target; every one must be clean."""
    failures = []
    for codeflow in codeflows:
        report = sim.run_process(RemoteIntrospector(codeflow).audit())
        for finding in report.findings:
            failures.append(
                f"{report.target}: audit {finding.severity} "
                f"{finding.plane}/{finding.subject}: {finding.detail}"
            )
    return failures

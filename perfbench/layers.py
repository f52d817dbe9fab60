"""Per-layer figures read from the system's own counters and reports.

These need no tracing: the control plane, CodeFlows and telemetry
registry already count them.  Each covers a whole pass, set-up
warm-up included.
"""

from __future__ import annotations

from typing import Sequence

from repro.obs import telemetry_of

from perfbench.stats import percentile

PHASES = ("dispatch", "link", "write", "commit", "cc")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _counter_total(registries, name: str) -> float:
    return sum(m.value for reg in registries for m in reg.series(name))


def _hist_samples(registries, name: str) -> list:
    return [v for reg in registries for m in reg.series(name) for v in m.samples()]


def _hist_sum(registries, name: str) -> float:
    return sum(m.sum for reg in registries for m in reg.series(name))


def system_layers(
    beds: Sequence, reports: Sequence, busy_before: Sequence[float],
    window_us: Sequence[float],
) -> dict:
    """control_plane, codeflow and rdma figures over ``beds``.

    ``busy_before`` is each control host's CPU busy time when the timed
    phase began and ``window_us`` the simulated length of that phase,
    so ``cpu_util`` covers the timed phase only.
    """
    planes = [bed.control for bed in beds]
    regs = [telemetry_of(bed.sim).registry for bed in beds]
    hits = sum(p.cache_hits for p in planes)
    coalesced = sum(p.prepare_coalesced for p in planes)
    compiles = sum(p.compiles_run for p in planes)
    lookups = hits + coalesced + compiles
    busy = sum(
        bed.control.host.cpu.busy_us - before
        for bed, before in zip(beds, busy_before)
    )
    capacity = sum(
        w * bed.control.host.cpu.cores for bed, w in zip(beds, window_us)
    )
    link_hits = sum(p.link_cache_hits for p in planes)
    link_total = link_hits + sum(p.link_cache_misses for p in planes)
    out = {
        "control_plane.prepare.calls": float(lookups),
        "control_plane.registry_hit_ratio": _ratio(hits, lookups),
        "control_plane.compiles": float(compiles),
        "control_plane.validate_sim_us": _hist_sum(regs, "rdx.validate.cpu_us"),
        "control_plane.jit_sim_us": _hist_sum(regs, "rdx.jit.cpu_us"),
        "control_plane.cpu_util": _ratio(busy, capacity),
        "codeflow.link_cache_hit_ratio": _ratio(link_hits, link_total),
        "codeflow.delta_share": _ratio(
            sum(1 for r in reports if r.mode == "delta"), len(reports)
        ),
        "broadcast.prepare_coalesced": float(coalesced),
        "rdma.bytes_per_deploy": _ratio(
            _counter_total(regs, "rdx.deploy.bytes_written"),
            _counter_total(regs, "rdx.deploy.count"),
        ),
        "rdma.wrs_per_doorbell.p50": percentile(
            _hist_samples(regs, "rdx.deploy.wrs_per_doorbell"), 50
        ) or 0.0,
        "rdma.retries": _counter_total(regs, "rdx.retry.attempts"),
        "broadcast.relay_fallbacks": _counter_total(
            regs, "rdx.broadcast.relay_fallback"
        ),
    }
    for phase in PHASES:
        out[f"codeflow.{phase}_us.p50"] = percentile(
            [r.phases()[phase] for r in reports], 50
        ) or 0.0
    return out


def fingerprint_report(fp, *key, report) -> None:
    """Add one DeployReport's latency and phase split to ``fp``."""
    fp.add(*key, report.total_us, *(report.phases()[p] for p in PHASES),
           report.mode, report.bytes_moved)

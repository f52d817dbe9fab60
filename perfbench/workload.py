"""What every workload hands back after one pass."""

from __future__ import annotations

from dataclasses import dataclass, field

from perfbench.stats import Fingerprint


@dataclass
class PassResult:
    """Simulated-time outputs and checks of one pass over one input set.

    ``deploy_us`` feeds ``deploy_p50_us``/``deploy_p99_us``; ``named``
    holds the workload's own simulated end-to-end figures (bubble
    window, capacity at SLO, ...); ``layers`` holds per-layer numbers
    read from the system's own counters and reports.
    """

    attempted: int = 0
    failures: list = field(default_factory=list)
    deploy_us: list = field(default_factory=list)
    named: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    #: Simulator events processed across every simulator of the pass.
    sim_events: int = 0
    #: Process peak RSS when the timed phase ended, before the checks.
    peak_rss_mib: float = 0.0
    fingerprint: Fingerprint = field(default_factory=Fingerprint)

"""The serve-plane telemetry segment: agentless serving counters.

The PR-6 telemetry plane made *sandboxes* scrapeable without agents:
a seqlock-bracketed segment in registered memory, read one-sided.
The deploy service gets the same treatment -- linked-stage hit/miss/
evict, admission accept, and every shed reason live in a fixed-layout
segment carved from the control host's DRAM, updated write-through by
the service's local stores and readable by an external monitor with
one-sided READs: **zero service-CPU events per scrape**, the same
bypass the sandbox segments get.

The wire format is :class:`repro.obs.segment.SegmentLayout` with
serve-specific slot tuples; the seqlock protocol, epoch word, and
torn-read rules are identical (and :func:`scrape_serve` mirrors
:class:`~repro.obs.scrape.TelemetryScraper`'s accept loop).
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro import params
from repro.errors import ReproError
from repro.net.topology import Host
from repro.obs.segment import (
    OFF_SEQ,
    SegmentLayout,
    SegmentSnapshot,
    TelemetrySegment,
    decode_segment,
)

#: Monotonic serving counters (u64 each).
SERVE_COUNTER_SLOTS = (
    "warm.hit",            # linked-stage lookups served pre-linked
    "warm.miss",           # linked-stage lookups that fell to the cold path
    "warm.evict",          # LRU evictions from the linked stage
    "admit.accept",        # requests admitted into a class queue
    "shed.queue_full",     # rejected: class queue at depth
    "shed.tenant_quota",   # rejected: per-tenant pending cap
    "shed.unknown_tenant",  # rejected: no registration
    "shed.rate_limited",   # rejected: bucket deficit over policy
    "shed.stopped",        # rejected: service shutting down
    "deploys.completed",   # deploys that reached install-visible
    "deploys.failed",      # deploys that raised (counted, not silent)
)

#: Point-in-time service gauges (f64).
SERVE_GAUGE_SLOTS = (
    "queued",              # tickets waiting across all class queues
    "inflight",            # deploys currently executing
)

#: Log-bucket latency histogram (submit -> install-visible, us).
SERVE_HIST_SLOTS = ("deploy_us",)

#: The serve-plane schema (distinct from the sandbox LAYOUT).
SERVE_LAYOUT = SegmentLayout(
    counters=SERVE_COUNTER_SLOTS,
    gauges=SERVE_GAUGE_SLOTS,
    hists=SERVE_HIST_SLOTS,
)


class ServeSegment(TelemetrySegment):
    """Single-writer serve segment resident on the control host.

    Allocates its span from the host's DRAM and writes through the
    host cache, so the DRAM bytes a remote READ observes are always
    current -- exactly the sandbox segment's contract.
    """

    def __init__(self, host: Host, layout: SegmentLayout = SERVE_LAYOUT):
        self.host = host
        base = host.allocator.alloc(layout.size_bytes, align=64)
        super().__init__(host.cache, base, layout=layout)


def scrape_serve(
    read: Callable[[int, int], Generator],
    base_addr: int,
    layout: SegmentLayout = SERVE_LAYOUT,
    max_retries: Optional[int] = None,
    sim=None,
) -> Generator:
    """Process body: one seqlock-consistent scrape of a serve segment.

    ``read(addr, size)`` is any one-sided read generator -- a
    :meth:`RemoteSync.read <repro.core.sync.RemoteSync.read>` bound to
    the control host's region, or a monitor-side RDMA shim.  The
    accept rule is the standard one: seq even before, payload, seq
    unchanged after; anything else is torn, retried, and **never
    returned**.  When ``sim`` is given, retries back off
    :data:`~repro.params.RDX_SCRAPE_RETRY_US` apiece (the
    :class:`~repro.obs.scrape.TelemetryScraper` discipline) so a
    scraper can ride out a slow writer bracket instead of burning the
    whole budget inside it.  Raises :class:`ReproError` when the
    retry budget runs out.
    """
    budget = (
        max_retries if max_retries is not None
        else params.RDX_SCRAPE_MAX_RETRIES
    )
    retries = 0
    for _attempt in range(budget + 1):
        word = yield from read(base_addr + OFF_SEQ, 8)
        seq_before = int.from_bytes(bytes(word), "little")
        if seq_before % 2 == 0:
            raw = bytes((yield from read(base_addr, layout.size_bytes)))
            word = yield from read(base_addr + OFF_SEQ, 8)
            seq_after = int.from_bytes(bytes(word), "little")
            if seq_after == seq_before:
                snapshot: SegmentSnapshot = decode_segment(raw, layout)
                if snapshot.valid:
                    return snapshot
        retries += 1
        if sim is not None:
            yield sim.timeout(params.RDX_SCRAPE_RETRY_US)
    raise ReproError(
        f"serve-segment scrape torn {retries}x; snapshot discarded"
    )

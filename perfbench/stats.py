"""Percentiles, the serve-ramp step judge, and the sim fingerprint.

Every helper here is pure: the workloads feed it simulated-time samples
and it decides nothing from wall time.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, its value is one unlucky sample.
MIN_BEYOND = 10

#: serve_ramp latency limit on a step's p99, in simulated us: about 5x
#: one cold validate+JIT+link (396 us).
SLO_P99_US = 2_000.0

#: A step whose backlog takes longer than this share of its arrival
#: window to drain after arrivals stop is not sustaining its rate.
MAX_DRAIN_SHARE = 0.10


def percentile(
    samples: Sequence[float], q: float, min_beyond: int = 0
) -> Optional[float]:
    """Nearest-rank ``q``-th percentile; None when there are no samples
    or fewer than ``min_beyond`` rank above it."""
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n == 0 or n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def p99(samples: Sequence[float]) -> Optional[float]:
    """The 99th percentile, only where :data:`MIN_BEYOND` samples lie
    beyond it (1,000 samples or more)."""
    return percentile(samples, 99.0, MIN_BEYOND)


#: Share of the samples, centred on the median, that :func:`central`
#: averages.
CENTRAL_WIDTH = 0.10


def central(samples: Sequence[float]) -> Optional[float]:
    """The median as the mean of the samples ranked within
    :data:`CENTRAL_WIDTH` around it (45th to 55th percentile).

    Simulated latencies often sit on a grid of a few exact values; the
    nearest-rank median then reads the same grid point for every seed
    and hides shifts in how many samples sit on either side of it.
    """
    n = len(samples)
    if n == 0:
        return None
    ordered = sorted(samples)
    lo = int(n * (0.5 - CENTRAL_WIDTH / 2))
    hi = max(lo + 1, math.ceil(n * (0.5 + CENTRAL_WIDTH / 2)))
    band = ordered[lo:hi]
    return sum(band) / len(band)


def tail(samples: Sequence[float]) -> Optional[tuple[float, float]]:
    """``(value, percentile)`` of the highest percentile that still has
    :data:`MIN_BEYOND` samples above it; None below ``MIN_BEYOND + 1``
    samples."""
    n = len(samples)
    if n <= MIN_BEYOND:
        return None
    kept = n - MIN_BEYOND
    return sorted(samples)[kept - 1], 100.0 * kept / n


@dataclass
class StepOutcome:
    """What one serve_ramp load step measured, in simulated time."""

    multiplier: int
    offered: int
    completed: int
    failed: int
    shed: int
    #: Submit-to-install-visible latency of every completed deploy.
    latencies_us: list
    #: First arrival to last arrival.
    window_us: float
    #: Last arrival to the last deploy finishing.
    drain_us: float

    @property
    def p99_us(self) -> Optional[float]:
        return p99(self.latencies_us)

    @property
    def rate_per_s(self) -> float:
        """Completed deploys per simulated second, drain included."""
        span = self.window_us + self.drain_us
        return self.completed / (span / 1e6) if span > 0 else 0.0


def step_passes(step: StepOutcome) -> bool:
    """A step meets the SLO: supported p99 within the limit, nothing
    shed or failed, and a drain short enough that no backlog grew."""
    p99 = step.p99_us
    return (
        p99 is not None
        and p99 <= SLO_P99_US
        and step.shed == 0
        and step.failed == 0
        and step.drain_us <= MAX_DRAIN_SHARE * step.window_us
    )


def max_rate_at_slo(steps: Sequence[StepOutcome]) -> float:
    """Completed rate of the highest-load step that passes; 0.0 when
    none does (no tested rate is sustainable)."""
    passing = [s for s in steps if step_passes(s)]
    if not passing:
        return 0.0
    return max(passing, key=lambda s: s.multiplier).rate_per_s


class Fingerprint:
    """sha256 over every simulated-time output, in the order produced.

    Floats are hashed by their shortest round-trip form, so two runs
    agree only when every simulated microsecond agrees bit for bit.
    """

    def __init__(self):
        self._hash = hashlib.sha256()
        self.records = 0

    def add(self, *fields) -> None:
        self._hash.update(
            json.dumps(fields, separators=(",", ":")).encode()
        )
        self._hash.update(b"\n")
        self.records += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

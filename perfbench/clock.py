"""Host time of a code region, rescaled to a reference host speed.

On a host whose cores are shared with other tenants, the speed of one
pure-Python loop varies by up to 1.7x between 5-second stretches
(measured on a 2-vCPU x86 cloud VM), so the raw wall time of one run
says more about the neighbours than about the simulator.  :class:`HostClock` measures a region's wall
time and, every :data:`INTERVAL_S` while it runs, times a fixed probe
loop from a timer signal.  The region's time is reported at the speed
where the probe takes :data:`REFERENCE_PROBE_S`: each stretch between
two samples is scaled by the median probe duration of the
:data:`WINDOW` samples around it, so a speed change half way through a
long region is corrected where it happens:

    scaled_s = sum(stretch_s * REFERENCE_PROBE_S / local median probe)

A slower simulator still reads slower, because the probe does not run
any repository code; a slower host reads the same.  The probe costs
about 1% of the region.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.005
#: Samples in the rolling median (about 0.1 s of region).
WINDOW = 21
#: Median probe duration on the reference host (a 2-vCPU x86 cloud VM
#: running CPython 3.11 at its median speed).
REFERENCE_PROBE_S = 35e-6


def _probe() -> int:
    table = {}
    total = 0
    for i in range(200):
        table[i & 31] = total
        total += len(table) * i
    return total


class HostClock:
    """``with HostClock() as clock: ...`` then read ``clock.wall_s``,
    ``clock.probe_s`` and ``clock.scaled_s``.  Main thread only."""

    def __init__(self):
        #: (time the probe started, probe duration), in region order.
        self.samples: list = []
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self._saved = None
        self._start = 0.0

    def _sample(self, _signum, _frame) -> None:
        begin = time.perf_counter()
        _probe()
        self.samples.append((begin, time.perf_counter() - begin))

    def __enter__(self) -> "HostClock":
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self.wall_s = end - self._start
        if not self.samples:
            self.scaled_s = self.wall_s
            return
        durations = [d for _, d in self.samples]
        half = WINDOW // 2
        edges = [self._start] + [t for t, _ in self.samples[1:]] + [end]
        self.scaled_s = sum(
            (edges[i + 1] - edges[i]) * REFERENCE_PROBE_S
            / statistics.median(durations[max(0, i - half):i + half + 1])
            for i in range(len(self.samples))
        )

"""The host's current pace, for steady timings on a shared host.

The reference host is a shared VM whose speed drifts by a third or more
over tens of seconds, for every process at once.  A fixed slice of pure
Python work tells how fast the host runs at that moment.  Each
end-to-end time is the measured time divided by the pace read around
and during it, i.e. host seconds at the reference host's fast pace.  The
raw times are kept in the run record.

The slice allocates no tracked objects and imports nothing, so nothing a
change to the program does can alter its speed; only the host can.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

SLICE_ITERATIONS = 250_000
#: Seconds one slice takes on the reference host at its fast pace.
REFERENCE_SLICE_S = 0.020
#: Slices read back to back before and after a measured stretch.
EDGE_SLICES = 3
#: Seconds between the slices read during a measured stretch.
SAMPLE_INTERVAL_S = 0.5


def slice_seconds() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(SLICE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class Pacer:
    """Reads the pace during a measured stretch, from a timer signal.

    ``start()`` and ``stop()`` bracket the timed region.  Each timer tick
    runs one slice in the main thread; :attr:`paused` is the time those
    slices took, which the caller subtracts from the region's duration.
    """

    def __init__(self, sampling: bool = True) -> None:
        #: False reads the edges only (traced runs: a slice inside a span
        #: would count as that layer's time)
        self.sampling = sampling
        self.readings: List[float] = []
        self.paused = 0.0
        self._busy = False

    def _tick(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.readings.append(slice_seconds())
        self.paused += time.perf_counter() - start
        self._busy = False

    def start(self) -> None:
        self.readings = [slice_seconds() for _ in range(EDGE_SLICES)]
        self.paused = 0.0
        if self.sampling:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                             SAMPLE_INTERVAL_S)

    def stop(self) -> float:
        """End the region; its mean pace (edges included)."""
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.readings += [slice_seconds() for _ in range(EDGE_SLICES)]
        return statistics.fmean(self.readings) / REFERENCE_SLICE_S

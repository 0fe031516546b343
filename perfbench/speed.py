"""Machine-speed calibration for timings on a shared machine.

On a shared host the speed of one process drifts by tens of percent over
seconds to minutes as other tenants come and go (on a 2-vCPU Xeon VM the
same pass took anywhere from 4.3 s to 6.6 s), and the drift differs between
vCPUs, so it has to be measured in the process being timed. A fixed short
mix of interpreter and numpy work, run from a timer signal every PERIOD_S
while the instances run, samples that speed. Each measured call's wall time
(less the samples it contained) is scaled to the speed at which the mix
takes REFERENCE_S. Raw wall times are kept in the results record.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

# Seconds the mix takes at the reference speed: about its median on the
# 2-vCPU Xeon VM the benchmark was set up on.
REFERENCE_S = 0.002
PERIOD_S = 0.1


def calibrate() -> float:
    """Wall time of the fixed work mix, in seconds."""
    t0 = perf_counter()
    counts: dict[int, int] = {}
    total = 0
    for i in range(4000):
        key = i & 1023
        counts[key] = counts.get(key, 0) + i
        total += len(str(i))
    a = np.full(1 << 17, 1.0)
    for _ in range(8):
        a[::7] *= -1.0
        np.subtract(2.0 * a.mean(), a, out=a)
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor from wall time to reference-speed time, for work between two calibrations."""
    return 2 * REFERENCE_S / (before + after)


class Monitor:
    """Samples the machine speed from SIGALRM every PERIOD_S inside the block.

    The handler runs between bytecodes of the main thread, so the samples
    are taken on the same vCPU, in the middle of the calls being timed.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum=None, frame=None):
        self.starts.append(perf_counter())
        self.durations.append(calibrate())

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def scale(self, windows: list[tuple[float, float]]) -> tuple[list[float], list[float]]:
        """Wall time of each (start, end) window less the samples in it, raw and at reference speed.

        A window is scaled by the samples taken inside it, or, when it
        held none, by the samples on either side.
        """
        walls, scaled = [], []
        for t0, t1 in windows:
            lo = bisect.bisect_left(self.starts, t0)
            hi = bisect.bisect_left(self.starts, t1)
            inside = self.durations[lo:hi]
            wall = t1 - t0 - sum(inside)
            near = inside or self.durations[max(lo - 1, 0) : lo + 1]
            walls.append(wall)
            scaled.append(wall * REFERENCE_S * len(near) / sum(near))
        return walls, scaled

"""Machine-speed calibration for the benchmark's timings.

The machines this benchmark runs on are shared virtual machines whose
speed drifts by up to 1.8x over tens of seconds, far more than any bound
a timing could carry.  The drift is a common factor: a fixed unit of
pure-Python work slows down with the workload.  So a pass times a fixed
calibration unit a few times a second, from a timer signal, while it
runs, and every time it reports is divided by the local speed factor

    factor = (mean calibration time near the interval) / REF_UNIT_S,

which makes it "seconds at the reference speed".  The calibration work
uses only the standard library (integer arithmetic and dict updates),
so no change to the package can move it.  The time spent calibrating is
left out of every measured time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Median time of one unit on the baseline machine (see README).
REF_UNIT_S = 0.0022
INTERVAL_S = 0.2
WINDOW_S = 1.0


_SCRATCH = {}  # reused, so a unit allocates no object the collector tracks


def calibration_unit():
    """A fixed amount of interpreter work, independent of the package.

    Integer arithmetic and dict updates only.  It creates no object the
    cyclic garbage collector tracks, so running it from the timer signal
    does not move the points where the package's own collections run.
    """
    d = _SCRATCH
    d.clear()
    a, b, acc = 1, 2, 0
    for i in range(5000):
        a, b = b, (a * 40503 + b + i) % 1000003
        acc = (acc + a * b) % 998244353
        k = a % 499
        d[k] = d.get(k, 0) + b
    return acc


def unit_seconds(repeat):
    """Time `repeat` back-to-back units after one warm-up; return the median."""
    calibration_unit()
    times = []
    for _ in range(repeat):
        t = time.perf_counter()
        calibration_unit()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class SpeedSampler:
    """Times one calibration unit every INTERVAL_S while active (SIGALRM).

    Used as a context manager around a pass.  `busy(a, b)` is the
    calibration time inside [a, b], to subtract from a measured interval;
    `factor(a, b)` is the speed factor to divide it by.
    """

    def __init__(self):
        self.starts = []
        self.seconds = []
        self._prefix = None

    def _tick(self, signum, frame):
        t = time.perf_counter()
        calibration_unit()
        self.starts.append(t)
        self.seconds.append(time.perf_counter() - t)

    def __enter__(self):
        self.seconds.append(unit_seconds(3))
        self.starts.append(time.perf_counter())
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.seconds.append(unit_seconds(3))
        self.starts.append(time.perf_counter())
        return False

    def busy(self, a, b):
        """Calibration seconds spent inside the interval [a, b]."""
        if self._prefix is None:
            self._prefix = [0.0]
            for s in self.seconds:
                self._prefix.append(self._prefix[-1] + s)
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.starts, b)
        # the first and last entries are taken outside the pass
        lo, hi = max(lo, 1), min(hi, len(self.starts) - 1)
        return self._prefix[hi] - self._prefix[lo] if hi > lo else 0.0

    def factor(self, a, b):
        """Mean calibration time of the samples within WINDOW_S of [a, b],
        over the reference unit time.  The window gives a short interval
        enough samples; the machine's speed changes more slowly than that."""
        lo = bisect.bisect_left(self.starts, a - WINDOW_S)
        hi = bisect.bisect_right(self.starts, b + WINDOW_S)
        near = self.seconds[lo:hi] or self.seconds
        return statistics.fmean(near) / REF_UNIT_S

"""Host speed probe: converts wall time to reference seconds.

The machines this benchmark runs on share their cores with other tenants,
and their speed switches between states about 1.7x apart for seconds to
minutes at a time.  A program that did not change can then read 1.7x
slower from one run to the next.  The probe measures that speed while the
benchmark runs, from a timer signal every INTERVAL seconds of wall time.
Each signal runs a fixed kernel that uses the standard library only (exact
elimination on a small `Fraction` matrix), so no change to hopflab can
change the kernel, and records how long the kernel took.

`ref_seconds(a, b)` converts the wall interval [a, b]:

1. It subtracts the time of the probe's own kernels inside the interval.
2. It multiplies the rest by REF_KERNEL_S / (kernel time), averaged over
   the samples taken from SMOOTH_S before the interval to SMOOTH_S after
   it.  The host's state lasts seconds, so the margin changes little for
   long intervals and gives short ones enough samples to average out the
   noise of a single 1 ms measurement.

The result is how long the interval would have taken on a machine where the
kernel takes REF_KERNEL_S.  Run between the program's own steps, the kernel
takes about 0.7 ms on a quiet core of the 2-core 2.0 GHz Xeon VM the
benchmark was defined on, and about 1.2 ms when the host is busy.  So
reference seconds read close to the wall seconds of that VM when quiet.
"""

from __future__ import annotations

import array
import bisect
import signal
import time
from fractions import Fraction

INTERVAL = 0.05
SMOOTH_S = 0.25
REF_KERNEL_S = 0.0007
_N = 9
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i * j) % 4)
            if (i + 2 * j) % 3 else Fraction(0) for j in range(_N)]
           for i in range(_N)]


def kernel():
    """Row-reduce a fixed 9x9 rational matrix; returns its rank."""
    rows = [row[:] for row in _MATRIX]
    rank = 0
    for c in range(_N):
        p = next((k for k in range(rank, _N) if rows[k][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for k in range(rank + 1, _N):
            f = rows[k][c]
            if f:
                m = f / rows[rank][c]
                rk, rr = rows[k], rows[rank]
                for j in range(c, _N):
                    if rr[j]:
                        rk[j] = rk[j] - rr[j] * m
        rank += 1
    return rank


class SpeedProbe:
    """Context manager: samples the kernel's time while it is active."""

    def __init__(self):
        self.at = array.array("d")      # perf_counter when a sample started
        self.took = array.array("d")    # the kernel's time in that sample

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def ref_seconds(self, a, b):
        """Reference seconds of the wall interval [a, b]."""
        own = sum(self.took[bisect.bisect_left(self.at, a):
                            bisect.bisect_left(self.at, b)])
        speeds = self.took[bisect.bisect_left(self.at, a - SMOOTH_S):
                           bisect.bisect_left(self.at, b + SMOOTH_S)]
        if not speeds:
            raise RuntimeError("no speed sample near the interval")
        factor = sum(REF_KERNEL_S / k for k in speeds) / len(speeds)
        return (b - a - own) * factor

"""Host-speed normalisation of measured times.

On a shared 2-vCPU VM the speed of a vCPU drifts by up to ~30% over
seconds as neighbours come and go: a fixed pure-Python loop timed once
per second ranged from 1.23 ms to 1.73 ms in one 30 s window, and the
process's CPU time tracked its wall time, so the drift is a slower CPU,
not descheduling.  Run-to-run spreads of that size would swamp the
regressions the benchmark is meant to catch.

A fixed reference mix (interpreter loop, Fraction arithmetic and
formatting, numpy exp and sum: the kinds of work thetarel does) is timed between
ops, at least every EVERY_S.  Of the mixes and estimators tried, this
one, as a median of three runs over a window of WINDOW_S, tracked the
verify and emit ops best; it does not track the g=3 lattice sums of
theta-eval, which also depend on OpenBLAS threads sharing two vCPUs.  A measured interval is reported at the
speed where the mix takes REF_MIX_S: wall time * REF_MIX_S / (median of
the mix times sampled within WINDOW_S of it).  The raw wall
times are kept in the run record next to the normalised ones.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from fractions import Fraction

import numpy as np

EVERY_S = 0.1
WINDOW_S = 0.5
# Typical sample on the 2-vCPU Xeon the benchmark was defined on; it
# only sets the scale of reported times.
REF_MIX_S = 1.0e-3
_ARRAY = np.arange(2000.0) * 1e-3


def reference_mix() -> None:
    s = 0
    for i in range(3000):
        s += i * i
    f = Fraction(0)
    for i in range(1, 40):
        f += Fraction(i, i + 7)
    ",".join(str(Fraction(i, 12) + Fraction(1, 7)) for i in range(60))
    math.fsum(np.exp(1j * _ARRAY).real)


class HostSpeed:
    def __init__(self):
        self.times: list[float] = []    # perf_counter at the end of each sample
        self.mixes: list[float] = []    # mix seconds of each sample

    def sample(self) -> None:
        """Time the mix (median of three)."""
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            reference_mix()
            runs.append(time.perf_counter() - t0)
        self.times.append(time.perf_counter())
        self.mixes.append(statistics.median(runs))

    def sample_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def normalise(self, start: float, wall: float) -> float:
        """``wall`` seconds that began at perf_counter ``start``, at the
        reference speed.  The speed is the median mix time of the samples
        within WINDOW_S of the interval, which always includes the last
        sample before it and the first after it."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, start + wall + WINDOW_S)
        before = bisect.bisect_left(self.times, start) - 1
        lo, hi = min(lo, max(before, 0)), max(hi, before + 2)
        return wall * REF_MIX_S / statistics.median(self.mixes[lo:hi])

"""The host's speed, measured next to each timed operation with a fixed kernel.

The reference VM's speed changes by up to 1.5-2x in phases that last from
under a second to minutes (CPU time grows with wall time, so this is
contention, not steal time).  A pure-Python kernel that runs none of
halfcyl slows by about the same factor as the package's own pure-Python
work, so the ratio of the two is far steadier than either (figures in
bench/README.md, "Host speed").

``Clock`` brackets a timed operation with one kernel pass before and one
after, and scales the operation's wall time by ``NOMINAL_S`` over the
mean of the two passes.  A scaled time is the operation's wall time on a
host where the kernel takes ``NOMINAL_S`` seconds; a change to the
program moves it as it moves the wall time, since the kernel is fixed.
Only workloads whose work the kernel tracks are scaled (their
``calibrated`` attribute).
"""

from __future__ import annotations

import cmath
import math
import random
import time
from fractions import Fraction

# Median time of one kernel pass on the reference machine (see README).
NOMINAL_S = 0.020


def kernel():
    """Fraction, dict, complex and float arithmetic of the kinds lie,
    exact and classical do, on fixed inputs; about 20 ms."""
    rng = random.Random(5)
    acc, total, counts = Fraction(0), 0.0, {}
    for i in range(1500):
        a = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        acc = acc * Fraction(1, 2) + a
        counts[i % 17] = counts.get(i % 17, 0) + a
        z = cmath.exp(1j * i * 0.001) * complex(i, 1)
        total += math.atan2(z.imag, z.real) + math.sqrt(abs(z))
    return acc, total, counts


def kernel_s():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Clock:
    """Times steps; with ``calibrate``, also the host speed around each.

    ``time(step)`` returns (result, wall seconds, factor): the step's
    scaled time is wall * factor, where factor is ``NOMINAL_S`` over the
    mean of one kernel pass just before the step and one just after.
    Without ``calibrate`` the factor is 1 and no kernel runs.
    """

    def __init__(self, calibrate):
        self.calibrate = calibrate
        self.kernel_samples = []

    def time(self, step):
        before = kernel_s() if self.calibrate else None
        t0 = time.perf_counter()
        try:
            result = step()
        finally:
            wall = time.perf_counter() - t0
        if not self.calibrate:
            return result, wall, 1.0
        after = kernel_s()
        self.kernel_samples += [before, after]
        return result, wall, NOMINAL_S / ((before + after) / 2)

"""A fixed reference workload that measures the machine's current speed.

On a shared machine the speed of one core drifts by tens of percent over
minutes, so two runs of the same code minutes apart differ by more than any
run length can average away.  The measuring process therefore times this
kernel about once a second between operations.  It never touches the
package under test: it does the same kinds of work (Fraction sums, set
operations, small complex matrix products), so it slows down with the
machine and not with the program.  run.py scales the end-to-end times by
NOMINAL_S over the kernel's median time, which states them at one fixed
machine speed; the raw values are printed beside them.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# Kernel time that defines the reference machine speed.
NOMINAL_S = 0.03


def kernel_seconds() -> float:
    """Run the reference kernel once and return its wall time."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 2500):
        total += Fraction(1, i)
    for _ in range(5):
        _ = set(range(4000)) & set(range(2000, 6000))
    a = np.ones((8, 8), dtype=complex)
    for _ in range(1500):
        a = a @ a.conj().T / 8
    return time.perf_counter() - start


class SpeedProbe:
    """Times the kernel at most once per ``interval_s`` of workload time."""

    def __init__(self, interval_s: float = 1.0):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.spent_s = 0.0  # total kernel time, to take out of the timed phase
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        now = time.perf_counter()
        if now - self._last >= self.interval_s:
            elapsed = kernel_seconds()
            self.samples.append(elapsed)
            self.spent_s += time.perf_counter() - now
            self._last = time.perf_counter()

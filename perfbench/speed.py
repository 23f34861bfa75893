"""The machine's current speed, read off a fixed kernel, to put timings on one scale.

On a shared two-core Intel Xeon, other load slowed every process by up to
2x for tens of seconds at a time, so raw timings of one run could not be
compared with those of a run a minute later.  The kernel below is
pure-Python work of the kinds balchain does (Fraction arithmetic,
big-integer recurrences, float loops) and imports nothing from balchain,
so a change to balchain never changes it.  Each op's time is
divided by ``factor`` = kernel time now / ``REFERENCE_S``, taken from the
kernel runs just before and just after the op: the result is the op's time
on a machine where the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import median
from time import perf_counter

# the kernel's time under Python 3.11.7 on that Xeon when nothing else ran
REFERENCE_S = 0.014


def kernel() -> tuple:
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
    x, y = 0, 1
    for _ in range(10000):
        x, y = y, 6 * y - x
    v = [1.0 / 64] * 64
    for _ in range(100):
        v = [0.5 * a + 0.25 * b + 0.25 * c for a, b, c in zip(v, v[1:] + v[:1], v[-1:] + v[:-1])]
    return acc, x, v


def run_kernel() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


def factor_now(runs: int = 3) -> float:
    """How many times slower than the reference the machine is right now."""
    return median(run_kernel() for _ in range(runs)) / REFERENCE_S


class Clock:
    """Kernel samples taken between ops, at least ``gap`` seconds apart."""

    def __init__(self, gap: float) -> None:
        self.gap = gap
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        self.starts.append(perf_counter())
        self.seconds.append(run_kernel())

    def sample_if_due(self) -> None:
        if not self.starts or perf_counter() - self.starts[-1] >= self.gap:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Slowdown over [start, end]: the mean of the samples just before and after it."""
        before = max(bisect_right(self.starts, start) - 1, 0)
        after = min(bisect_left(self.starts, end), len(self.starts) - 1)
        return (self.seconds[before] + self.seconds[after]) / 2 / REFERENCE_S

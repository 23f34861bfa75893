"""Exact arithmetic in Z[sqrt(2)] and certified rational enclosures.

The unit BETA = 3 - 2*sqrt(2) is the limit of B[n-1]/B[n] for balancing
numbers and the inverse square of the silver ratio 1 + sqrt(2).  Stationary
probabilities of the infinite-state chain live in this ring, so every
identity about them can be checked with integer arithmetic only.  Where a
decimal magnitude is needed, values are enclosed between two fractions
built from integer square roots, never from floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf, isqrt, nextafter

from .sequences import _balancing_pair, _is_int, _require_int

__all__ = [
    "QuadInt",
    "ONE",
    "BETA",
    "beta_power_identity",
    "infinite_steady_state",
    "silver_ratio_gap",
    "sqrt2_bounds",
    "enclosure",
    "gap_bound",
    "float_upper",
]


@dataclass(frozen=True)
class QuadInt:
    """Element a + b*sqrt(2) of the ring Z[sqrt(2)].  Its other operand
    is a QuadInt or an int, not a bool, as for ``**``."""

    a: int
    b: int

    def __add__(self, other: QuadInt | int) -> QuadInt:
        if isinstance(other, QuadInt):
            return QuadInt(self.a + other.a, self.b + other.b)
        if _is_int(other):
            return QuadInt(self.a + other, self.b)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> QuadInt:
        return QuadInt(-self.a, -self.b)

    def __sub__(self, other: QuadInt | int) -> QuadInt:
        if isinstance(other, QuadInt) or _is_int(other):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other: int) -> QuadInt:
        return (-self).__add__(other)

    def __mul__(self, other: QuadInt | int) -> QuadInt:
        if isinstance(other, QuadInt):
            return QuadInt(
                self.a * other.a + 2 * self.b * other.b,
                self.a * other.b + self.b * other.a,
            )
        if _is_int(other):
            return QuadInt(self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QuadInt:
        _require_int("exponent", n, 0)
        result, base = ONE, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> QuadInt:
        return QuadInt(self.a, -self.b)

    def norm(self) -> int:
        return self.a * self.a - 2 * self.b * self.b

    def __str__(self) -> str:
        return f"{self.a}{self.b:+}√2"


ONE = QuadInt(1, 0)

# 3 - 2*sqrt(2): the limiting ratio of consecutive balancing numbers and a
# norm-1 unit of the ring.
BETA = QuadInt(3, -2)


def beta_power_identity(n: int) -> bool:
    """Check BETA**(n+1) == BETA*B[n+1] - B[n] exactly in Z[sqrt(2)].

    This is the single-n check; ``verify.beta_power_row`` checks a whole
    range in one walk.
    """
    _require_int("index", n, 1)
    b_cur, b_next = _balancing_pair(n)
    return BETA ** (n + 1) == BETA * b_next - b_cur


def infinite_steady_state(count: int) -> list[QuadInt]:
    """First ``count`` stationary probabilities of the infinite-state chain.

    Entry i is BETA**i - BETA**(i+1); the partial sums telescope, so
    1 - sum(entries) == BETA**count exactly.
    """
    _require_int("count", count, 1)
    out: list[QuadInt] = []
    power = ONE
    for _ in range(count):
        nxt = power * BETA
        out.append(power - nxt)
        power = nxt
    return out


def sqrt2_bounds(digits: int = 50) -> tuple[Fraction, Fraction]:
    """Fractions lo <= sqrt(2) < hi with hi - lo == 10**-digits; ``digits``
    is an int >= 1, checked here for every enclosure."""
    _require_int("digits", digits, 1)
    return _sqrt2_bounds(digits)


@lru_cache(maxsize=None)
def _sqrt2_bounds(digits: int) -> tuple[Fraction, Fraction]:
    scale = 10**digits
    lo = isqrt(2 * scale * scale)
    return Fraction(lo, scale), Fraction(lo + 1, scale)


def _require_rational(value: object) -> None:
    if not (_is_int(value) or isinstance(value, Fraction)):
        raise ValueError(f"value must be an int or a Fraction, got {value!r}")


def enclosure(x: QuadInt, digits: int = 50) -> tuple[Fraction, Fraction]:
    """Rational interval [lo, hi] certified to contain the value of x, a
    QuadInt, or ValueError."""
    if not isinstance(x, QuadInt):
        raise ValueError(f"ring element must be a QuadInt, got {x!r}")
    lo2, hi2 = sqrt2_bounds(digits)
    if x.b >= 0:
        return x.a + x.b * lo2, x.a + x.b * hi2
    return x.a + x.b * hi2, x.a + x.b * lo2


def gap_bound(value: Fraction, x: QuadInt, digits: int = 50) -> Fraction:
    """Certified upper bound on |value - x| for a rational value: an int,
    not a bool, or a Fraction, or ValueError (a float is not exact)."""
    _require_rational(value)
    lo, hi = enclosure(x, digits)
    return max(abs(value - lo), abs(value - hi))


def float_upper(value: Fraction) -> float:
    """Smallest float that is >= value (directed rounding for reports);
    value is an int, not a bool, or a Fraction, or ValueError."""
    _require_rational(value)
    approx = float(value)
    if Fraction(approx) >= value:
        return approx
    return nextafter(approx, inf)


def silver_ratio_gap(n: int, digits: int = 50) -> Fraction:
    """Certified upper bound on |B[n-1]/B[n] - BETA|, decreasing in n.

    The ratio approaches BETA from below, so 3 - 2*lo - ratio with
    lo <= sqrt(2) is an upper bound on the true gap; since lo is fixed for
    a given precision, the bound inherits the ratio's strict monotonicity.
    """
    _require_int("index", n, 2)
    lo, _ = sqrt2_bounds(digits)
    b_prev, b_n = _balancing_pair(n - 1)
    ratio = Fraction(b_prev, b_n)
    return 3 - 2 * lo - ratio

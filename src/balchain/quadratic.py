"""Exact arithmetic in Z[sqrt(2)] and certified rational enclosures.

The unit BETA = 3 - 2*sqrt(2) is the limit of B[n-1]/B[n] for balancing
numbers and the inverse square of the silver ratio 1 + sqrt(2).  Stationary
probabilities of the infinite-state chain live in this ring, so every
identity about them can be checked with integer arithmetic only.  Where a
decimal magnitude is needed, it is bounded through integer square roots,
never through floats.  A tiny x = r + s*sqrt(2) is bounded as its exact
norm r**2 - 2*s**2 over its conjugate r - s*sqrt(2), which has no
cancellation, so a short enclosure of sqrt(2) bounds |x| to a fixed number
of significant digits however small x is.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import pairwise
from math import inf, isqrt, nextafter
from sys import float_info

from .sequences import BALANCING, _balancing_pair, _is_int, _recurrence, _require_int

__all__ = [
    "QuadInt",
    "ONE",
    "BETA",
    "beta_power_identity",
    "infinite_steady_state",
    "silver_ratio_gap",
    "sqrt2_bounds",
    "enclosure",
    "abs_bound",
    "gap_bound",
    "float_upper",
]


@dataclass(frozen=True)
class QuadInt:
    """Element a + b*sqrt(2) of the ring Z[sqrt(2)]: a and b are ints, not
    bools, or ValueError.  Its other operand is a QuadInt or an int, not a
    bool, as for ``**``."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if type(self.a) is not int or type(self.b) is not int:  # one type test in the common case
            _require_int("a", self.a)
            _require_int("b", self.b)

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
    root, scale = _sqrt2_floor(digits)
    return Fraction(root, scale), Fraction(root + 1, scale)


_SQRT2_CACHE = 8  # a sweep over digits keeps only the last few roots


@lru_cache(maxsize=_SQRT2_CACHE)
def _sqrt2_floor(digits: int) -> tuple[int, int]:
    """(floor(sqrt(2) * 10**digits), 10**digits)."""
    scale = 10**digits
    return isqrt(2 * scale * scale), scale


def _require_rational(value: object) -> None:
    if not (_is_int(value) or isinstance(value, Fraction)):
        raise ValueError(f"value must be an int or a Fraction, got {value!r}")


def _require_quadint(x: object) -> None:
    if not isinstance(x, QuadInt):
        raise ValueError(f"ring element must be a QuadInt, got {x!r}")


def enclosure(x: QuadInt, digits: int = 50) -> tuple[Fraction, Fraction]:
    """Rational interval [lo, hi] certified to contain the value of x, a
    QuadInt, or ValueError."""
    _require_quadint(x)
    lo2, hi2 = sqrt2_bounds(digits)
    if x.b >= 0:
        return x.a + x.b * lo2, x.a + x.b * hi2
    return x.a + x.b * hi2, x.a + x.b * lo2


def _abs_bound(p: int, q: int, s: int, digits: int) -> Fraction:
    """Upper bound on |p/q + s*sqrt(2)| for ints p, s and q > 0, above the
    true value by a factor less than 1 + 10**-digits."""
    root, scale = _sqrt2_floor(digits)
    if p < 0 < s or s < 0 < p:
        # x may cancel, its conjugate (|p| + |s|*q*sqrt(2))/q does not:
        # |x| = |p**2 - 2*s**2*q**2| / (q * (|p| + |s|*q*sqrt(2)))
        norm = abs(p * p - 2 * s * s * q * q)
        return Fraction(norm * scale, q * (abs(p) * scale + abs(s) * q * root))
    # no cancellation in x itself: |x| = (|p| + |s|*q*sqrt(2))/q; x == 0
    # only for p == s == 0, where this is exactly 0
    return Fraction(abs(p) * scale + abs(s) * q * (root + 1), q * scale)


def abs_bound(r: int | Fraction, s: int, digits: int = 50) -> Fraction:
    """Certified upper bound on |r + s*sqrt(2)| to ``digits`` significant
    digits: above the true value by a factor less than 1 + 10**-digits,
    however small that value is, and exactly 0 at r == s == 0.

    When r and s differ in sign the bound is the exact norm
    |r**2 - 2*s**2| over a lower bound on the conjugate |r - s*sqrt(2)|,
    which is at least |r| and never cancels; otherwise r + s*sqrt(2) does
    not cancel and is enclosed directly.  ``r`` is an int, not a bool, or a
    Fraction, ``s`` an int, ``digits`` an int >= 1, or ValueError.
    """
    _require_rational(r)
    _require_int("sqrt(2) coefficient", s)
    _require_int("digits", digits, 1)
    return _abs_bound(r.numerator, r.denominator, s, digits)


def gap_bound(value: Fraction, x: QuadInt, digits: int = 50) -> Fraction:
    """Certified upper bound on |value - x| for a rational value, to
    ``digits`` significant digits (``abs_bound`` of value - x): an int, not
    a bool, or a Fraction, or ValueError (a float is not exact)."""
    _require_rational(value)
    _require_quadint(x)
    _require_int("digits", digits, 1)
    q = value.denominator
    return _abs_bound(value.numerator - x.a * q, q, -x.b, digits)


def float_upper(value: Fraction) -> float:
    """Smallest float that is >= value (directed rounding for reports);
    value is an int, not a bool, or a Fraction, or ValueError.  Above the
    largest float the result is inf, and below its negative it is
    -float_info.max."""
    _require_rational(value)
    p, q = value.numerator, value.denominator
    try:
        approx = p / q  # float(value), rounded to nearest
    except OverflowError:
        return inf if p > 0 else -float_info.max
    n, d = approx.as_integer_ratio()
    if n * q >= p * d:
        return approx
    return nextafter(approx, inf)


def silver_ratio_gap(n: int, digits: int = 50) -> Fraction:
    """Certified upper bound on |B[n-1]/B[n] - BETA| to ``digits``
    significant digits, strictly decreasing in n.

    The gap is (B[n-1] - 3*B[n])/B[n] + 2*sqrt(2), and the balancing
    identity B[n]**2 - 6*B[n]*B[n-1] + B[n-1]**2 == 1 makes its norm
    1/B[n]**2, so ``abs_bound``'s bound is the closed form
    1 / (B[n] * ((3 + 2*lo)*B[n] - B[n-1])) with lo <= sqrt(2): no
    cancellation, and a denominator that grows with n.
    """
    _require_int("index", n, 2)
    _require_int("digits", digits, 1)
    return _ratio_gap(*_balancing_pair(n - 1), digits)


def _ratio_gap(b_prev: int, b_n: int, digits: int) -> Fraction:
    """``silver_ratio_gap``'s bound from (B[n-1], B[n])."""
    return _abs_bound(b_prev - 3 * b_n, b_n, 2, digits)


def _ratio_gaps(max_n: int, digits: int) -> Iterator[tuple[int, Fraction]]:
    """(n, silver_ratio_gap(n, digits)) for n = 2..max_n, the pairs
    (B[n-1], B[n]) walked one balancing step a row."""
    pairs = pairwise(_recurrence(BALANCING.recurrence, max_n, 1, 6))  # from (B[1], B[2])
    for n, (b_prev, b_n) in enumerate(pairs, 2):
        yield n, _ratio_gap(b_prev, b_n, digits)

"""Balancing-family integer sequences and the identities connecting them.

A balancing number is a natural number N for which 8*N**2 + 1 is a perfect
square; the square roots of those discriminants are the Lucas-balancing
numbers.  Cobalancing numbers satisfy the shifted condition
8*N**2 + 8*N + 1 = square.  All of these, and the Pell numbers, come out of
one second-order recurrence with exact arbitrary-precision integers.
There is one engine per job.  Every run of terms steps the recurrence
once per term: ``sequence`` in ints with ``_recurrence``, and ``seq``'s
``_decimal_terms`` in exact ``Decimal`` with ``_decimal_recurrence``, one
fused multiply-add a term.  Every jump to one index, ``term`` and
``balancing_matrix_power``, reads the Lucas (U, V) ladder
``_lucas_ladder``, which takes two big-integer products per bit of the
index for every recurrence: a shift moves into the ladder's start values.

Every index, count, exponent, multiplier and recurrence parameter is an
int (bool excluded), a kind is a ``SequenceKind`` and its recurrence a
``RecurrenceSpec``; anything else raises ValueError.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    ROUND_HALF_EVEN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
    localcontext,
)
from math import isqrt

__all__ = [
    "RecurrenceSpec",
    "SequenceKind",
    "BALANCING",
    "LUCAS_BALANCING",
    "COBALANCING",
    "LUCAS_COBALANCING",
    "PELL",
    "NAMED_KINDS",
    "balancing_like",
    "term",
    "sequence",
    "integer_sqrt",
    "is_balancing",
    "is_cobalancing",
    "check_sum_identity",
    "check_pell_links",
    "balancing_matrix_power",
]


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _require_int(name: str, value: object, least: int | None = None) -> None:
    """Raise ValueError unless ``value`` is an int, not a bool, and
    >= ``least`` when that is given."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class RecurrenceSpec:
    """Engine parameters for x[k+1] = coeff*x[k] + back*x[k-1] + shift.

    ``back`` is -1 for every balancing-type sequence and +1 for Pell, so a
    single signed engine covers both recurrence shapes.  Each field is an
    int, not a bool, or ValueError.
    """

    coeff: int
    shift: int
    x0: int
    x1: int
    back: int = -1

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            _require_int(name, value)


@dataclass(frozen=True)
class SequenceKind:
    """A named sequence together with the recurrence that generates it.
    The name is a str and the recurrence a ``RecurrenceSpec``, or
    ValueError."""

    name: str
    recurrence: RecurrenceSpec

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a str, got {self.name!r}")
        if not isinstance(self.recurrence, RecurrenceSpec):
            raise ValueError(f"recurrence must be a RecurrenceSpec, got {self.recurrence!r}")


def _require_kind(kind: object) -> None:
    if not isinstance(kind, SequenceKind):
        raise ValueError(f"kind must be a SequenceKind, got {kind!r}")


BALANCING = SequenceKind("balancing", RecurrenceSpec(6, 0, 0, 1))
LUCAS_BALANCING = SequenceKind("lucas-balancing", RecurrenceSpec(6, 0, 1, 3))
COBALANCING = SequenceKind("cobalancing", RecurrenceSpec(6, 2, 0, 0))
LUCAS_COBALANCING = SequenceKind("lucas-cobalancing", RecurrenceSpec(6, 0, 1, 7))
PELL = SequenceKind("pell", RecurrenceSpec(2, 0, 0, 1, back=1))

NAMED_KINDS = {
    kind.name: kind
    for kind in (BALANCING, LUCAS_BALANCING, COBALANCING, LUCAS_COBALANCING, PELL)
}


def balancing_like(a: int) -> SequenceKind:
    """Sequence x[k+1] = a*x[k] - x[k-1] with x0=0, x1=1 for a fixed a >= 2.

    a=2 gives the natural numbers, a=3 the even-indexed Fibonacci numbers,
    and a=6 the balancing numbers.
    """
    _require_int("multiplier", a, 2)
    return SequenceKind(f"balancing-like({a})", RecurrenceSpec(a, 0, 0, 1))


def term(kind: SequenceKind, n: int) -> int:
    """n-th term of the sequence, 0-indexed, in O(log n) big-integer products.

    It is read off the Lucas (U, V) ladder ``_lucas_ladder``: two big
    products per bit of n, and one at the last bit, shifted recurrence or
    not.
    """
    _require_kind(kind)
    _require_int("index", n, 0)
    r = kind.recurrence
    return _lucas_ladder(r, n, (r.x0, r.x1))[0]


def _recurrence(r: RecurrenceSpec, count: int, prev, cur) -> Iterator:
    """x[0], ..., x[count-1] from x[0] = prev and x[1] = cur, computed in
    the type of the start values (int, or Decimal under an exact context)."""
    _require_int("count", count, 0)
    coeff, back, shift = r.coeff, r.back, r.shift
    for _ in range(count):
        yield prev
        # the shift is added last, so an exact zero is +0 in Decimal too
        prev, cur = cur, coeff * cur + back * prev + shift


def sequence(kind: SequenceKind, count: int) -> list[int]:
    """First ``count`` terms as ints, starting at index 0.

    This is the int reference; ``seq`` prints the same recurrence run in
    ``Decimal`` (``_decimal_terms``).
    """
    _require_kind(kind)
    r = kind.recurrence
    return list(_recurrence(r, count, r.x0, r.x1))


# Integer arithmetic in Decimal: a result that would be rounded or would
# overflow raises instead, so every step that returns is exact.
_EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    rounding=ROUND_HALF_EVEN,
    traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
)


def _decimal_recurrence(r: RecurrenceSpec, count: int, ctx: Context) -> Iterator[Decimal]:
    """``_recurrence`` from x[0] and x[1] in ``Decimal`` under the exact
    context ``ctx``, in one fused multiply-add a term when back is -1 or
    +1: coeff*cur + (shift - prev), or coeff*cur + (prev + shift).

    An addend that is zero is +0, so the sum is +0 when it is zero even
    where coeff*cur is -0, and every zero term prints as ``0``.  Any other
    back takes ``_recurrence``'s step.
    """
    prev, cur = Decimal(r.x0), Decimal(r.x1)
    if r.back not in (-1, 1):
        yield from _recurrence(r, count, prev, cur)
        return
    coeff, shift, fma, minus = Decimal(r.coeff), Decimal(r.shift), ctx.fma, r.back == -1
    for _ in range(count):
        yield prev
        prev, cur = cur, fma(coeff, cur, shift - prev if minus else prev + shift)


def _decimal_terms(kind: SequenceKind, count: int) -> list[str]:
    """The first ``count`` terms in decimal, each string equal to ``str`` of
    the int that ``sequence`` returns, in time linear in the output size.

    The recurrence runs in ``Decimal`` (``_decimal_recurrence``) under a
    local exact context, since ``str(Decimal)`` is linear in the digits
    where ``str(int)`` is quadratic.  The interpreter's int-to-str limit
    still applies: the first term with more digits than
    ``sys.get_int_max_str_digits()`` (0 or absent means no limit) is
    converted with ``str(int)``, which raises the interpreter's own
    ``ValueError``, and no later term is computed.  Terms are formatted
    only after every term has passed that check, so a run that raises
    formats none.
    """
    _require_int("count", count, 0)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    terms: list = []
    with localcontext(_EXACT) as ctx:
        for x in _decimal_recurrence(kind.recurrence, count, ctx):
            # adjusted() is the digit count less one, whatever the sign
            if limit and x.adjusted() >= limit:
                str(int(x))  # raises the interpreter's own ValueError
            terms.append(x)
    # in place from the last term back, which peaks lower than front to back
    for i in reversed(range(count)):
        terms[i] = str(terms[i])
    return terms


def integer_sqrt(n: int) -> tuple[int, bool]:
    """Floor square root and an exactness flag: (isqrt(n), isqrt(n)**2 == n)."""
    _require_int("square root argument", n, 0)
    root = isqrt(n)
    return root, root * root == n


def is_balancing(n: int) -> tuple[bool, int | None]:
    """Whether 8*n**2 + 1 is a perfect square; the root is the witness."""
    _require_int("argument", n, 1)
    root, exact = integer_sqrt(8 * n * n + 1)
    return (True, root) if exact else (False, None)


def is_cobalancing(n: int) -> tuple[bool, int | None]:
    """Whether 8*n**2 + 8*n + 1 is a perfect square; the root is the witness."""
    _require_int("argument", n, 0)
    root, exact = integer_sqrt(8 * n * n + 8 * n + 1)
    return (True, root) if exact else (False, None)


def check_sum_identity(n: int) -> bool:
    """True iff twice the sum of the first n-1 balancing numbers equals b[n]."""
    _require_int("index", n, 1)
    total = sum(sequence(BALANCING, n))
    return 2 * total == term(COBALANCING, n)


def check_pell_links(n: int) -> tuple[bool, bool]:
    """Check P[2n] == 2*B[n] and P[2n+1] == B[n+1] - B[n], each pair of
    consecutive terms from one ``_lucas_ladder``."""
    _require_int("index", n, 0)
    b_n, b_next = _balancing_pair(n)
    p_even, p_odd = _lucas_ladder(PELL.recurrence, 2 * n, (0, 1), (1, 2))
    return p_even == 2 * b_n, p_odd == b_next - b_n


def _lucas_ladder(r: RecurrenceSpec, k: int, *starts: tuple[int, int]) -> list[int]:
    """x[k] of the recurrence ``r`` from each start (x[0], x[1]), shift included.

    U and V solve the unshifted recurrence from (0, 1) and (2, coeff), with
    Q = -back and D = coeff**2 - 4*Q, and so does every
    y[j] = ((2*y[1] - coeff*y[0])*U[j] + y[0]*V[j])/2.  The shift s moves
    into the start values: with g(j) = j**p, y[j] = e*x[j] - s*g(j) solves
    the unshifted recurrence when e = g(j+1) - coeff*g(j) - back*g(j-1) is
    a nonzero constant.  That is p = 0 and e = 1 - coeff - back; where that
    e is 0, p = 1 and e = 2 - coeff; where both are 0 (coeff 2, back -1, a
    double root at 1), p = 2 and e = 2.  So the ladder runs from
    (e*x[0] - s*g(0), e*x[1] - s), and x[k] = (y[k] + s*g(k))/e is an exact
    division (undetermined coefficients: R. L. Graham, D. E. Knuth and
    O. Patashnik, "Concrete Mathematics", 2nd ed., ch. 7).

    The bits of k are read from the top, each taking the index j to 2j or
    2j + 1; the top bit takes j from 0 to 1.  With W = U[j+1] =
    (coeff*U[j] + V[j])/2,
        U[2j]   = U[j]*V[j]      V[2j]   = D*U[j]**2 + 2*Q**j
        U[2j+1] = W*V[j] - Q**j  V[2j+1] = D*U[j]*W + coeff*Q**j
    and every division is exact.  That is two big products per bit (Q**j
    is 1 or -1 when back is).  The last bit, m, forms each y[k] in one big
    product,
        y[2j+m] = y[j+m]*V[j] - Q**j*y[m].
    (M. Joye and J.-J. Quisquater, "Efficient computation of full Lucas
    sequences", Electronics Letters 32(6), 1996.)
    """
    c, q, s = r.coeff, -r.back, r.shift
    d = c * c - 4 * q
    e, sg0, sgk = 1 - c + q, s, s  # e, s*g(0) and s*g(k); g(1) = 1
    if not e:
        e, sg0, sgk = 2 - c, 0, s * k
    if not e:
        e, sgk = 2, s * k * k
    # U[j], V[j] and Q**j after the top bit, unless that bit is the last
    u, v, qj = (1, c, q) if k > 1 else (0, 2, 1)
    for bit in bin(k)[3:-1]:  # every bit but the top and the last
        if bit == "1":
            w = (c * u + v) >> 1
            u, v, qj = w * v - qj, d * (u * w) + c * qj, q * qj * qj
        else:
            u, v, qj = u * v, d * (u * u) + 2 * qj, qj * qj
    m = k & 1
    w, vw = ((c * u + v) >> 1, (d * u + c * v) >> 1) if m else (u, v)  # U[j+m], V[j+m]
    return [
        ((((2 * y1 - c * y0) * w + y0 * vw) >> 1) * v - qj * (y1 if m else y0) + sgk) // e
        for x0, x1 in starts
        for y0 in [e * x0 - sg0]
        for y1 in [e * x1 - s]
    ]


Matrix2 = tuple[tuple[int, int], tuple[int, int]]


def balancing_matrix_power(n: int) -> Matrix2:
    """n-th power of ((6, 1), (-1, 0)), in O(log n) big-integer products.

    The power carries consecutive balancing numbers,
    ((B[n+1], B[n]), (-B[n], -B[n-1])), and B[j] and B[j+1] both solve the
    balancing recurrence, from (0, 1) and from (1, 6), so one
    ``_lucas_ladder`` gives both (``_balancing_pair``), and -B[n-1] =
    B[n+1] - 6*B[n].
    """
    _require_int("exponent", n, 1)
    b, b1 = _balancing_pair(n)
    return (b1, b), (-b, b1 - 6 * b)


def _balancing_pair(n: int) -> list[int]:
    """[B[n], B[n+1]] from one ``_lucas_ladder``: the two solve the
    balancing recurrence from (0, 1) and from (1, 6)."""
    return _lucas_ladder(BALANCING.recurrence, n, (0, 1), (1, 6))

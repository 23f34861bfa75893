"""Balancing-family integer sequences and the identities connecting them.

A balancing number is a natural number N for which 8*N**2 + 1 is a perfect
square; the square roots of those discriminants are the Lucas-balancing
numbers.  Cobalancing numbers satisfy the shifted condition
8*N**2 + 8*N + 1 = square.  All of these, and the Pell numbers, come out of
one second-order recurrence with exact arbitrary-precision integers:
``sequence`` steps it once per term, and ``term`` and
``balancing_matrix_power`` read one doubling engine (``_lucas_u``) that
jumps to index k in three big-integer products per bit of k.

Every index, count, exponent and multiplier is an int (bool excluded);
anything else raises ValueError.
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
    single signed engine covers both recurrence shapes.
    """

    coeff: int
    shift: int
    x0: int
    x1: int
    back: int = -1


@dataclass(frozen=True)
class SequenceKind:
    """A named sequence together with the recurrence that generates it."""

    name: str
    recurrence: RecurrenceSpec


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

    Every solution of the recurrence is x1*U[n] + x0*(U[n+1] - coeff*U[n])
    + shift*T[n], with U, T as in ``_lucas_u``: the first two are the
    homogeneous solutions with (x0, x1) = (0, 1) and (1, 0), and shift*T[n]
    the solution from (0, 0).
    """
    _require_int("index", n, 0)
    r = kind.recurrence
    u, u1, t = _lucas_u(r, n)
    return r.x1 * u + r.x0 * (u1 - r.coeff * u) + r.shift * t


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


def _decimal_terms(kind: SequenceKind, count: int) -> list[str]:
    """The first ``count`` terms in decimal, each string equal to ``str`` of
    the int that ``sequence`` returns, in time linear in the output size.

    The recurrence runs in ``Decimal`` under a local exact context, since
    ``str(Decimal)`` is linear in the digits where ``str(int)`` is
    quadratic.  The interpreter's int-to-str limit still applies: the first
    term with more digits than ``sys.get_int_max_str_digits()`` (0 or
    absent means no limit) is converted with ``str(int)``, which raises the
    interpreter's own ``ValueError``, and no later term is computed.  When
    ``_passes_limit`` finds such a term beforehand, no term is formatted.
    """
    _require_int("count", count, 0)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    r = kind.recurrence
    doomed = limit > 0 and _passes_limit(kind, count, limit)
    out: list[str] = []
    with localcontext(_EXACT):
        for x in _recurrence(r, count, Decimal(r.x0), Decimal(r.x1)):
            # adjusted() is the digit count less one, whatever the sign
            if limit and x.adjusted() >= limit:
                str(int(x))  # raises the interpreter's own ValueError
            if not doomed:
                out.append(str(x))
    return out


def _passes_limit(kind: SequenceKind, count: int, limit: int) -> bool:
    """Whether one of the terms at indices 1, 2, 4, ... below ``count - 1``
    and at ``count - 1`` has more than ``limit`` digits, each by ``term``.

    True means a term below ``count`` is past the limit.  False rules one
    out for a sequence whose magnitudes never fall, as for every named
    kind; the probes stop at the first term past the limit, so none has
    many more digits than the limit, and a sequence that stays below it
    has small terms.
    """
    bound = 10**limit
    index = 1
    while index < count - 1:
        if abs(term(kind, index)) >= bound:
            return True
        index *= 2
    return count > 0 and abs(term(kind, count - 1)) >= bound


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
    """Check P[2n] == 2*B[n] and P[2n+1] == B[n+1] - B[n]."""
    _require_int("index", n, 0)
    b_n = term(BALANCING, n)
    b_next = term(BALANCING, n + 1)
    even_ok = term(PELL, 2 * n) == 2 * b_n
    odd_ok = term(PELL, 2 * n + 1) == b_next - b_n
    return even_ok, odd_ok


def _lucas_u(r: RecurrenceSpec, k: int) -> tuple[int, int, int]:
    """(U[k], U[k+1], T[k]) for U[j+1] = coeff*U[j] + back*U[j-1] from
    U[0] = 0, U[1] = 1, and T[k] = U[0] + ... + U[k-1].

    The bits of k are read from the top.  Each doubles the index,
        U[2j]   = U[j]*(2*U[j+1] - coeff*U[j])
        U[2j+1] = U[j+1]**2 + back*U[j]**2
        T[2j]   = T[j]*(1 + U[j+1] + (1 - coeff)*U[j]) + U[j]**2
    (valid for every coeff and back, with no division), and a set bit then
    steps once, which costs only small-by-big products.  That is three big
    products per bit, two of them squares, and T's product only when the
    recurrence has a shift; without one T[k] is returned as 0.
    (M. Joye and J.-J. Quisquater, "Efficient computation of full Lucas
    sequences", Electronics Letters 32(6), 1996.)
    """
    c, b, shifted = r.coeff, r.back, r.shift != 0
    u, u1, t = 0, 1, 0
    for bit in bin(k)[2:]:
        uu = u * u
        if shifted:
            t = t * (1 + u1 + (1 - c) * u) + uu
        u, u1 = u * (2 * u1 - c * u), u1 * u1 + b * uu
        if bit == "1":
            if shifted:
                t += u
            u, u1 = u1, c * u1 + b * u
    return u, u1, t


Matrix2 = tuple[tuple[int, int], tuple[int, int]]


def balancing_matrix_power(n: int) -> Matrix2:
    """n-th power of ((6, 1), (-1, 0)), in O(log n) big-integer products.

    The power carries consecutive balancing numbers,
    ((B[n+1], B[n]), (-B[n], -B[n-1])), and B is the balancing
    recurrence's U, so it is read off ``_lucas_u`` with
    -B[n-1] = B[n+1] - 6*B[n].
    """
    _require_int("exponent", n, 1)
    r = BALANCING.recurrence
    u, u1, _ = _lucas_u(r, n)
    return (u1, u), (-u, u1 - r.coeff * u)

"""Balancing-family integer sequences and the identities connecting them.

A balancing number is a natural number N for which 8*N**2 + 1 is a perfect
square; the square roots of those discriminants are the Lucas-balancing
numbers.  Cobalancing numbers satisfy the shifted condition
8*N**2 + 8*N + 1 = square.  All of these, and the Pell numbers, come out of
one second-order recurrence engine with exact arbitrary-precision integers.
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
    if a < 2:
        raise ValueError(f"multiplier must be >= 2, got {a}")
    return SequenceKind(f"balancing-like({a})", RecurrenceSpec(a, 0, 0, 1))


def term(kind: SequenceKind, n: int) -> int:
    """n-th term of the sequence, 0-indexed, in O(log n) big-integer products.

    The n-th power of the recurrence's companion matrix (see
    ``_companion_power``) maps (x1, x0, 1) to (x[n+1], x[n], 1).
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    r = kind.recurrence
    _, (p, q, u) = _companion_power(r, n)
    return p * r.x1 + q * r.x0 + u


def _recurrence(r: RecurrenceSpec, count: int, prev, cur) -> Iterator:
    """x[0], ..., x[count-1] from x[0] = prev and x[1] = cur, computed in
    the type of the start values (int, or Decimal under an exact context)."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
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
    interpreter's own ``ValueError``, and no later term is computed.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    r = kind.recurrence
    out: list[str] = []
    with localcontext(_EXACT):
        for x in _recurrence(r, count, Decimal(r.x0), Decimal(r.x1)):
            # adjusted() is the digit count less one, whatever the sign
            if limit and x.adjusted() >= limit:
                str(int(x))  # raises the interpreter's own ValueError
            out.append(str(x))
    return out


def integer_sqrt(n: int) -> tuple[int, bool]:
    """Floor square root and an exactness flag: (isqrt(n), isqrt(n)**2 == n)."""
    if n < 0:
        raise ValueError(f"square root of negative integer {n}")
    root = isqrt(n)
    return root, root * root == n


def is_balancing(n: int) -> tuple[bool, int | None]:
    """Whether 8*n**2 + 1 is a perfect square; the root is the witness."""
    if n < 1:
        raise ValueError(f"argument must be >= 1, got {n}")
    root, exact = integer_sqrt(8 * n * n + 1)
    return (True, root) if exact else (False, None)


def is_cobalancing(n: int) -> tuple[bool, int | None]:
    """Whether 8*n**2 + 8*n + 1 is a perfect square; the root is the witness."""
    if n < 0:
        raise ValueError(f"argument must be >= 0, got {n}")
    root, exact = integer_sqrt(8 * n * n + 8 * n + 1)
    return (True, root) if exact else (False, None)


def check_sum_identity(n: int) -> bool:
    """True iff twice the sum of the first n-1 balancing numbers equals b[n]."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    total = sum(sequence(BALANCING, n))
    return 2 * total == term(COBALANCING, n)


def check_pell_links(n: int) -> tuple[bool, bool]:
    """Check P[2n] == 2*B[n] and P[2n+1] == B[n+1] - B[n]."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    b_n = term(BALANCING, n)
    b_next = term(BALANCING, n + 1)
    even_ok = term(PELL, 2 * n) == 2 * b_n
    odd_ok = term(PELL, 2 * n + 1) == b_next - b_n
    return even_ok, odd_ok


def _companion_power(
    r: RecurrenceSpec, k: int
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Top two rows of M**k, M = ((coeff, back, shift), (1, 0, 0), (0, 0, 1)).

    M maps (x[j], x[j-1], 1) to (x[j+1], x[j], 1), so the shift needs no
    division; the bottom row of every power is (0, 0, 1) and is left out.
    The bits of k are read from the top: each squares the power so far,
    and a set bit then multiplies by M, which costs only small-by-big
    products.
    """
    c, b, s = r.coeff, r.back, r.shift
    (p, q, u), (v, w, t) = (1, 0, 0), (0, 1, 0)
    for bit in bin(k)[2:]:
        qv, pw = q * v, p + w
        p, q, u, v, w, t = (
            p * p + qv, q * pw, p * u + q * t + u,
            v * pw, qv + w * w, v * u + w * t + t,
        )
        if bit == "1":
            p, q, u, v, w, t = c * p + b * v, c * q + b * w, c * u + b * t + s, p, q, u
    return (p, q, u), (v, w, t)


Matrix2 = tuple[tuple[int, int], tuple[int, int]]


def balancing_matrix_power(n: int) -> Matrix2:
    """n-th power of ((6, 1), (-1, 0)) by squaring, in O(log n) products.

    The base is the transpose of the balancing recurrence's companion
    block ((6, -1), (1, 0)), so the result is the transposed block of
    ``_companion_power`` and carries consecutive balancing numbers:
    ((B[n+1], B[n]), (-B[n], -B[n-1])).
    """
    if n < 1:
        raise ValueError(f"exponent must be >= 1, got {n}")
    (p, q, _), (v, w, _) = _companion_power(BALANCING.recurrence, n)
    return (p, v), (q, w)

"""Transition-matrix families with exact fraction entries.

Every family is a finite birth-death-style chain with an extra "collapse to
state 0" column: the nonzero pattern is column 0 plus a tridiagonal band.
Stationary distributions of these chains are ratios of balancing-type
numbers, which is what the rest of the package verifies.

Matrices with at most ``DENSE_LIMIT`` states are stored as dense rows;
larger ones keep only the column-0 and band diagonals.  Both stores yield
identical entries, so downstream solvers cannot tell them apart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

__all__ = [
    "ParameterError",
    "ChainFamily",
    "StochasticMatrix",
    "ValidationReport",
    "DENSE_LIMIT",
    "balancing_chain",
    "balancing_chain_q",
    "pell_ratio_chain",
    "lucas_chain",
    "lucas_chain_q",
    "lucas_cobalancing_chain",
    "truncated_infinite_chain",
    "truncated_infinite_chain_q",
    "balancing_like_chain",
    "balancing_like_chain_q",
    "build",
    "validate",
    "matrix_to_csv",
    "matrix_to_json",
    "matrix_from_json",
]

DENSE_LIMIT = 64

_KINDS_WITH_A = {"balancing-like", "balancing-like-q"}
_KINDS_WITH_Q = {"balancing-q", "lucas-q", "truncated-infinite-q", "balancing-like-q"}


class ParameterError(ValueError):
    """A family parameter is outside its documented bounds."""


@dataclass(frozen=True)
class ChainFamily:
    """A named matrix family instance: kind, size, and optional a / q."""

    kind: str
    n: int
    a: int | None = None
    q: Fraction | None = None

    @property
    def coeff(self) -> int:
        """The recurrence multiplier behind the family (6, or a)."""
        return self.a if self.a is not None else 6

    @property
    def label(self) -> str:
        parts = [f"n={self.n}"]
        if self.a is not None:
            parts.append(f"a={self.a}")
        if self.q is not None:
            parts.append(f"q={self.q}")
        return f"{self.kind}({','.join(parts)})"


def _check_n(kind: str, n: int, minimum: int) -> None:
    if n < minimum:
        raise ParameterError(f"{kind} needs n >= {minimum}, got {n}")


def _check_q(kind: str, q: Fraction, coeff: int) -> Fraction:
    q = Fraction(q)
    if not 0 < q <= Fraction(1, coeff):
        raise ParameterError(f"{kind} needs 0 < q <= 1/{coeff}, got {q}")
    return q


def _check_a(kind: str, a: int) -> None:
    if a < 2:
        raise ParameterError(f"{kind} needs a >= 2, got {a}")


def balancing_chain(n: int) -> ChainFamily:
    _check_n("balancing", n, 3)
    return ChainFamily("balancing", n)


def balancing_chain_q(n: int, q: Fraction) -> ChainFamily:
    _check_n("balancing-q", n, 3)
    return ChainFamily("balancing-q", n, q=_check_q("balancing-q", q, 6))


def pell_ratio_chain(n: int) -> ChainFamily:
    _check_n("pell-ratio", n, 3)
    return ChainFamily("pell-ratio", n)


def lucas_chain(n: int) -> ChainFamily:
    _check_n("lucas", n, 3)
    return ChainFamily("lucas", n)


def lucas_chain_q(n: int, q: Fraction) -> ChainFamily:
    _check_n("lucas-q", n, 3)
    return ChainFamily("lucas-q", n, q=_check_q("lucas-q", q, 6))


def lucas_cobalancing_chain(n: int) -> ChainFamily:
    # rows 1 and n-2 are both special, so they must not coincide
    _check_n("lucas-cobalancing", n, 4)
    return ChainFamily("lucas-cobalancing", n)


def truncated_infinite_chain(n: int) -> ChainFamily:
    _check_n("truncated-infinite", n, 3)
    return ChainFamily("truncated-infinite", n)


def truncated_infinite_chain_q(n: int, q: Fraction) -> ChainFamily:
    _check_n("truncated-infinite-q", n, 3)
    return ChainFamily(
        "truncated-infinite-q", n, q=_check_q("truncated-infinite-q", q, 6)
    )


def balancing_like_chain(n: int, a: int) -> ChainFamily:
    _check_n("balancing-like", n, 3)
    _check_a("balancing-like", a)
    return ChainFamily("balancing-like", n, a=a)


def balancing_like_chain_q(n: int, a: int, q: Fraction) -> ChainFamily:
    _check_n("balancing-like-q", n, 3)
    _check_a("balancing-like-q", a)
    return ChainFamily(
        "balancing-like-q", n, a=a, q=_check_q("balancing-like-q", q, a)
    )


def _band_slot(i: int, j: int) -> int | None:
    """Index of cell (i, j) in (col0, sub, diag, sup), or None off the pattern."""
    if j == 0:
        return 0
    slot = j - i + 2
    return slot if 1 <= slot <= 3 else None


class StochasticMatrix:
    """Square matrix of exact fractions, dense or band-compressed.

    The band store keeps column 0 plus the three band diagonals; lookups
    resolve column 0 first, so boundary rows whose band slot would collide
    with column 0 stay unambiguous.
    """

    def __init__(self) -> None:
        raise TypeError("use StochasticMatrix.from_rows or from_band")

    @classmethod
    def from_rows(
        cls, rows: list[list[Fraction]], label: str = ""
    ) -> "StochasticMatrix":
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        self = object.__new__(cls)
        self.n = n
        self.label = label
        self._rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        self._band = None
        return self

    @classmethod
    def from_band(
        cls,
        col0: list[Fraction],
        sub: list[Fraction],
        diag: list[Fraction],
        sup: list[Fraction],
        label: str = "",
    ) -> "StochasticMatrix":
        n = len(col0)
        if not (len(sub) == len(diag) == len(sup) == n):
            raise ValueError("band arrays must all have length n")
        self = object.__new__(cls)
        self.n = n
        self.label = label
        self._rows = None
        self._band = (tuple(col0), tuple(sub), tuple(diag), tuple(sup))
        return self

    @property
    def is_dense(self) -> bool:
        return self._rows is not None

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"entry ({i}, {j}) outside {self.n}x{self.n} matrix")
        if self._rows is not None:
            return self._rows[i][j]
        col0, sub, diag, sup = self._band
        if j == 0:
            return col0[i]
        if j == i - 1:
            return sub[i]
        if j == i:
            return diag[i]
        if j == i + 1:
            return sup[i]
        return Fraction(0)

    def row(self, i: int) -> tuple[Fraction, ...]:
        if self._rows is not None:
            return self._rows[i]
        row = [Fraction(0)] * self.n
        for j, value in self.nonzeros(i):
            row[j] = value
        return tuple(row)

    def rows(self) -> list[tuple[Fraction, ...]]:
        return [self.row(i) for i in range(self.n)]

    def nonzeros(self, i: int) -> list[tuple[int, Fraction]]:
        """The nonzero cells ``(j, value)`` of row ``i``, in column order.

        O(1) on the band store (column 0 wins over a colliding band slot,
        as in ``entry``), O(n) on the dense store.
        """
        if self._rows is not None:
            return [(j, x) for j, x in enumerate(self._rows[i]) if x]
        if not 0 <= i < self.n:
            raise IndexError(f"row {i} outside {self.n}x{self.n} matrix")
        col0, sub, diag, sup = self._band
        cells = [(0, col0[i])]
        if i >= 2:
            cells.append((i - 1, sub[i]))
        if i >= 1:
            cells.append((i, diag[i]))
        if i + 1 < self.n:
            cells.append((i + 1, sup[i]))
        return [(j, x) for j, x in cells if x]

    def band(self) -> tuple[tuple[Fraction, ...], ...] | None:
        """``(col0, sub, diag, sup)`` if every nonzero off column 0 lies on
        the sub-, main or superdiagonal, else None.

        O(n) on the band store, which has this shape by construction; the
        dense store is scanned once.  Slots that collide with column 0
        (``diag[0]``, ``sub[1]``) and ``sup[n-1]`` carry no entry.
        """
        if self._band is not None:
            return self._band
        zero = Fraction(0)
        arrays = [[zero] * self.n for _ in range(4)]
        for i in range(self.n):
            for j, value in self.nonzeros(i):
                slot = _band_slot(i, j)
                if slot is None:
                    return None
                arrays[slot][i] = value
        return tuple(tuple(a) for a in arrays)

    def nonzero_count(self) -> int:
        return sum(len(self.nonzeros(i)) for i in range(self.n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StochasticMatrix):
            return NotImplemented
        return self.n == other.n and all(
            self.row(i) == other.row(i) for i in range(self.n)
        )

    __hash__ = None

    def __repr__(self) -> str:
        store = "dense" if self.is_dense else "banded"
        name = self.label or "matrix"
        return f"<StochasticMatrix {name} {self.n}x{self.n} {store}>"


def _cells_balancing(n: int) -> dict[tuple[int, int], Fraction]:
    r = Fraction
    cells = {(0, 0): r(5, 6), (0, 1): r(1, 6), (1, 0): r(5, 6), (1, 2): r(1, 6)}
    for i in range(2, n - 1):
        cells[(i, 0)] = r(2, 3)
        cells[(i, i - 1)] = r(1, 6)
        cells[(i, i + 1)] = r(1, 6)
    cells[(n - 1, 0)] = r(5, 6)
    cells[(n - 1, n - 2)] = r(1, 6)
    return cells


def _cells_balancing_q(n: int, q: Fraction) -> dict[tuple[int, int], Fraction]:
    cells = {(0, 0): 1 - q, (0, 1): q, (1, 0): 5 * q, (1, 1): 1 - 6 * q, (1, 2): q}
    for i in range(2, n - 1):
        cells[(i, 0)] = 4 * q
        cells[(i, i - 1)] = q
        cells[(i, i)] = 1 - 6 * q
        cells[(i, i + 1)] = q
    cells[(n - 1, 0)] = 5 * q
    cells[(n - 1, n - 2)] = q
    cells[(n - 1, n - 1)] = 1 - 6 * q
    return cells


def _cells_pell_ratio(n: int) -> dict[tuple[int, int], Fraction]:
    r = Fraction
    cells = {(0, 0): r(5, 6), (0, 1): r(1, 6), (1, 0): r(5, 6), (1, 2): r(1, 6)}
    for i in range(2, n - 1):
        cells[(i, 0)] = r(2, 3)
        cells[(i, i - 1)] = r(1, 6)
        cells[(i, i + 1)] = r(1, 6)
    cells[(n - 1, 0)] = r(2, 3)
    cells[(n - 1, n - 2)] = r(1, 6)
    cells[(n - 1, n - 1)] = r(1, 6)
    return cells


def _cells_truncated_infinite_q(n: int, q: Fraction) -> dict[tuple[int, int], Fraction]:
    cells = _cells_balancing_q(n, q)
    # reflecting last row: the stay probability absorbs the cut-off upward move
    cells[(n - 1, 0)] = 4 * q
    cells[(n - 1, n - 2)] = q
    cells[(n - 1, n - 1)] = 1 - 5 * q
    return cells


def _cells_lucas(n: int) -> dict[tuple[int, int], Fraction]:
    r = Fraction
    cells = _cells_pell_ratio(n)
    cells[(n - 1, 0)] = r(1, 3)
    cells[(n - 1, n - 2)] = r(1, 6)
    cells[(n - 1, n - 1)] = r(1, 2)
    return cells


def _cells_lucas_q(n: int, q: Fraction) -> dict[tuple[int, int], Fraction]:
    cells = _cells_balancing_q(n, q)
    cells[(n - 1, 0)] = 2 * q
    cells[(n - 1, n - 2)] = q
    cells[(n - 1, n - 1)] = 1 - 3 * q
    return cells


def _cells_lucas_cobalancing(n: int) -> dict[tuple[int, int], Fraction]:
    r = Fraction
    cells = {(0, 0): r(5, 6), (0, 1): r(1, 6), (1, 0): r(5, 6), (1, 2): r(1, 6)}
    for i in range(2, n - 2):
        cells[(i, 0)] = r(2, 3)
        cells[(i, i - 1)] = r(1, 6)
        cells[(i, i + 1)] = r(1, 6)
    cells[(n - 2, 0)] = r(16, 21)
    cells[(n - 2, n - 3)] = r(1, 6)
    cells[(n - 2, n - 1)] = r(1, 14)
    cells[(n - 1, 0)] = r(1, 3)
    cells[(n - 1, n - 2)] = r(1, 6)
    cells[(n - 1, n - 1)] = r(1, 2)
    return cells


def _cells_balancing_like(n: int, a: int) -> dict[tuple[int, int], Fraction]:
    step = Fraction(1, a)
    edge = 1 - step
    inner = 1 - 2 * step
    cells = {(0, 0): edge, (0, 1): step, (1, 0): edge, (1, 2): step}
    for i in range(2, n - 1):
        cells[(i, 0)] = inner
        cells[(i, i - 1)] = step
        cells[(i, i + 1)] = step
    cells[(n - 1, 0)] = edge
    cells[(n - 1, n - 2)] = step
    return cells


def _cells_balancing_like_q(
    n: int, a: int, q: Fraction
) -> dict[tuple[int, int], Fraction]:
    cells = {
        (0, 0): 1 - q,
        (0, 1): q,
        (1, 0): (a - 1) * q,
        (1, 1): 1 - a * q,
        (1, 2): q,
    }
    for i in range(2, n - 1):
        cells[(i, 0)] = (a - 2) * q
        cells[(i, i - 1)] = q
        cells[(i, i)] = 1 - a * q
        cells[(i, i + 1)] = q
    cells[(n - 1, 0)] = (a - 1) * q
    cells[(n - 1, n - 2)] = q
    cells[(n - 1, n - 1)] = 1 - a * q
    return cells


_BUILDERS = {
    "balancing": lambda f: _cells_balancing(f.n),
    "balancing-q": lambda f: _cells_balancing_q(f.n, f.q),
    "pell-ratio": lambda f: _cells_pell_ratio(f.n),
    "lucas": lambda f: _cells_lucas(f.n),
    "lucas-q": lambda f: _cells_lucas_q(f.n, f.q),
    "lucas-cobalancing": lambda f: _cells_lucas_cobalancing(f.n),
    # the infinite chain truncates to exactly the pell-ratio matrix
    "truncated-infinite": lambda f: _cells_pell_ratio(f.n),
    "truncated-infinite-q": lambda f: _cells_truncated_infinite_q(f.n, f.q),
    "balancing-like": lambda f: _cells_balancing_like(f.n, f.a),
    "balancing-like-q": lambda f: _cells_balancing_like_q(f.n, f.a, f.q),
}


def build(family: ChainFamily, layout: str | None = None) -> StochasticMatrix:
    """Materialize a family instance as a StochasticMatrix.

    ``layout`` forces "dense" or "banded" storage; by default matrices up to
    DENSE_LIMIT states are dense and larger ones are band-compressed.
    """
    if family.kind not in _BUILDERS:
        raise ParameterError(f"unknown chain family {family.kind!r}")
    cells = _BUILDERS[family.kind](family)
    n = family.n
    if layout is None:
        layout = "dense" if n <= DENSE_LIMIT else "banded"
    if layout == "dense":
        rows = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), value in cells.items():
            rows[i][j] = value
        return StochasticMatrix.from_rows(rows, label=family.label)
    if layout == "banded":
        arrays = [[Fraction(0)] * n for _ in range(4)]
        for (i, j), value in cells.items():
            slot = _band_slot(i, j)
            if slot is None:
                raise ParameterError(
                    f"cell ({i}, {j}) falls outside the column-0 + band pattern"
                )
            arrays[slot][i] = value
        return StochasticMatrix.from_band(*arrays, label=family.label)
    raise ParameterError(f"unknown layout {layout!r}")


@dataclass
class ValidationReport:
    """Outcome of the stochasticity and ergodicity checks on a matrix."""

    n: int
    negative_entries: list[tuple[int, int]]
    bad_row_sums: list[tuple[int, Fraction]]
    unreachable: list[int]
    non_returning: list[int]
    period: int | None
    aperiodic: bool | None

    @property
    def irreducible(self) -> bool:
        return not self.unreachable and not self.non_returning

    @property
    def ok(self) -> bool:
        return (
            not self.negative_entries
            and not self.bad_row_sums
            and self.irreducible
            and self.aperiodic is True
        )


def validate(m: StochasticMatrix) -> ValidationReport:
    """Check nonnegativity, exact row sums, irreducibility, aperiodicity.

    Walks only the nonzero cells of each row, so it is O(nnz) on the band
    store.
    """
    n = m.n
    negative: list[tuple[int, int]] = []
    bad_sums: list[tuple[int, Fraction]] = []
    adjacency: list[list[int]] = []
    reverse: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        targets = []
        total = Fraction(0)
        for j, value in m.nonzeros(i):
            total += value
            if value < 0:
                negative.append((i, j))
            else:
                targets.append(j)
                reverse[j].append(i)
        adjacency.append(targets)
        if total != 1:
            bad_sums.append((i, total))

    def reach(adj: list[list[int]]) -> tuple[set[int], dict[int, int]]:
        seen = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen[v] = seen[u] + 1
                        nxt.append(v)
            frontier = nxt
        return set(seen), seen

    forward, depth = reach(adjacency)
    backward, _ = reach(reverse)
    unreachable = sorted(set(range(n)) - forward)
    non_returning = sorted(set(range(n)) - backward)

    period: int | None = None
    aperiodic: bool | None = None
    if not unreachable and not non_returning:
        g = 0
        for u in range(n):
            for v in adjacency[u]:
                g = gcd(g, depth[u] + 1 - depth[v])
        period = abs(g)
        aperiodic = period == 1
    return ValidationReport(
        n=n,
        negative_entries=negative,
        bad_row_sums=bad_sums,
        unreachable=unreachable,
        non_returning=non_returning,
        period=period,
        aperiodic=aperiodic,
    )


def matrix_to_csv(m: StochasticMatrix) -> str:
    """Row-major CSV of reduced fraction strings, one matrix row per line."""
    return "\n".join(",".join(str(x) for x in m.row(i)) for i in range(m.n))


def matrix_to_json(m: StochasticMatrix) -> str:
    payload = {
        "n": m.n,
        "family": m.label,
        "rows": [[str(x) for x in m.row(i)] for i in range(m.n)],
    }
    return json.dumps(payload)


def matrix_from_json(text: str) -> StochasticMatrix:
    payload = json.loads(text)
    n = payload["n"]
    rows = [[Fraction(cell) for cell in row] for row in payload["rows"]]
    if len(rows) != n:
        raise ValueError(f"expected {n} rows, found {len(rows)}")
    return StochasticMatrix.from_rows(rows, label=payload.get("family", ""))

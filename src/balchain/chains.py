"""Transition-matrix families with exact fraction entries.

Every family is a finite birth-death-style chain with an extra "collapse to
state 0" column: the nonzero pattern is column 0 plus a tridiagonal band.
Stationary distributions of these chains are ratios of balancing-type
numbers, which is what the rest of the package verifies.

All kinds share one shape, built by ``_cells`` from a multiplier ``a`` (6
unless the kind takes one), a step probability ``q`` and a boundary that
rewrites the last rows; a q-free kind is its q-family at ``q = 1/a``.
Everything else the package knows about a kind (size minimum, parameters,
closed form, note) is its row of ``KINDS``, so adding a family means adding
one registry row.  ``ChainFamily`` is the one constructor: it checks every
instance against its row.

A matrix keeps the nonzero cells of each row in column order, so walking
it is O(nnz) whether it was built from a family or read from dense rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

__all__ = [
    "ParameterError",
    "ChainFamily",
    "FamilyKind",
    "KINDS",
    "StochasticMatrix",
    "ValidationReport",
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

_ZERO = Fraction(0)


class ParameterError(ValueError):
    """A family parameter is outside its documented bounds."""


@dataclass(frozen=True)
class ChainFamily:
    """A named matrix family instance: kind, size, and optional a / q.

    Construction checks the instance against its ``KINDS`` row, so every
    family that reaches ``build`` is valid: an unknown kind, an n below the
    minimum, a missing or out-of-range a or q, and an a or q the kind does
    not take all raise ParameterError.
    """

    kind: str
    n: int
    a: int | None = None
    q: Fraction | None = None

    def __post_init__(self) -> None:
        kind, a, q = self.kind, self.a, self.q
        spec = KINDS.get(kind)
        if spec is None:
            raise ParameterError(f"unknown chain family {kind!r}")
        if self.n < spec.min_n:
            raise ParameterError(f"{kind} needs n >= {spec.min_n}, got {self.n}")
        if not spec.takes_a:
            if a is not None:
                raise ParameterError(f"{kind} takes no multiplier a, got {a}")
        elif a is None:
            raise ParameterError(f"{kind} needs the multiplier a")
        elif a < 2:
            raise ParameterError(f"{kind} needs a >= 2, got {a}")
        if not spec.takes_q:
            if q is not None:
                raise ParameterError(f"{kind} takes no step probability q, got {q}")
        elif q is None:
            raise ParameterError(f"{kind} needs the step probability q")
        else:
            q = Fraction(q)
            if not 0 < q <= Fraction(1, self.coeff):
                raise ParameterError(f"{kind} needs 0 < q <= 1/{self.coeff}, got {q}")
            object.__setattr__(self, "q", q)

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


@dataclass(frozen=True)
class FamilyKind:
    """One registered chain family.

    ``boundary`` names how ``_cells`` rewrites the last rows: "edge",
    "reflect", "lucas" or "lucas-cobalancing".  ``x0`` fixes the closed
    form: pi[i] is x(n-i)/sum(x(1)..x(n)) for the recurrence
    x(k+1) = coeff*x(k) - x(k-1) with x(1) = 1 and x(0) = x0.  ``note`` is
    the remark verify reports with every instance.
    """

    name: str
    boundary: str
    min_n: int
    takes_a: bool
    takes_q: bool
    x0: int
    note: str


_REVERSED_INDEX_NOTE = (
    "entries are proportional to the reversed sequence ({first}..{last}); the "
    "forward-indexed variant {variant} contradicts the boundary balance "
    "equation pi[n-2] = {ratio}*pi[n-1]"
)


def _same_as(base: str, bound: str) -> str:
    return f"same stationary vector as the q-free {base} chain for every 0 < q <= {bound}"


KINDS = {
    kind.name: kind
    for kind in (
        FamilyKind(
            "balancing", "edge", 3, False, False, 0,
            "entries 2*B(n-i)/b(n+1): reversed balancing numbers over half the "
            "(n+1)-st cobalancing number; the constant-in-i rendering 2*P(2n)/sum "
            "only matches entry 0",
        ),
        FamilyKind("balancing-q", "edge", 3, False, True, 0, _same_as("balancing", "1/6")),
        FamilyKind(
            "pell-ratio", "reflect", 3, False, False, 1,
            _REVERSED_INDEX_NOTE.format(
                first="B(n)-B(n-1)",
                last="B(1)-B(0)",
                variant="(B(n+i)-B(n+i-1))/B(n)",
                ratio=5,
            )
            + "; the constant-in-i rendering 2*P(2n-1)/P(2n) only matches entry 0",
        ),
        FamilyKind(
            "lucas", "lucas", 3, False, False, 3,
            _REVERSED_INDEX_NOTE.format(
                first="C(n-1)", last="C(0)", variant="C(n-i)/sum(C(1)..C(n))", ratio=3
            ),
        ),
        FamilyKind("lucas-q", "lucas", 3, False, True, 3, _same_as("lucas", "1/6")),
        # rows 1 and n-2 are both special, so they must not coincide
        FamilyKind(
            "lucas-cobalancing", "lucas-cobalancing", 4, False, False, -1,
            _REVERSED_INDEX_NOTE.format(
                first="c(n-1)", last="c(0)", variant="c(n-i)/sum(c(1)..c(n))", ratio=7
            ),
        ),
        # the infinite chain truncates to exactly the pell-ratio matrix
        FamilyKind(
            "truncated-infinite", "reflect", 3, False, False, 1,
            "finite reflection of the infinite-state chain; identical matrix and "
            "vector to pell-ratio",
        ),
        FamilyKind(
            "truncated-infinite-q", "reflect", 3, False, True, 1,
            _same_as("truncated", "1/6"),
        ),
        FamilyKind(
            "balancing-like", "edge", 3, True, False, 0,
            "entries x(n-i)/sum(x(1)..x(n)) for the order-a sequence",
        ),
        FamilyKind(
            "balancing-like-q", "edge", 3, True, True, 0, _same_as("balancing-like", "1/a")
        ),
    )
}


def balancing_chain(n: int) -> ChainFamily:
    return ChainFamily("balancing", n)


def balancing_chain_q(n: int, q: Fraction) -> ChainFamily:
    return ChainFamily("balancing-q", n, q=q)


def pell_ratio_chain(n: int) -> ChainFamily:
    return ChainFamily("pell-ratio", n)


def lucas_chain(n: int) -> ChainFamily:
    return ChainFamily("lucas", n)


def lucas_chain_q(n: int, q: Fraction) -> ChainFamily:
    return ChainFamily("lucas-q", n, q=q)


def lucas_cobalancing_chain(n: int) -> ChainFamily:
    return ChainFamily("lucas-cobalancing", n)


def truncated_infinite_chain(n: int) -> ChainFamily:
    return ChainFamily("truncated-infinite", n)


def truncated_infinite_chain_q(n: int, q: Fraction) -> ChainFamily:
    return ChainFamily("truncated-infinite-q", n, q=q)


def balancing_like_chain(n: int, a: int) -> ChainFamily:
    return ChainFamily("balancing-like", n, a)


def balancing_like_chain_q(n: int, a: int, q: Fraction) -> ChainFamily:
    return ChainFamily("balancing-like-q", n, a, q)


def _nonzero(cells) -> dict[int, Fraction]:
    out = {}
    for j, x in cells:
        if type(x) is not Fraction:
            x = Fraction(x)
        if x:
            out[j] = x
    return out


class StochasticMatrix:
    """Square matrix of exact fractions, kept as the nonzero cells of each
    row in column order."""

    def __init__(self) -> None:
        raise TypeError("use StochasticMatrix.from_rows or from_cells")

    @classmethod
    def from_rows(
        cls, rows: list[list[Fraction]], label: str = ""
    ) -> "StochasticMatrix":
        """Matrix from dense rows."""
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        return cls._new(n, [enumerate(row) for row in rows], label)

    @classmethod
    def from_cells(
        cls, n: int, cells: dict[tuple[int, int], Fraction], label: str = ""
    ) -> "StochasticMatrix":
        """Size-n matrix from a ``{(i, j): value}`` map; absent cells are 0."""
        rows: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
        for (i, j), x in cells.items():
            if not (0 <= i < n and 0 <= j < n):
                raise IndexError(f"cell ({i}, {j}) outside {n}x{n} matrix")
            rows[i].append((j, x))
        return cls._new(n, [sorted(row) for row in rows], label)

    @classmethod
    def _new(cls, n: int, rows: list, label: str) -> "StochasticMatrix":
        """Store rows of ``(j, value)`` pairs in column order, zeros left out."""
        self = object.__new__(cls)
        self.n = n
        self.label = label
        self._rows = tuple(_nonzero(row) for row in rows)
        return self

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"entry ({i}, {j}) outside {self.n}x{self.n} matrix")
        return self._rows[i].get(j, _ZERO)

    def row(self, i: int) -> tuple[Fraction, ...]:
        row = [_ZERO] * self.n
        for j, x in self._rows[i].items():
            row[j] = x
        return tuple(row)

    def rows(self) -> list[tuple[Fraction, ...]]:
        return [self.row(i) for i in range(self.n)]

    def nonzeros(self, i: int) -> list[tuple[int, Fraction]]:
        """The nonzero cells ``(j, value)`` of row ``i``, in column order."""
        return list(self._rows[i].items())

    def band(self) -> tuple[tuple[Fraction, ...], ...] | None:
        """``(col0, sub, diag, sup)`` if every nonzero off column 0 lies on
        the sub-, main or superdiagonal, else None.

        Column 0 takes its cells first, so ``diag[0]``, ``sub[1]`` and
        ``sup[n-1]`` are always zero.
        """
        arrays = [[_ZERO] * self.n for _ in range(4)]
        for i, cells in enumerate(self._rows):
            for j, x in cells.items():
                if j == 0:
                    slot = 0
                elif abs(j - i) <= 1:
                    slot = j - i + 2
                else:
                    return None
                arrays[slot][i] = x
        return tuple(tuple(a) for a in arrays)

    def nonzero_count(self) -> int:
        return sum(len(cells) for cells in self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StochasticMatrix):
            return NotImplemented
        return self.n == other.n and self._rows == other._rows

    __hash__ = None

    def __repr__(self) -> str:
        name = self.label or "matrix"
        return f"<StochasticMatrix {name} {self.n}x{self.n} nnz={self.nonzero_count()}>"


def _cells(n: int, a: int, q: Fraction, boundary: str) -> dict[tuple[int, int], Fraction]:
    """Cells of the size-n chain with multiplier a and step q.

    State 0 moves up with probability q and otherwise stays.  Every other
    state steps down and up with probability q each, stays with 1 - a*q
    and collapses to state 0 with the remaining (a - 2)*q; state 1's step
    down is one more collapse.  The last state has no step up, and the
    boundary says where that q goes.  At q = 1/a the stay cells are 0.
    """
    collapse, stay = (a - 2) * q, 1 - a * q
    cells = {(0, 0): 1 - q, (0, 1): q}
    for i in range(1, n):
        cells[i, 0] = collapse
        cells[i, i - 1] = q
        cells[i, i] = stay
        if i + 1 < n:
            cells[i, i + 1] = q
    cells[1, 0] = collapse + q
    last = n - 1
    if boundary == "edge":  # to state 0
        cells[last, 0] += q
    elif boundary == "reflect":  # it stays
        cells[last, last] += q
    else:  # it stays, and so does 2q of the collapse (a = 6)
        if boundary == "lucas-cobalancing":
            # the step up into the last state shrinks to 3q/7
            cells[last - 1, last] = 3 * q / 7
            cells[last - 1, 0] += 4 * q / 7
        cells[last, 0] = 2 * q
        cells[last, last] = 1 - 3 * q
    return cells


def build(family: ChainFamily) -> StochasticMatrix:
    """Materialize a family instance as a StochasticMatrix."""
    spec = KINDS[family.kind]
    coeff = family.coeff
    q = family.q if spec.takes_q else Fraction(1, coeff)
    cells = _cells(family.n, coeff, q, spec.boundary)
    return StochasticMatrix.from_cells(family.n, cells, label=family.label)


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

    Walks only the nonzero cells of each row, so it is O(nnz).
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


def _parse_cell(cell: object) -> Fraction:
    if type(cell) is int:
        return Fraction(cell)
    if isinstance(cell, str):
        try:
            return Fraction(cell)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParameterError(
        f"matrix cell {cell!r} is neither an integer nor a string holding an "
        "exact number like \"1/6\""
    )


def matrix_from_json(text: str) -> StochasticMatrix:
    """Read a ``matrix_to_json`` payload: ``{"n": n, "rows": [[cell, ...], ...]}``.

    A cell is a JSON integer or a string that parses as an exact fraction
    ("num/den", an integer or a decimal).  JSON floats are rejected because
    they are binary approximations; every malformed payload raises
    ParameterError.  Each distinct cell string is parsed once per call.
    """
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ParameterError(f"matrix file is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ParameterError("matrix file must hold a JSON object")
    n, rows, label = payload.get("n"), payload.get("rows"), payload.get("family", "")
    if type(n) is not int or n < 1:
        raise ParameterError(f'matrix "n" must be a positive integer, got {n!r}')
    square = isinstance(rows, list) and len(rows) == n
    if not (square and all(isinstance(row, list) and len(row) == n for row in rows)):
        raise ParameterError(f'matrix "rows" must be {n} lists of {n} cells')
    if not isinstance(label, str):
        raise ParameterError(f'matrix "family" must be a string, got {label!r}')
    parsed: dict[str, Fraction] = {}
    dense = []
    for row in rows:
        values = []
        for cell in row:
            # only strings are memoised: 1, 1.0 and True are equal dict keys
            if type(cell) is str:
                value = parsed.get(cell)
                if value is None:
                    value = parsed[cell] = _parse_cell(cell)
            else:
                value = _parse_cell(cell)
            values.append(value)
        dense.append(values)
    return StochasticMatrix.from_rows(dense, label=label)

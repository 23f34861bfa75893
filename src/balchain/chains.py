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

A matrix is one denominator plus int numerators of each row's nonzero
cells, in lowest terms, so equal matrices have equal stores; the solvers
read those ints, and walking a matrix is O(nnz).
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .sequences import _is_int

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
    not take all raise ParameterError.  So do an n or a that is not an int
    (bool included) and a float q, which is a binary approximation.
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
        if not _is_int(self.n):
            raise ParameterError(f"{kind} needs an integer n, got {self.n!r}")
        if self.n < spec.min_n:
            raise ParameterError(f"{kind} needs n >= {spec.min_n}, got {self.n}")
        if not spec.takes_a:
            if a is not None:
                raise ParameterError(f"{kind} takes no multiplier a, got {a}")
        elif a is None:
            raise ParameterError(f"{kind} needs the multiplier a")
        elif not _is_int(a):
            raise ParameterError(f"{kind} needs an integer a, got {a!r}")
        elif a < 2:
            raise ParameterError(f"{kind} needs a >= 2, got {a}")
        if not spec.takes_q:
            if q is not None:
                raise ParameterError(f"{kind} takes no step probability q, got {q}")
        elif q is None:
            raise ParameterError(f"{kind} needs the step probability q")
        elif isinstance(q, float):
            raise ParameterError(
                f"{kind} needs an exact q, got the float {q!r}; pass a Fraction"
            )
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


def _require_exact(cells: Iterable[object]) -> None:
    """Raise ValueError at the first float or bool cell: a float is a
    binary approximation, as it is for ``ChainFamily``'s q and for a JSON
    matrix cell, and a bool is no number."""
    for x in cells:
        if isinstance(x, (float, bool)):
            raise ValueError(
                f"matrix cell {x!r} is a {type(x).__name__}; pass an int or a Fraction"
            )


class StochasticMatrix:
    """Square matrix of exact fractions, kept fraction-free: a denominator
    ``den``, the lcm of the reduced cells' denominators, and ``numerators``,
    each row's nonzero cells as ``{j: int}`` in column order.  ``entry``,
    ``row``, ``rows`` and ``nonzeros`` return reduced Fractions."""

    def __init__(self) -> None:
        raise TypeError("use StochasticMatrix.from_rows or from_cells")

    @classmethod
    def from_rows(
        cls, rows: list[list[Fraction]], label: str = ""
    ) -> "StochasticMatrix":
        """Matrix from dense rows of exact numbers (ints, Fractions)."""
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        _require_exact(x for row in rows for x in row)
        return cls._exact(n, [enumerate(row) for row in rows], label)

    @classmethod
    def from_cells(
        cls, n: int, cells: dict[tuple[int, int], Fraction], label: str = ""
    ) -> "StochasticMatrix":
        """Size-n matrix from a ``{(i, j): value}`` map of exact numbers;
        absent cells are 0."""
        _require_exact(cells.values())
        rows: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
        for (i, j), x in cells.items():
            if not (0 <= i < n and 0 <= j < n):
                raise IndexError(f"cell ({i}, {j}) outside {n}x{n} matrix")
            rows[i].append((j, x))
        return cls._exact(n, [sorted(row) for row in rows], label)

    @classmethod
    def _exact(cls, n: int, rows: list, label: str) -> "StochasticMatrix":
        """Rows of ``(j, exact number)`` pairs in column order, zeros
        dropped and put over ``den``, the lcm of the reduced denominators.

        That is already in lowest terms: if p**e exactly divides ``den``,
        it divides some cell's denominator, so p does not divide that
        cell's numerator times ``den // denominator``.  No gcd is needed.
        """
        rows = [
            [(j, x if type(x) is Fraction else Fraction(x)) for j, x in row if x] for row in rows
        ]
        den = lcm(*{x.denominator for row in rows for _, x in row})
        ints = [{j: x.numerator * (den // x.denominator) for j, x in row} for row in rows]
        return cls._new(n, den, ints, label)

    @classmethod
    def _lowest_terms(cls, n: int, den: int, rows: list, label: str) -> "StochasticMatrix":
        """Matrix from rows of ``(j, int)`` pairs over ``den`` in column
        order that may share a factor: zeros are dropped, and ``den`` and
        the numerators are divided by their gcd, which makes ``den`` the
        lcm of the reduced cells' denominators."""
        g = den
        for row in rows:  # most matrices reach 1 within a row or two
            g = gcd(g, *(v for _, v in row))
            if g == 1:
                break
        ints = [{j: v // g for j, v in row if v} for row in rows]
        return cls._new(n, den // g, ints, label)

    @classmethod
    def _new(cls, n: int, den: int, rows: list, label: str) -> "StochasticMatrix":
        """The constructor behind every matrix: ``rows`` are ``{j: int}``
        maps of nonzero numerators in column order, in lowest terms with
        ``den``."""
        if n < 1:
            raise ValueError("matrix has no states")
        self = object.__new__(cls)
        self.n, self.label, self.den = n, label, den
        self.numerators = tuple(rows)
        return self

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"entry ({i}, {j}) outside {self.n}x{self.n} matrix")
        v = self.numerators[i].get(j)
        return Fraction(v, self.den) if v else _ZERO

    def row(self, i: int) -> tuple[Fraction, ...]:
        row = [_ZERO] * self.n
        for j, x in self.nonzeros(i):
            row[j] = x
        return tuple(row)

    def rows(self) -> list[tuple[Fraction, ...]]:
        return [self.row(i) for i in range(self.n)]

    def nonzeros(self, i: int) -> list[tuple[int, Fraction]]:
        """The nonzero cells ``(j, value)`` of row ``i``, in column order."""
        return [(j, Fraction(v, self.den)) for j, v in self.numerators[i].items()]

    def nonzero_count(self) -> int:
        return sum(len(cells) for cells in self.numerators)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StochasticMatrix):
            return NotImplemented
        return (self.n, self.den, self.numerators) == (other.n, other.den, other.numerators)

    __hash__ = None

    def __repr__(self) -> str:
        name = self.label or "matrix"
        return f"<StochasticMatrix {name} {self.n}x{self.n} nnz={self.nonzero_count()}>"


def _cells(n: int, a: int, q: int, one: int, boundary: str) -> list[dict[int, int]]:
    """Rows of ``{j: cell}``, in column order, of the size-n chain with
    multiplier a and step q, in multiples of the unit ``one``.

    State 0 moves up with probability q and otherwise stays.  Every other
    state steps down and up with probability q each, stays with 1 - a*q
    and collapses to state 0 with the remaining (a - 2)*q; state 1's step
    down is one more collapse.  The last state has no step up, and the
    boundary says where that q goes.  At q = 1/a the stay cells are 0.
    ``build`` passes ints with q a multiple of 7, so 3q/7 is whole.
    """
    collapse, stay = (a - 2) * q, one - a * q
    rows = [{0: one - q, 1: q}] + [{} for _ in range(1, n)]
    for i in range(1, n):
        rows[i][0] = collapse
        rows[i][i - 1] = q
        rows[i][i] = stay
        if i + 1 < n:
            rows[i][i + 1] = q
    rows[1][0] = collapse + q
    last = rows[n - 1]
    if boundary == "edge":  # to state 0
        last[0] += q
    elif boundary == "reflect":  # it stays
        last[n - 1] += q
    else:  # it stays, and so does 2q of the collapse (a = 6)
        if boundary == "lucas-cobalancing":
            # the step up into the last state shrinks to 3q/7
            rows[n - 2][n - 1] = 3 * q // 7
            rows[n - 2][0] += 4 * q // 7
        last[0] = 2 * q
        last[n - 1] = one - 3 * q
    return rows


def build(family: ChainFamily) -> StochasticMatrix:
    """Materialize a family instance as a StochasticMatrix.

    The cells are int numerators over 7 times q's denominator, which
    ``_lowest_terms`` reduces to the matrix's ``den``.
    """
    spec = KINDS[family.kind]
    coeff = family.coeff
    q = family.q if spec.takes_q else Fraction(1, coeff)
    den = 7 * q.denominator
    rows = _cells(family.n, coeff, 7 * q.numerator, den, spec.boundary)
    return StochasticMatrix._lowest_terms(
        family.n, den, [row.items() for row in rows], family.label
    )


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

    Walks only the nonzero cells of each row, so it is O(nnz); a row sums
    to 1 when its int numerators sum to ``den``.
    """
    n = m.n
    negative: list[tuple[int, int]] = []
    bad_sums: list[tuple[int, Fraction]] = []
    adjacency: list[list[int]] = []
    reverse: list[list[int]] = [[] for _ in range(n)]
    for i, cells in enumerate(m.numerators):
        targets = []
        for j, v in cells.items():
            if v < 0:
                negative.append((i, j))
            else:
                targets.append(j)
                reverse[j].append(i)
        adjacency.append(targets)
        total = sum(cells.values())
        if total != m.den:
            bad_sums.append((i, Fraction(total, m.den)))

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


def _cell_strings(m: StochasticMatrix) -> list[list[str]]:
    """Each row's cells as reduced fraction strings, zeros as "0".  Only
    the stored cells are formatted, once per distinct numerator."""
    text: dict[int, str] = {}
    out = []
    for cells in m.numerators:
        row = ["0"] * m.n
        for j, v in cells.items():
            s = text.get(v)
            if s is None:
                s = text[v] = str(Fraction(v, m.den))
            row[j] = s
        out.append(row)
    return out


def matrix_to_csv(m: StochasticMatrix) -> str:
    """Row-major CSV of reduced fraction strings, one matrix row per line."""
    return "\n".join(",".join(row) for row in _cell_strings(m))


def matrix_to_json(m: StochasticMatrix) -> str:
    """``json.dumps`` of ``{"n", "family", "rows"}`` with the cells as
    strings, byte for byte; a cell string holds only digits, "-" and "/",
    so it is quoted without escapes."""
    rows = ", ".join('["' + '", "'.join(row) + '"]' for row in _cell_strings(m))
    return f'{{"n": {m.n}, "family": {json.dumps(m.label)}, "rows": [{rows}]}}'


# Fraction turns a cell string's decimal exponent into 10**exponent, even
# for a zero: "0e4000000" takes about 2 s.  A magnitude past this budget
# is rejected unparsed; 10**1000 costs some 10 us.
_MAX_EXPONENT = 1000


def _parse_cell(cell: object) -> Fraction:
    if type(cell) is int:
        return Fraction(cell)
    if isinstance(cell, str):
        # a string that is no number at all is left for Fraction to reject;
        # the length test keeps int() off a digit string past its own limit
        exponent = cell.lower().partition("e")[2].strip().lstrip("+-")
        digits = exponent.replace("_", "").lstrip("0")
        if digits.isdecimal() and (
            len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT
        ):
            raise ParameterError(
                f"matrix cell {cell!r} has a decimal exponent past "
                f"+-{_MAX_EXPONENT}"
            )
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
    ParameterError.  Each distinct cell string is parsed once per call, a
    "0" not at all, and only the nonzero cells reach the exact store.
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
    sparse = []
    for row in rows:
        cells = []
        for j, cell in enumerate(row):
            if cell == "0":  # how matrix_to_json writes a zero
                continue
            # only strings are memoised: 1, 1.0 and True are equal dict keys
            if type(cell) is str:
                value = parsed.get(cell)
                if value is None:
                    value = parsed[cell] = _parse_cell(cell)
            else:
                value = _parse_cell(cell)
            cells.append((j, value))
        sparse.append(cells)
    return StochasticMatrix._exact(n, sparse, label)

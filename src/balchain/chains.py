"""Transition-matrix families with exact fraction entries.

Every family is a finite birth-death-style chain with an extra "collapse to
state 0" column: the nonzero pattern is column 0 plus a tridiagonal band.
Stationary distributions of these chains are ratios of balancing-type
numbers, which is what the rest of the package verifies.

All kinds share one shape, built by ``_cells`` from a multiplier ``a`` (6
unless the kind takes one), a step probability ``q`` and a boundary that
sets the last row's collapse: each row lists its moves, and its stay cell
is what they leave.  A q-free kind is its q-family at ``q = 1/a``.
Everything else the package knows about a kind (size minimum, parameters,
closed form, note) is its row of ``KINDS``, so adding a family means adding
one registry row.  ``ChainFamily`` is the one constructor: it checks every
instance against its row.

A matrix is stochastic, checked once where outside cells enter, and is
one denominator plus int numerators of each row's nonzero cells, in
lowest terms, so equal matrices have equal stores; ``build`` writes
``_cells``'s rows as the store, the solvers read those ints, and walking
a matrix is O(nnz).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
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
_ZERO_TEXT = "0"


class ParameterError(ValueError):
    """A family parameter or an input value is outside its documented bounds."""


# Fraction turns a string's decimal exponent into 10**exponent, even for a
# zero: "0e4000000" takes about 2 s.  A magnitude past this budget is
# rejected unparsed; 10**1000 costs some 10 us.
_MAX_EXPONENT = 1000


def _exact_number(value: object, subject: str) -> Fraction:
    """The one rule for an exact number: an int (not a bool), a Fraction,
    or a string that ``Fraction`` parses with a decimal exponent within
    +-_MAX_EXPONENT, returned as a Fraction.  Anything else (a float is a
    binary approximation) raises ParameterError "<subject> <value!r>: why".
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str):
        raise ParameterError(
            f'{subject} {value!r}: an exact number is an int, a Fraction or a string like "1/6"'
        )
    # the length test keeps int() off a digit string past its own limit
    exponent = value.lower().partition("e")[2].strip().lstrip("+-")
    digits = exponent.replace("_", "").lstrip("0")
    if digits.isdecimal() and (len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT):
        raise ParameterError(f"{subject} {value!r}: decimal exponent past +-{_MAX_EXPONENT}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"{subject} {value!r}: {exc}") from None


@dataclass(frozen=True)
class ChainFamily:
    """A named matrix family instance: kind, size, and optional a / q.

    Construction checks the instance against its ``KINDS`` row, so every
    family that reaches ``build`` is valid: an unknown kind, an n below the
    minimum, a missing or out-of-range a or q, and an a or q the kind does
    not take all raise ParameterError.  So do an n or a that is not an int
    (bool included) and a q that is not an exact number (``_exact_number``).
    """

    kind: str
    n: int
    a: int | None = None
    q: Fraction | None = None

    def __post_init__(self) -> None:
        kind, a, q = self.kind, self.a, self.q
        spec = KINDS.get(kind) if isinstance(kind, str) else None
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
        else:
            q = _exact_number(q, f"{kind} needs an exact q, got")
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


class StochasticMatrix:
    """Square stochastic matrix of exact fractions: every cell is >= 0 and
    every row sums to exactly 1.  It is kept fraction-free: a denominator
    ``den``, the lcm of the reduced cells' denominators, and ``numerators``,
    each row's nonzero cells as ``{j: int}`` in column order, positive ints
    that sum to ``den``.  ``entry``, ``row``, ``rows`` and ``nonzeros``
    return reduced Fractions."""

    def __init__(self) -> None:
        raise TypeError("use StochasticMatrix.from_rows or from_cells")

    @classmethod
    def from_rows(cls, rows: list[list[Fraction]], label: str = "") -> "StochasticMatrix":
        """Matrix from n rows of n exact numbers (``_exact_number``), the
        rows and each row a list or a tuple; ``_exact`` refuses a matrix
        that is not stochastic."""
        if not isinstance(rows, (list, tuple)):
            raise ParameterError(f'matrix "rows" must be a list of rows, got {type(rows).__name__}')
        n = len(rows)
        if not all(isinstance(row, (list, tuple)) and len(row) == n for row in rows):
            raise ParameterError(f'matrix "rows" must be {n} lists of {n} cells')
        return cls._exact(n, [enumerate(row) for row in rows], label)

    @classmethod
    def from_cells(
        cls, n: int, cells: dict[tuple[int, int], Fraction], label: str = ""
    ) -> "StochasticMatrix":
        """Size-n matrix from a ``{(i, j): value}`` map of exact numbers
        (``_exact_number``); absent cells are 0.  n is an int (not a bool),
        and each key a pair of ints in 0..n-1; ``_exact`` refuses a matrix
        that is not stochastic."""
        if not _is_int(n):
            raise ParameterError(f"matrix size n must be an integer, got {n!r}")
        if not isinstance(cells, dict):
            raise ParameterError(f"matrix cells must be a dict, got {type(cells).__name__}")
        rows: list[list[tuple[int, object]]] = [[] for _ in range(n)]
        for key, x in cells.items():
            i, j = key if type(key) is tuple and len(key) == 2 else (None, None)
            if not (_is_int(i) and _is_int(j) and 0 <= i < n and 0 <= j < n):
                raise ParameterError(f"matrix cell key {key!r}: not a pair of ints in 0..{n - 1}")
            rows[i].append((j, x))
        return cls._exact(n, [sorted(row) for row in rows], label)

    @classmethod
    def _exact(cls, n: int, rows: list, label: str) -> "StochasticMatrix":
        """The one loop that reads matrix cells, rows of ``(j, exact number)``
        pairs in column order: ``_exact_number`` checks each, a string once;
        the nonzeros go over ``den``, the lcm of the reduced denominators,
        which is already in lowest terms: if p**e exactly divides ``den``,
        it divides some cell's denominator, so p does not divide that
        cell's numerator times ``den // denominator``.  No gcd is needed.
        Once every cell is parsed, the first negative cell in row-major
        order, and then the first row whose numerators do not sum to
        ``den``, raises ParameterError, so every matrix is stochastic.  A
        label that is not a str raises it first, as ``matrix_from_json``
        would refuse ``matrix_to_json``'s output.
        """
        _require_label(label)
        parsed: dict[str, Fraction] = {}
        exact = []
        for row in rows:
            cells = []
            for j, x in row:
                # json.loads gives CPython's 1-char singleton "0"; other "0"s parse once
                if x is _ZERO_TEXT:
                    continue
                if type(x) is str:  # no dict key: 1, 1.0 and True are equal
                    value = parsed.get(x)
                    if value is None:
                        value = parsed[x] = _exact_number(x, "matrix cell")
                else:
                    value = _exact_number(x, "matrix cell")
                if value:
                    cells.append((j, value))
            exact.append(cells)
        den = lcm(*{x.denominator for row in exact for _, x in row})
        ints = [{j: x.numerator * (den // x.denominator) for j, x in row} for row in exact]
        for i, row in enumerate(ints):
            for j, v in row.items():
                if v < 0:
                    raise ParameterError(f"matrix entry ({i}, {j}) is negative: {Fraction(v, den)}")
        for i, row in enumerate(ints):
            if (total := sum(row.values())) != den:
                raise ParameterError(f"matrix row {i} sums to {Fraction(total, den)}, not 1")
        return cls._new(n, den, ints, label)

    @classmethod
    def _lowest_terms(cls, n: int, den: int, rows: list, label: str) -> "StochasticMatrix":
        """Matrix from ``n_step``'s rows of nonzero ``(j, int)`` pairs over
        ``den``, in column order, which may share a factor: dividing all by
        their gcd makes ``den`` the lcm of the reduced denominators."""
        g = den
        for row in rows:  # most matrices reach 1 within a row or two
            g = gcd(g, *(v for _, v in row))
            if g == 1:
                break
        ints = [{j: v // g for j, v in row} for row in rows]
        return cls._new(n, den // g, ints, label)

    @classmethod
    def _new(cls, n: int, den: int, rows: list, label: str) -> "StochasticMatrix":
        """The constructor behind every matrix: ``rows`` are ``{j: int}``
        maps of positive numerators in column order that sum to ``den``, in
        lowest terms with it.  Nothing is checked: ``build`` and ``n_step``
        are stochastic by construction, and ``_exact`` checks the rest."""
        if n < 1:
            raise ValueError("matrix has no states")
        self = object.__new__(cls)
        self.n, self.label, self.den = n, label, den
        self.numerators = tuple(rows)
        return self

    def _state(self, i: object) -> int:
        """``i`` if it is an int, not a bool, in 0..n-1; else IndexError."""
        if _is_int(i) and 0 <= i < self.n:
            return i
        raise IndexError(f"index {i!r} is not a state of the {self.n}x{self.n} matrix")

    def entry(self, i: int, j: int) -> Fraction:
        v = self.numerators[self._state(i)].get(self._state(j))
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
        return [(j, Fraction(v, self.den)) for j, v in self.numerators[self._state(i)].items()]

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


def _require_family(family: object) -> None:
    """The public entry points' rule for a family argument."""
    if not isinstance(family, ChainFamily):
        raise ParameterError(f"family must be a ChainFamily, got {family!r}")


def _require_matrix(m: object) -> None:
    """The public entry points' rule for a matrix argument."""
    if not isinstance(m, StochasticMatrix):
        raise ParameterError(f"matrix must be a StochasticMatrix, got {type(m).__name__}")


def _cells(n: int, a: int, q: int, one: int, boundary: str) -> list[dict[int, int]]:
    """Rows of ``{j: cell}``, zero-free and in column order, of the size-n
    chain with multiplier a and step q, in multiples of the unit ``one``.

    A row lists its moves: collapse to state 0 with (a - 2)*q, step down
    and step up with q each; state 0 only steps up, state 1's step down is
    a collapse, the last state has no step up.  It stays with ``one`` less
    the moves.  The boundary sets the last row's collapse: "edge" adds q,
    the lucas kinds use 2q (a = 6); lucas-cobalancing also moves 4q/7 of
    row n-2's step up to collapse (q is a multiple of 7 there).  Linear in
    (one, q): (1, 0) gives I and (0, 7) gives 7G, for P = I + q*G.
    """
    collapse = [0, (a - 1) * q] + [(a - 2) * q] * (n - 2)
    down = [0, 0] + [q] * (n - 2)
    up = [q] * (n - 1) + [0]
    if boundary == "edge":
        collapse[-1] += q
    elif boundary.startswith("lucas"):
        collapse[-1] = 2 * q
    if boundary == "lucas-cobalancing":
        up[-2], collapse[-2] = 3 * q // 7, collapse[-2] + 4 * q // 7
    rows = []
    for i, (c, d, u) in enumerate(zip(collapse, down, up)):
        row = {0: c} if c else {}
        if d:
            row[i - 1] = d
        if stay := one - c - d - u:
            row[i] = stay
        if u:
            row[i + 1] = u
        rows.append(row)
    return rows


def build(family: ChainFamily) -> StochasticMatrix:
    """Materialize a family instance as a StochasticMatrix: ``_cells``'s
    rows over q's denominator are the store, in lowest terms as q is the
    cell (0, 1).  Only lucas-cobalancing's 3q/7 needs the unit 1/42; its
    cells 1/6 and 1/14 share no factor with 42.  A ``family`` that is not
    a ChainFamily raises ParameterError."""
    _require_family(family)
    spec = KINDS[family.kind]
    q = family.q if spec.takes_q else Fraction(1, family.coeff)
    scale = 7 if spec.boundary == "lucas-cobalancing" else 1
    den = scale * q.denominator
    rows = _cells(family.n, family.coeff, scale * q.numerator, den, spec.boundary)
    return StochasticMatrix._new(family.n, den, rows, family.label)


@dataclass
class ValidationReport:
    """Outcome of the ergodicity checks on a matrix, which is stochastic
    by construction."""

    n: int
    unreachable: list[int]
    non_returning: list[int]
    period: int | None
    aperiodic: bool | None

    @property
    def irreducible(self) -> bool:
        return not self.unreachable and not self.non_returning

    @property
    def ok(self) -> bool:
        return self.irreducible and self.aperiodic is True


def validate(m: StochasticMatrix) -> ValidationReport:
    """Check irreducibility and aperiodicity on the nonzero cells, O(nnz);
    stochasticity holds for every matrix, as ``_exact`` checks it."""
    _require_matrix(m)
    n = m.n
    adjacency = m.numerators  # a row's keys are its targets
    reverse: list[list[int]] = [[] for _ in range(n)]
    for i, targets in enumerate(adjacency):
        for j in targets:
            reverse[j].append(i)

    def reach(adj: Sequence[Iterable[int]]) -> tuple[set[int], dict[int, int]]:
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
    _require_matrix(m)
    return "\n".join(",".join(row) for row in _cell_strings(m))


def matrix_to_json(m: StochasticMatrix) -> str:
    """``json.dumps`` of ``{"n", "family", "rows"}`` with the cells as
    strings, byte for byte; a cell string holds only digits, "-" and "/",
    so it is quoted without escapes."""
    _require_matrix(m)
    rows = ", ".join('["' + '", "'.join(row) + '"]' for row in _cell_strings(m))
    return f'{{"n": {m.n}, "family": {json.dumps(m.label)}, "rows": [{rows}]}}'


def _require_label(label: object) -> None:
    """A matrix's label is its JSON "family": it must be a str."""
    if not isinstance(label, str):
        raise ParameterError(f'matrix "family" must be a string, got {label!r}')


def matrix_from_json(text: str) -> StochasticMatrix:
    """Read a ``matrix_to_json`` payload: ``{"n": n, "rows": [[cell, ...], ...]}``.

    A cell is an exact number (``_exact_number``): a JSON integer or a
    string such as "1/6" or "0.25".  Past the payload's own checks the
    rows go to ``StochasticMatrix.from_rows``; every malformed payload, and
    a matrix that is not stochastic, raises ParameterError, and so does a
    ``text`` that is not a str, bytes or bytearray.
    """
    if not isinstance(text, (str, bytes, bytearray)):
        raise ParameterError(f"matrix JSON must be a str, got {type(text).__name__}")
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # json recurses once per nesting level
        raise ParameterError(f"matrix file is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ParameterError("matrix file must hold a JSON object")
    n, rows, label = payload.get("n"), payload.get("rows"), payload.get("family", "")
    if type(n) is not int or n < 1:
        raise ParameterError(f'matrix "n" must be a positive integer, got {n!r}')
    _require_label(label)
    if not (isinstance(rows, list) and len(rows) == n):
        raise ParameterError(f'matrix "rows" must be {n} lists of {n} cells')
    return StochasticMatrix.from_rows(rows, label)

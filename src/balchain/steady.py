"""Stationary distributions by three independent routes.

* solve_exact    -- exact fractions from the balance equations: an O(n)
                    back-substitution when the chain is column 0 plus a
                    tridiagonal band, fraction Gaussian elimination otherwise
* power_iteration -- float fixed-point iteration of v <- v*P; a chain
                    that runs past a few hundred iterations switches to
                    a step compiled to straight-line code, which makes
                    the same float operations in the same order
* simulate       -- seeded Monte Carlo trajectory counting

plus exact matrix powers for the n-step transition law.  The three routes
share no code, so agreement between them is a meaningful check.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import gcd, inf
from numbers import Real
from operator import mul

from .chains import StochasticMatrix
from .sequences import _require_int

__all__ = [
    "SolverError",
    "ConvergenceError",
    "SimulationResult",
    "solve_exact",
    "power_iteration",
    "n_step",
    "simulate",
]

RNG_ALGORITHM = "mt19937"


class SolverError(Exception):
    """The balance system is singular: the chain is reducible or periodic."""


class ConvergenceError(Exception):
    """Power iteration ran out of iterations; carries the last iterate."""

    def __init__(self, message: str, vector: list[float], iterations: int):
        super().__init__(message)
        self.vector = vector
        self.iterations = iterations


@dataclass(frozen=True)
class SimulationResult:
    """Visit counts of one seeded trajectory and their frequencies."""

    visits: tuple[int, ...]
    steps: int
    seed: int
    empirical: tuple[float, ...]
    rng: str = RNG_ALGORITHM


def solve_exact(m: StochasticMatrix) -> list[Fraction]:
    """Unique probability vector with pi*P == pi, as exact fractions.

    Solves the balance equations of columns 1..n-1 together with the
    normalization sum(pi) == 1.  When every nonzero off column 0 lies on
    the tridiagonal band and every superdiagonal entry P[j-1][j] is
    nonzero, the balance equation of column j >= 1 is the three-term
    recurrence (the last term is absent at j == n-1)

        P[j-1][j]*pi[j-1] + P[j][j]*pi[j] + P[j+1][j]*pi[j+1] == pi[j],

    so pi is back-substituted from pi[n-1] = 1 in O(n) and then normalized.
    The back-substitution runs on the matrix's own int numerators over its
    ``den`` and reduces each entry of pi once, where Fraction arithmetic
    would take a gcd on every step.  Any other matrix goes to fraction
    Gaussian elimination.  Both routes solve the same system, so they
    return equal fractions, and both raise SolverError when it is singular.
    """
    rows = m.numerators
    in_band = all(j == 0 or abs(j - i) <= 1 for i, cells in enumerate(rows) for j in cells)
    if in_band and all(rows[j].get(j + 1) for j in range(m.n - 1)):
        return _solve_band(m.den, rows)
    return _solve_gauss(m)


def _solve_band(den: int, rows: tuple[dict[int, int], ...]) -> list[Fraction]:
    """Back-substitute the column balance recurrence on int numerators over
    ``den``; every superdiagonal cell rows[j][j+1] is nonzero.

    With b[j], s[j] and c[j] the numerators of the sub-, main and
    superdiagonal cells of row j, the recurrence scaled by den is
    c[j-1]*pi[j-1] == (den - s[j])*pi[j] - b[j+1]*pi[j+1].  Writing
    pi[j] = x[j] / (c[j]*...*c[n-2]) clears the division:
    x[j-1] = x[j]*(den - s[j]) - x[j+1]*b[j+1]*c[j] from x[n-1] = 1, all on
    plain ints.  So pi is proportional to w[j] = x[j]*c[0]*...*c[j-1],
    divided by the weights' gcd, and each entry is reduced once, as w[j]
    over sum(w).  No column-0 cell is read, so cells (0, 0) and (1, 0)
    count as column 0, not as band.
    """
    n = len(rows)
    c = [rows[j][j + 1] for j in range(n - 1)]
    x = [0] * n
    x[n - 1] = 1
    for j in range(n - 1, 0, -1):
        v = x[j] * (den - rows[j].get(j, 0))
        if j + 1 < n:
            v -= x[j + 1] * rows[j + 1].get(j, 0) * c[j]
        x[j - 1] = v
    w = [v * p for v, p in zip(x, accumulate(c, mul, initial=1))]
    g = gcd(*w)  # can be large: about 7**n for lucas-cobalancing
    if g > 1:
        w = [v // g for v in w]
    total = sum(w)
    if total == 0:
        raise SolverError(
            "singular balance system; the chain is not irreducible/aperiodic"
        )
    return [Fraction(v, total) for v in w]


def _solve_gauss(m: StochasticMatrix) -> list[Fraction]:
    """Fraction Gaussian elimination with partial pivoting on magnitude.

    Builds the transposed balance system (P^T - I) pi = 0 and replaces the
    first (redundant) equation with the normalization sum(pi) == 1.
    """
    n = m.n
    one = Fraction(1)
    zero = Fraction(0)
    a = [[m.entry(i, j) - (one if i == j else zero) for i in range(n)] for j in range(n)]
    rhs = [zero] * n
    a[0] = [one] * n
    rhs[0] = one

    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0:
            raise SolverError(
                "singular balance system; the chain is not irreducible/aperiodic"
            )
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        pivot_row = a[col]
        for r in range(col + 1, n):
            factor = a[r][col] / pivot_row[col]
            if factor:
                row = a[r]
                for k in range(col, n):
                    row[k] -= factor * pivot_row[k]
                rhs[r] -= factor * rhs[col]

    pi = [zero] * n
    for r in range(n - 1, -1, -1):
        acc = rhs[r]
        row = a[r]
        for k in range(r + 1, n):
            acc -= row[k] * pi[k]
        pi[r] = acc / row[r]
    return pi


def power_iteration(
    m: StochasticMatrix, tol: float = 1e-12, max_iter: int = 10**6
) -> tuple[list[float], int]:
    """Iterate v <- v*P from the uniform vector until the L1 change < tol.

    The first iterations run as a loop over each row's nonzero cells.  A
    chain still running after ``_COMPILE_AFTER`` of them switches to a step
    compiled from P's nonzeros (``_compile_step``): straight-line code that
    has no per-cell dispatch and makes the same float operations in the
    same order, so every iterate, the iteration count and a
    ConvergenceError's vector are bit-identical to the loop's.
    """
    if not isinstance(tol, Real) or isinstance(tol, bool) or not 0 < tol < inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    _require_int("max_iter", max_iter, 1)
    n, den = m.n, m.den
    # v / den is float(Fraction(v, den)): one correctly rounded division
    rows = [[(j, v / den) for j, v in cells.items()] for cells in m.numerators]
    v = [1.0 / n] * n
    step = partial(_loop_step, rows)
    for iteration in range(1, max_iter + 1):
        if iteration == _COMPILE_AFTER + 1:
            step = _compile_step(rows)
        v, delta = step(v)
        if delta < tol:
            return v, iteration
    raise ConvergenceError(
        f"no convergence within {max_iter} iterations (tol={tol})", v, max_iter
    )


# Compiling the step costs about 12 us per nonzero, and each compiled
# iteration saves about 60 ns per nonzero over the loop, so the compile
# pays for itself after some 150-300 iterations whatever the size.  Fast
# chains converge in 20-50 iterations and never compile.
_COMPILE_AFTER = 250

# Terms per statement of a compiled column sum.  One expression of a few
# thousand terms nests too deeply for CPython's compiler (RecursionError).
_CHUNK = 64


def _loop_step(
    rows: list[list[tuple[int, float]]], v: list[float]
) -> tuple[list[float], float]:
    """One iteration: w = v*P and the L1 change sum(|w - v|)."""
    n = len(v)
    w = [0.0] * n
    for i, weight in enumerate(v):
        if weight:
            for j, p in rows[i]:
                w[j] += weight * p
    return w, sum(abs(w[j] - v[j]) for j in range(n))


def _compile_step(
    rows: list[list[tuple[int, float]]],
) -> Callable[[list[float]], tuple[list[float], float]]:
    """``_loop_step`` for these rows as one generated function.

    Column j becomes ``w_j = 0.0 + v_i*p_ij + ...`` over its nonzeros with
    the rows i ascending, which is the loop's addition order.  The loop
    skips a zero weight, whose term here is a signed zero.  A sum that
    starts at +0.0 never becomes -0.0 under round-to-nearest, and adding
    a zero of either sign to any other float leaves it unchanged, so the
    two steps agree bit for bit.  Each p is written as ``repr(float)``,
    which reads back exactly, so the source holds only names, ints and
    float literals.  Long columns are summed in chunks of ``_CHUNK``
    terms, ``w_j = w_j + ...``, which keeps the order.
    """
    n = len(rows)
    columns: list[list[str]] = [[] for _ in range(n)]
    for i, cells in enumerate(rows):
        for j, p in cells:
            columns[j].append(f"v{i}*{p!r}")
    names = [f"v{i}" for i in range(n)]
    lines = ["def step(v):", f"    {', '.join(names)}, = v"]
    for j, terms in enumerate(columns):
        head = "0.0"
        for k in range(0, max(len(terms), 1), _CHUNK):
            lines.append(f"    w{j} = {' + '.join([head, *terms[k : k + _CHUNK]])}")
            head = f"w{j}"
    outputs = ", ".join(f"w{j}" for j in range(n))
    changes = ", ".join(f"abs(w{j} - v{j})" for j in range(n))
    lines.append(f"    return [{outputs}], sum(({changes},))")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["step"]


_IntRows = list[list[tuple[int, int]]]


def _int_mul(x: _IntRows, y: _IntRows) -> _IntRows:
    """Product of two square integer matrices held as rows of nonzero
    ``(j, value)`` pairs; zero cells of either factor cost nothing."""
    n = len(y)
    out = []
    for xi in x:
        acc = [0] * n
        for k, a in xi:
            for j, b in y[k]:
                acc[j] += a * b
        out.append([(j, v) for j, v in enumerate(acc) if v])
    return out


def _packed_mul(x: _IntRows, y: _IntRows, bound: int) -> _IntRows:
    """``_int_mul(x, y)`` by Kronecker substitution, for a ``bound`` on
    the magnitude of every cell of y and of the product.

    Row k of y becomes one int with cell j at bit s*j, for a slot width
    s of whole bytes with bound < 2**(s-1).  Row i of the product is then
    sum(x[i][k] * packed[k]): one C-level big-int multiply-add per nonzero
    of x.  Adding half a slot, 2**(s-1), to every slot up to the row's top
    nonzero one leaves each slot in 1..2**s - 1 with no carry, so one
    ``to_bytes`` lays the cells out, and each reads back as its slot less
    the half.  Rows of y are packed the same way, biased and then
    unbiased.  (D. Harvey, "Faster polynomial multiplication via
    multipoint Kronecker substitution", J. Symbolic Comput. 44, 2009;
    R. P. Brent and P. Zimmermann, Modern Computer Arithmetic, 2010,
    section 1.9.)
    """
    n = len(y)
    w = bound.bit_length() // 8 + 1
    s = 8 * w
    half = 1 << (s - 1)
    zero = half.to_bytes(w, "little")
    bias = int.from_bytes(zero * n, "little")
    packed = []
    for row in y:
        chunks = [zero] * n
        for j, v in row:
            chunks[j] = (v + half).to_bytes(w, "little")
        packed.append(int.from_bytes(b"".join(chunks), "little") - bias)
    from_bytes = int.from_bytes
    out = []
    for xi in x:
        r = sum([a * packed[k] for k, a in xi])
        # a nonzero |r| lies in [2**(s*top - 1), 2**(s*top + s - 1)), top
        # its highest nonzero slot, as every cell is below half in magnitude
        top = abs(r).bit_length() // s
        size = w * (top + 1)
        data = (r + (bias >> (s * (n - 1 - top)))).to_bytes(size, "little")
        slots = [from_bytes(data[o : o + w], "little") for o in range(0, size, w)]
        out.append([(j, v - half) for j, v in enumerate(slots) if v != half])
    return out


# A product goes packed when _int_mul's multiply-adds (the sum of len(y[k])
# over the nonzeros of x) exceed _PACK_RATIO times the packed route's
# Python-level steps, about nnz(x) + n**2 (a multiply-add per nonzero of
# x, a decoded slot per cell); each costs some 50-100 ns either way.  The
# packed route also does more digit work, since a slot holds a product
# and so is about twice as wide as the factors' entries.  Up to
# _PACK_BITS that is noise; above it the ratio needed grows in proportion
# to the entries' bit length.  Dense squarings of random entries break
# even near 100 bits at n = 8, 150 at n = 12, 300 at n = 24 and 400 at
# n = 50, and the rule packs them from n = 9 up to 8*n bits, below each
# of those.  Past _PACK_MAX_BITS the packed route is the slower one even
# at n = 100 (about 1.1x at 512 bits), and about 1.3x at balancing(12),
# k = 1000, whose last product has 1300-bit entries.
_PACK_RATIO = 4
_PACK_BITS = 64
_PACK_MAX_BITS = 384


def _mul(x: _IntRows, y: _IntRows) -> _IntRows:
    """``x * y`` by whichever of ``_int_mul`` and ``_packed_mul`` the
    factors' counts and entry bit lengths favour; the counts are taken
    cheapest first."""
    n = len(y)
    nnz = sum(map(len, x))
    slots = _PACK_RATIO * (nnz + n * n)
    if nnz * max(map(len, y)) > slots:
        lengths = [len(row) for row in y]
        work = sum([lengths[k] for xi in x for k, _ in xi])
        if work > slots:
            top_x = max([abs(v) for xi in x for _, v in xi])
            top_y = top_x if x is y else max([abs(v) for row in y for _, v in row])
            bits = max(top_x, top_y).bit_length()
            if bits <= _PACK_MAX_BITS and work * _PACK_BITS > slots * max(bits, _PACK_BITS):
                return _packed_mul(x, y, max(map(len, x)) * top_x * top_y)
    return _int_mul(x, y)


def n_step(m: StochasticMatrix, n: int) -> StochasticMatrix:
    """Exact n-th matrix power; rows stay stochastic.

    P is its int numerators A over ``m.den``, so P**n = A**n / den**n.
    A**n comes from square-and-multiply on plain ints (O(log n) products,
    no gcd per cell), and ``StochasticMatrix._lowest_terms`` divides A**n
    and den**n by their gcd once.  Each product takes one of two routes
    (``_mul``): a sparse one that costs nothing for zero cells, which the
    band's early squarings take, and a packed one that does a whole row in
    a few big-int products, which the dense later ones take.
    """
    _require_int("exponent", n, 1)
    base = [list(cells.items()) for cells in m.numerators]
    result: _IntRows | None = None
    e = n
    while e:
        if e & 1:
            result = base if result is None else _mul(result, base)
        e >>= 1
        if e:
            base = _mul(base, base)
    label = f"pow({m.label},{n})" if m.label else ""
    return StochasticMatrix._lowest_terms(m.n, m.den**n, result, label)


def simulate(
    m: StochasticMatrix, steps: int, seed: int, start: int = 0
) -> SimulationResult:
    """Run one seeded trajectory and count visits after each transition."""
    _require_int("steps", steps, 1)
    _require_int("seed", seed)
    _require_int("start", start)
    n, den = m.n, m.den
    if not 0 <= start < n:
        raise ValueError(f"start state {start} outside 0..{n - 1}")
    targets = []
    cumulative = []
    for i, cells in enumerate(m.numerators):
        if not cells:
            raise ValueError(f"row {i} has no nonzero entry")
        acc = 0.0
        cum = []
        for v in cells.values():
            acc += v / den
            cum.append(acc)
        # float drift at the top end goes to the last possible target
        cum[-1] = 1.0
        targets.append(list(cells))
        cumulative.append(cum)
    rng = random.Random(seed)
    draw = rng.random
    visits = [0] * n
    state = start
    for _ in range(steps):
        state = targets[state][bisect_right(cumulative[state], draw())]
        visits[state] += 1
    empirical = tuple(v / steps for v in visits)
    return SimulationResult(
        visits=tuple(visits), steps=steps, seed=seed, empirical=empirical
    )


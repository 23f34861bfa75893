"""Stationary distributions by three independent routes.

* solve_exact    -- exact fractions from the balance equations: an O(nnz)
                    back-substitution when no row jumps up by more than
                    one state (the chain is skip-free to the right),
                    fraction Gaussian elimination otherwise
* power_iteration -- float fixed-point iteration of v <- v*P* on the
                    diagonal-shifted chain P* = (P - sI)/(1 - s), which
                    has the same stationary vector and a wider spectral
                    gap; one loop over each row's nonzero cells per step
* simulate       -- seeded Monte Carlo trajectory counting on the
                    stream of random.Random(seed): the draws come in
                    chunks from getrandbits, a 256-entry table per
                    visited state decides most steps from a draw's top
                    byte, and the rest rebuild the draw exactly and
                    bisect, so the stream and every step are those of
                    the walk that calls random() once per step

plus exact matrix powers for the n-step transition law.  The three routes
share no code, so agreement between them is a meaningful check.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import ceil, floor, gcd, inf, prod
from numbers import Real

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
    """The balance system is singular: the chain is not irreducible."""


_SINGULAR = "singular balance system; the chain is not irreducible"


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
    """Unique probability vector with pi*P == pi, as exact fractions; takes
    a stochastic matrix, as every ``StochasticMatrix`` is.

    Solves the balance equations of columns 1..n-1 together with the
    normalization sum(pi) == 1.  When the chain is skip-free to the right
    (P[i][j] == 0 for j > i + 1: no row jumps up by more than one state)
    and every superdiagonal entry P[j-1][j] is nonzero, column j's
    equation gives pi[j-1] from pi[j..n-1], so pi is back-substituted in
    O(nnz) on the matrix's int numerators (``_skip_free_weights``) and
    each entry is reduced once.  Any other matrix goes to fraction
    Gaussian elimination.  Both routes solve the same system, so they
    return equal fractions.  The skip-free system is never singular;
    elimination raises SolverError when its system is.
    """
    w = _skip_free_weights(m.den, m.numerators)
    if w is None:
        return _solve_gauss(m)
    total = sum(w)
    return [Fraction(v, total) for v in w]


def _skip_free_weights(den: int, rows: tuple[dict[int, int], ...]) -> list[int] | None:
    """Weights of pi with gcd 1 when no cell has j > i + 1 and every
    c[j] = rows[j][j+1] is nonzero; None otherwise.

    Column j's balance equation over ``den`` reads c[j-1]*w[j-1] ==
    den*w[j] - sum(w[i]*rows[i][j] for i >= j).  From w[n-1] = c[0]*...*
    c[n-2] each w[j-1] is an exact int division, as w[j] is a multiple of
    c[0]*...*c[j-1], and column 0 is never read.  Every state reaches n-1
    along the superdiagonal, so there is one closed class and one
    stationary vector, of which w is a positive multiple (0 on transient
    states).  One pass over the rows from n-1 down reads each cell once:
    it checks the shape and adds row i's cells into the sums of their
    columns as soon as w[i] is known.
    """
    n = len(rows)
    c = [rows[j].get(j + 1) for j in range(n - 1)]
    if not all(c):
        return None
    w = [0] * n
    w[-1] = prod(c)
    inflow = [0] * n  # inflow[j]: sum of w[i]*rows[i][j] over the rows read
    for i in range(n - 1, -1, -1):
        wi = w[i]
        for j, v in rows[i].items():
            if j <= i:
                if j:
                    inflow[j] += wi * v
            elif j > i + 1:
                return None
        if i:
            w[i - 1] = (den * wi - inflow[i]) // c[i - 1]
    g = gcd(*w)  # can be large: about 7**n for lucas-cobalancing
    return [v // g for v in w] if g > 1 else w


def _solve_gauss(m: StochasticMatrix) -> list[Fraction]:
    """Fraction Gaussian elimination on the augmented balance system.

    Row j is column j of P - I, read from the int store in O(nnz), with
    its right-hand side 0 as the last column; the redundant row 0 becomes
    sum(pi) == 1, all ones.  A column pivots on its first nonzero entry:
    in exact arithmetic neither the solution nor whether the system is
    singular depends on which nonzero is taken.
    """
    n, den = m.n, m.den
    zero, one = Fraction(0), Fraction(1)
    a = [[one] * (n + 1)] + [[zero] * j + [-one] + [zero] * (n - j) for j in range(1, n)]
    for i, cells in enumerate(m.numerators):
        for j, v in cells.items():
            if j:
                a[j][i] += Fraction(v, den)

    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            raise SolverError(_SINGULAR)
        a[col], a[pivot] = a[pivot], a[col]
        pivot_row = a[col]
        # the pivot row's nonzeros right of col; column col is not read again
        pivot_cells = [(k, x) for k, x in enumerate(pivot_row[col + 1 :], col + 1) if x]
        for r in range(col + 1, n):
            row = a[r]
            if row[col]:
                factor = row[col] / pivot_row[col]
                for k, x in pivot_cells:
                    row[k] -= factor * x

    pi = [zero] * n
    for r in range(n - 1, -1, -1):
        acc = a[r][n]
        row = a[r]
        for k in range(r + 1, n):
            acc -= row[k] * pi[k]
        pi[r] = acc / row[r]
    return pi


def power_iteration(
    m: StochasticMatrix, tol: float = 1e-12, max_iter: int = 10**6
) -> tuple[list[float], int]:
    """Iterate v <- v*P* from the uniform vector until the L1 change < tol,
    where P* = (P - sI)/(1 - s), for s the smallest diagonal cell of P (or
    half of it when every diagonal cell is equal), is the diagonal-shifted
    chain that ``_shifted_rows`` forms exactly; ``iterations`` counts
    steps of P*.

    P* is stochastic and has P's stationary vector, and it maps each
    eigenvalue x of P to (x - s)/(1 - s), so the lazy q-families, whose
    diagonal holds most of each row, converge in tens of iterations
    rather than thousands.  A chain whose smallest diagonal cell is 0 has
    s = 0 and iterates P itself.

    Each step is one loop over each row's nonzero cells (``_loop_step``),
    some 90 ns per nonzero.  A chain the shift does not help pays that on
    every iteration: balancing-like at a = 2, a walk with no collapse,
    takes 814 iterations at n = 12 (~2.5 ms), 11155 at n = 50 (~0.1 s) and
    40950 at n = 100 (~0.75 s) on a 2-core Xeon.
    """
    if not isinstance(tol, Real) or isinstance(tol, bool) or not 0 < tol < inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    _require_int("max_iter", max_iter, 1)
    n = m.n
    rows = _shifted_rows(m.den, m.numerators)
    v = [1.0 / n] * n
    for iteration in range(1, max_iter + 1):
        v, delta = _loop_step(rows, v)
        if delta < tol:
            return v, iteration
    raise ConvergenceError(
        f"no convergence within {max_iter} iterations (tol={tol})", v, max_iter
    )


def _shifted_rows(
    den: int, numerators: tuple[dict[int, int], ...]
) -> list[list[tuple[int, float]]]:
    """The float rows of P* = (P - sI)/(1 - s), formed exactly on the ints.

    With t the smallest diagonal numerator, s = t/den: t comes off each
    diagonal numerator and off ``den``, and a cell that becomes 0 is
    dropped, so P*'s numerators are nonnegative and sum to den - t.  When
    every diagonal cell is t > 0, s = t/den would zero them all and could
    make an aperiodic chain periodic (the lazy cycle (I + C)/2 would become
    the cycle C), so s = t/(2*den) instead: the numerators and ``den`` are
    doubled before t comes off, and every self-loop stays.  Either way
    s < 1.  Each cell is then v / den*, float(Fraction(v, den*)): one
    correctly rounded division, and with t = 0 the rows of P itself, bit
    for bit.
    """
    diagonal = [cells.get(i, 0) for i, cells in enumerate(numerators)]
    t = min(diagonal)
    k = 2 if t and t == max(diagonal) else 1
    den = k * den - t
    return [
        [(j, p / den) for j, v in cells.items() if (p := k * v - (t if i == j else 0))]
        for i, cells in enumerate(numerators)
    ]


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


_IntRows = list[list[tuple[int, int]]]


def _int_mul(x: _IntRows, y: _IntRows) -> _IntRows:
    """Product of two square integer matrices held as rows of nonzero
    ``(j, value)`` pairs; zero cells of either factor cost nothing, and
    ``compress`` finds each row's nonzero sums in C."""
    n = len(y)
    states = range(n)
    out = []
    for xi in x:
        acc = [0] * n
        for k, a in xi:
            for j, b in y[k]:
                acc[j] += a * b
        out.append([(j, acc[j]) for j in compress(states, acc)])
    return out


def _packed_mul(x: _IntRows, y: _IntRows, bound: int) -> _IntRows:
    """``_int_mul(x, y)`` by Kronecker substitution, for a ``bound`` on
    every cell of y and of the product, all of them >= 0.

    Row k of y becomes one int with cell j at bit s*j, for a slot width
    s of whole bytes with bound < 2**s.  Row i of the product is then
    sum(x[i][k] * packed[k]): one C-level big-int multiply-add per nonzero
    of x.  No slot carries into the next, so one ``to_bytes`` lays the
    cells out, and each reads back as its slot.  (D. Harvey, "Faster
    polynomial multiplication via multipoint Kronecker substitution",
    J. Symbolic Comput. 44, 2009; R. P. Brent and P. Zimmermann, Modern
    Computer Arithmetic, 2010, section 1.9.)
    """
    n = len(y)
    w = bound.bit_length() // 8 + 1
    zero = bytes(w)
    packed = []
    for row in y:
        chunks = [zero] * n
        for j, v in row:
            chunks[j] = v.to_bytes(w, "little")
        packed.append(int.from_bytes(b"".join(chunks), "little"))
    from_bytes = int.from_bytes
    out = []
    for xi in x:
        r = sum([a * packed[k] for k, a in xi])
        size = (r.bit_length() + 7) // 8  # up to the top nonzero slot
        data = r.to_bytes(size, "little")
        slots = [from_bytes(data[o : o + w], "little") for o in range(0, size, w)]
        out.append([(j, v) for j, v in enumerate(slots) if v])
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
            top_x = max([v for xi in x for _, v in xi])
            top_y = top_x if x is y else max([v for row in y for _, v in row])
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


# Draws taken from the generator at a time: 4096 draws are 32 KiB of
# bytes, so a chunk's buffers stay small whatever ``steps`` is.
_DRAWS = 4096


def simulate(
    m: StochasticMatrix, steps: int, seed: int, start: int = 0
) -> SimulationResult:
    """Run one seeded trajectory and count visits after each transition.

    Step k draws u = ``random.Random(seed).random()``'s k-th value and moves
    from state i to ``targets[i][bisect_right(cumulative[i], u)]``, where
    row i's ``cumulative`` holds the float running sums of its cells, the
    last one set to 1.0 so that float drift cannot reach past the last
    nonzero target.  The seed must be >= 0: ``random.Random`` seeds with
    ``abs(seed)``, so a negative seed would run another seed's stream.

    The walk takes the same stream in chunks of ``_DRAWS`` draws and
    decides most steps without building u.  ``random()`` makes u from two
    32-bit Mersenne Twister words a then b, as ((a >> 5) * 2**26 +
    (b >> 6)) / 2**53, and ``getrandbits(64 * count)`` lays the same words
    out in the same order, least significant first, so byte 8k + 3 of its
    little-endian bytes is a's top byte, floor(256 * u).  Each state gets a
    256-entry row (``_byte_row``): entry b is the next state when no
    threshold of the state's ``cumulative`` lies strictly inside
    (b/256, (b+1)/256), as every u in that bucket then bisects to the same
    target, and -1 otherwise.  A -1 rebuilds u exactly from its 8 bytes
    (``_unit_float``) and bisects as above.  Until the walk first leaves a
    state, the state reads one shared all -1 row, and that first step
    builds its float row (``_float_row``) and its byte row, so a run holds
    rows for the states it visits only.  The stream, every step and so the
    result equal those of the plain per-``random()`` walk.
    """
    _require_int("steps", steps, 1)
    _require_int("seed", seed, 0)
    _require_int("start", start)
    n, den = m.n, m.den
    if not 0 <= start < n:
        raise ValueError(f"start state {start} outside 0..{n - 1}")
    unbuilt = [-1] * 256
    table = [unbuilt] * n
    rows: dict[int, tuple[list[int], list[float]]] = {}  # _float_row of each state left
    rng = random.Random(seed)
    visits = [0] * n
    state = start
    for done in range(0, steps, _DRAWS):
        count = min(_DRAWS, steps - done)
        data = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
        tops = iter(data[3::8])
        for top in tops:
            nxt = table[state][top]
            if nxt < 0:
                if table[state] is unbuilt:
                    rows[state] = _float_row(m.numerators[state], den)
                    table[state] = _byte_row(*rows[state])
                    nxt = table[state][top]
                if nxt < 0:
                    # the draw just read is number count - 1 - (draws left)
                    at = 8 * (count - 1 - tops.__length_hint__())
                    u = _unit_float(int.from_bytes(data[at : at + 8], "little"))
                    targets, cumulative = rows[state]
                    nxt = targets[bisect_right(cumulative, u)]
            visits[nxt] += 1
            state = nxt
    empirical = tuple(v / steps for v in visits)
    return SimulationResult(
        visits=tuple(visits), steps=steps, seed=seed, empirical=empirical
    )


def _float_row(cells: dict[int, int], den: int) -> tuple[list[int], list[float]]:
    """A row's nonzero targets and the float running sums of its cells."""
    acc = 0.0
    cumulative = []
    for v in cells.values():
        acc += v / den
        cumulative.append(acc)
    # float drift at the top end goes to the last possible target
    cumulative[-1] = 1.0
    return list(cells), cumulative


def _byte_row(targets: list[int], cum: list[float]) -> list[int]:
    """Entry b is the target that every u in [b/256, (b+1)/256) bisects to
    in ``cum``, or -1 when a threshold lies strictly inside the bucket.

    Target k takes the u in [cum[k-1], cum[k]), so the whole buckets in
    that span, the b with ceil(256 * cum[k-1]) <= b < floor(256 * cum[k]);
    the products are exact, as 256 is a power of 2.  Only ``cum[-1]``, which
    is 1.0, may be below the threshold before it, and no u reaches a span
    that starts above 1.
    """
    row = [-1] * 256
    low = 0
    for target, c in zip(targets, cum):
        high = floor(256 * c)
        if high > low:
            row[low:high] = [target] * (high - low)
        low = ceil(256 * c)
    return row


def _unit_float(word: int) -> float:
    """``random()``'s value from the 64-bit word of its two 32-bit draws,
    the first one in the low half."""
    return (((word & 0xFFFFFFFF) >> 5) << 26 | word >> 38) / 2**53

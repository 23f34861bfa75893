"""Stationary distributions by three independent routes.

* solve_exact    -- exact fractions from the balance equations: an O(nnz)
                    back-substitution when no row jumps up by more than
                    one state (the chain is skip-free to the right),
                    exact state reduction on the int store otherwise
* power_iteration -- float fixed-point iteration of v <- v*P* on the
                    diagonal-shifted chain P* = (P - sI)/(1 - s), which
                    has the same stationary vector and a wider spectral
                    gap; one loop over each row's nonzero cells per step
* simulate       -- seeded Monte Carlo trajectory counting on the
                    stream of random.Random(seed): the draws come in
                    chunks from getrandbits, and their top bytes map to
                    classes cut by the visited rows' float thresholds;
                    while there are at most 16 classes, k of them pack
                    into one key byte and one table read moves the walk
                    k steps, and a draw whose byte bucket holds a sum is
                    settled on its next byte or rebuilt exactly.  Past 16
                    classes each draw is bisected into its row.  The
                    stream and every step are those of the walk that
                    calls random() once a step

plus exact matrix powers for the n-step transition law.  The three routes
share no code, so agreement between them is a meaningful check.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, islice
from math import ceil, floor, gcd, inf, lcm, prod
from numbers import Real

from .chains import StochasticMatrix, _require_matrix
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
    """``solve_exact`` raises it when the chain has more than one closed
    class, so more than one stationary vector; a reducible chain with one
    closed class solves, with 0 on its transient states.  The CLI also
    raises it for a reducible matrix file, and for a periodic one under
    power iteration."""


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
    O(nnz) on the matrix's int numerators (``_skip_free_weights``).  Any
    other matrix goes to exact state reduction on the same numerators
    (``_reduce_states``): each removal probes every state still left for a
    cell in its column, about n**2/2 dict lookups in all, and divides each
    row it updates by that row's gcd.  Both routes return the one
    stationary vector, 0 on the transient states, as primitive int weights
    (gcd 1), so they agree wherever both apply, and each entry is one
    division of a weight by their sum.  A skip-free chain has one closed
    class; state reduction raises SolverError on a chain with more than
    one.
    """
    _require_matrix(m)
    w = _skip_free_weights(m.den, m.numerators) or _reduce_states(m.numerators)
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


def _reduce_states(rows: tuple[dict[int, int], ...]) -> list[int]:
    """Weights of pi with gcd 1, by exact state reduction on the int
    numerators.

    The states go from n-1 down, the anchor state 0 last.  Taking state k
    away leaves the chain watched on the states still left: each row i
    with a cell x = A[i][k] gains x*A[k][j]/S_k for each of k's exits j,
    where the pivot S_k is the sum of those exits.  Nothing is subtracted.
    Each removal probes every state still left with a dict lookup, about
    n**2/2 in all (1,279,200 at n = 1600), whether or not the row holds a
    cell in column k.  A row stays primitive ints: it is multiplied by S_k
    to take the update, then divided by the gcd of its own cells, so the
    watched chain's P[i][j] is A[i][j] over the row's sum.  Back from
    pi[anchor] = 1, pi[k] is A_k/S_k times sum(pi[i]*x/A_i) over the cells
    x = A[i][k] that k took away, where A_k is row k's sum when k goes and
    A_i is row i's sum just before it loses the cell x.
    The weights are pi times d, the lcm of its denominators, and need no
    gcd pass: for each prime p of d, some entry's denominator holds p to
    the same power as d, so that entry's weight is prime to p, and the
    anchor's weight is d itself, prime to every other prime.

    A zero pivot is a state that reaches no state left, the anchor
    included: it lies in a closed class without state 0, and a second
    pass anchors on it.  A zero pivot on that pass is a second closed
    class, and SolverError.  (W. K. Grassmann, M. I. Taksar and D. P.
    Heyman, Oper. Res. 33(5), 1985; W. J. Stewart, Introduction to the
    Numerical Solution of Markov Chains, 1994, section 2.7.)
    """
    n, anchor = len(rows), 0
    for _ in range(2):
        order = [s for s in range(n - 1, -1, -1) if s != anchor] + [anchor]
        a, inflow = [dict(cells) for cells in rows], []
        for r, k in enumerate(order[:-1]):
            exits = {j: v for j, v in a[k].items() if j != k}
            s = sum(exits.values())
            if not s:
                break
            cells = []
            for i in order[r + 1 :]:
                if x := a[i].pop(k, 0):
                    cells.append((i, Fraction(x, x + sum(a[i].values()))))
                    row = {j: v * s for j, v in a[i].items()}
                    for j, v in exits.items():
                        row[j] = row.get(j, 0) + x * v
                    g = gcd(*row.values())
                    a[i] = {j: v // g for j, v in row.items()}
            inflow.append((k, Fraction(sum(a[k].values()), s), cells))
        else:
            pi = [Fraction(1)] * n
            for k, scale, cells in reversed(inflow):
                pi[k] = scale * sum(pi[i] * p for i, p in cells)
            d = lcm(*(p.denominator for p in pi))
            return [p.numerator * (d // p.denominator) for p in pi]
        anchor = k
    raise SolverError(_SINGULAR)


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
    _require_matrix(m)
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
    _require_matrix(m)
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

# the class of a draw whose bucket holds a sum, until its class is found
_CUT = 0xFF

# classes per key byte at K classes: the largest k with K**k <= 256
_KEY_DIGITS = {K: max(k for k in range(1, 9) if K**k <= 256) for K in range(1, 17)}


def simulate(
    m: StochasticMatrix, steps: int, seed: int, start: int = 0
) -> SimulationResult:
    """Run one seeded trajectory and count visits after each transition.

    Step k draws u = ``random.Random(seed).random()``'s k-th value and moves
    from state i to ``targets[i][bisect_right(cumulative[i], u)]``, where
    row i's ``cumulative`` holds its exact cumulative probabilities, each
    rounded to the nearest float, the last 1.0.  The seed must be >= 0:
    ``random.Random`` seeds with ``abs(seed)``, so a negative seed would
    run another seed's stream.

    The walk takes the same stream in chunks of ``_DRAWS`` draws and
    decides most steps without building u.  ``random()`` makes u from two
    32-bit Mersenne Twister words a then b, as ((a >> 5) * 2**26 +
    (b >> 6)) / 2**53, and ``getrandbits(64 * count)`` lays the same words
    out in the same order, least significant first, so byte 8k + 3 of its
    little-endian bytes is a's top byte, floor(256 * u), and byte 8k + 2
    the next 8 bits of u.  A state's row (``_float_row``) is built when the
    walk first leaves it, so a run holds rows for the visited states only.

    T is the sorted set of the built rows' thresholds below 1.0, and a
    draw's class ``bisect_right(T, u)`` fixes its next state from every
    built row; equal exact sums are one float.  While there are K =
    len(T) + 1 <= 16 classes (at n = 12 over all rows, 3 on balancing, 5 on
    lucas, 7 on lucas-cobalancing, 3 to 6 on the rest), a chunk is read as
    keys: one ``bytes.translate`` maps the top bytes to classes
    (``_class_row`` over T), a draw whose bucket holds a sum of T takes its
    class from its next byte in the same way, or else is rebuilt
    (``_unit_float``) and bisected into T, and k = ``_KEY_DIGITS[K]``
    consecutive classes (8 at K = 2, 5 at 3, 4 at 4, 3 at 5..6, 2 at
    7..16) are packed base K into one key byte.  A state's table has K**k
    nodes, each built on first use by stepping its key's k classes; a node
    holds the end state's table, a count and the k states on the way, and
    the counts go into the visits at the end.  A chunk's last len % k
    draws are stepped one at a time.  A row built mid-walk with a sum not
    in T refines the classes: the counts are added up, the tables dropped,
    and the chunk keyed again from the first draw of the key that needed
    the row.

    Past 16 classes, as on a dense matrix file, the walk steps one draw at
    a time for the rest of the run: the chunk's draws left are rebuilt
    from their bytes, then ``random()`` goes on along the same generator,
    and each draw is bisected into its row.

    The stream, every step and so the result equal those of the plain
    per-``random()`` walk.  A step costs about 40 ns on the families (k =
    2..5) and about 220 ns on a 30- or 40-state dense matrix (one draw at
    a time; 10^6 steps on a shared 2-core Xeon).
    """
    _require_matrix(m)
    _require_int("steps", steps, 1)
    _require_int("seed", seed, 0)
    _require_int("start", start)
    n, den = m.n, m.den
    if not 0 <= start < n:
        raise ValueError(f"start state {start} outside 0..{n - 1}")
    rows: list[tuple[list[int], list[float]] | None] = [None] * n  # _float_row of each state left
    sums: set[float] = set()  # their thresholds below 1.0
    moves: dict[int, list[int]] = {}  # a state's next state by class
    tables: dict[int, list] = {}  # a state's nodes by key, then the state
    nodes: list[list] = []  # each [the end state's table, count, *the states on the way]
    visits = [0] * n
    keyed = -1  # len(T) when the classes were set

    def float_row(s: int) -> tuple[list[int], list[float]]:
        row = rows[s]
        if row is None:
            row = rows[s] = _float_row(m.numerators[s], den)
            sums.update(c for c in row[1] if c < 1.0)
        return row

    def table_of(s: int) -> list:
        table = tables.get(s)
        if table is None:
            table = tables[s] = [None] * width + [s]
        return table

    def walk(s: int, classes: bytes) -> list[int] | None:
        """The states that the classes step to from s, or None when a row
        built on the way refines the classes."""
        path = []
        for c in classes:
            move = moves.get(s)
            if move is None:
                known = len(sums)
                targets, cumulative = float_row(s)
                if len(sums) > known:
                    return None
                move = moves[s] = [targets[0]] + [targets[bisect_right(cumulative, t)] for t in cuts]
            s = move[c]
            path.append(s)
        return path

    def tally() -> None:
        """Add the node counts to the visits and drop the nodes and tables,
        emptying each table: nodes and tables link in cycles."""
        for node in nodes:
            for s in node[2:]:
                visits[s] += node[1]
        for table in tables.values():
            table.clear()
        nodes.clear()
        tables.clear()
        moves.clear()

    float_row(start)
    state = start
    rng = random.Random(seed)
    for done in range(0, steps, _DRAWS):
        count = min(_DRAWS, steps - done)
        data = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
        tops = data[3::8]
        pos = 0  # the chunk's first draw not yet stepped
        while pos < count:
            if keyed != len(sums):
                tally()
                cuts = sorted(sums)
                keyed = len(cuts)
                K = keyed + 1
                if K > 16:
                    break
                k = _KEY_DIGITS[K]
                width = K**k
                bounds = [*cuts, 1.0]
                class_of = bytes(_class_row(bounds))
                fine_class = {
                    b: bytes(_class_row(bounds, b))
                    for b in compress(range(256), map(_CUT.__eq__, class_of))
                }
                digits = [
                    bytes([c * K**p for c in range(K)]).ljust(256, b"\0")
                    for p in range(k - 1, -1, -1)
                ]
            classes = bytearray(tops[pos:].translate(class_of))
            at = classes.find(_CUT)
            while at >= 0:
                i = pos + at
                c = fine_class[tops[i]][data[8 * i + 2]]
                if c == _CUT:
                    u = _unit_float(int.from_bytes(data[8 * i : 8 * i + 8], "little"))
                    c = bisect_right(cuts, u)
                classes[at] = c
                at = classes.find(_CUT, at + 1)
            # digit p of every key at once: no byte sum carries, as K**k <= 256
            size = len(classes) // k
            keys = sum(
                int.from_bytes(classes[p : size * k : k].translate(d), "little")
                for p, d in enumerate(digits)
            ).to_bytes(size, "little")
            table = table_of(state)
            it = iter(keys)
            for g in it:
                node = table[g]
                if node is None:
                    s = table[-1]
                    at = k * (len(keys) - 1 - it.__length_hint__())  # the key's first draw
                    path = walk(s, classes[at : at + k])
                    if path is None:
                        break
                    node = table[g] = [table_of(path[-1]), 0, *path]
                    nodes.append(node)
                node[1] += 1
                table = node[0]
            else:
                s = table[-1]
                at = k * len(keys)
                path = walk(s, classes[at:])
                if path is not None:
                    for s in path:
                        visits[s] += 1
                    at = count - pos
            # on to the draw at pos + at, from s; before the chunk's end
            # only when a new row refined the classes
            state = s
            pos += at
        if K > 16:
            # one draw at a time from here to the end: the chunk's draws
            # left from their bytes, then random() on the same generator
            words = (int.from_bytes(data[i : i + 8], "little") for i in range(8 * pos, 8 * count, 8))
            draws = chain(map(_unit_float, words), iter(rng.random, None))
            for u in islice(draws, steps - done - pos):
                targets, cumulative = rows[state] or float_row(state)
                state = targets[bisect_right(cumulative, u)]
                visits[state] += 1
            break
    tally()
    # a short run on a large chain visits few states: divide only their counts
    empirical = [0.0] * n
    for s in compress(range(n), visits):
        empirical[s] = visits[s] / steps
    return SimulationResult(
        visits=tuple(visits), steps=steps, seed=seed, empirical=tuple(empirical)
    )


def _float_row(cells: dict[int, int], den: int) -> tuple[list[int], list[float]]:
    """A row's nonzero targets and its thresholds: each exact int partial
    sum of its cells over ``den``, correctly rounded by one division, so
    they never decrease, equal sums are equal floats and the last is 1.0."""
    return list(cells), [acc / den for acc in accumulate(cells.values())]


def _class_row(bounds: list[float], bucket: int | None = None) -> list[int]:
    """Entry b is the class ``bisect_right(bounds, u)`` of every u in
    [b/256, (b+1)/256), or ``_CUT`` when a bound lies strictly inside the
    bucket.  With a ``bucket``, the entries split that bucket in 256: entry
    b is for the u in [(256*bucket + b)/65536, (256*bucket + b + 1)/65536).

    Class c takes the u in [bounds[c-1], bounds[c]), so the whole buckets
    in that span, the b with ceil(256 * bounds[c-1]) <= b < floor(256 *
    bounds[c]); the products are exact, as 256 is a power of 2.
    """
    scale, base, lo, hi = 256, 0, 0, len(bounds)
    if bucket is not None:
        # only the classes whose spans meet the bucket
        lo = bisect_right(bounds, bucket / 256)
        hi = bisect_left(bounds, (bucket + 1) / 256) + 1
        scale, base = 65536, 256 * bucket
    row = [_CUT] * 256
    low = 0
    for c, bound in enumerate(bounds[lo:hi], lo):
        high = min(floor(scale * bound) - base, 256)
        if high > low:
            row[low:high] = [c] * (high - low)
        low = max(ceil(scale * bound) - base, 0)
    return row


def _unit_float(word: int) -> float:
    """``random()``'s value from the 64-bit word of its two 32-bit draws,
    the first one in the low half."""
    return (((word & 0xFFFFFFFF) >> 5) << 26 | word >> 38) / 2**53

"""Reference implementations that the package's own routes are checked against."""

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, isqrt, lcm

from balchain.chains import StochasticMatrix, ValidationReport, _require_matrix
from balchain.steady import _SINGULAR, SolverError


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


def _gauss_weights(m: StochasticMatrix) -> list[int]:
    """``_solve_gauss``'s vector as primitive int weights: each entry times
    the lcm of the denominators, the form ``steady``'s eliminations return."""
    pi = _solve_gauss(m)
    d = lcm(*(p.denominator for p in pi))
    return [p.numerator * (d // p.denominator) for p in pi]


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


def abs_enclosure(r: Fraction, s: int, digits: int = 400) -> tuple[Fraction, Fraction]:
    """[lo, hi] holding |r + s*sqrt(2)|, from sqrt(2) enclosed directly at
    ``digits`` decimal digits: hi - lo <= |s| * 10**-digits, and lo == 0
    when the enclosure of r + s*sqrt(2) holds 0."""
    scale = 10**digits
    root = isqrt(2 * scale * scale)
    ends = (r + s * Fraction(root, scale), r + s * Fraction(root + 1, scale))
    lo, hi = min(ends), max(ends)
    if lo <= 0 <= hi:
        return Fraction(0), max(-lo, hi)
    return min(abs(lo), abs(hi)), max(abs(lo), abs(hi))


def assert_tight(bound: Fraction, r: Fraction, s: int, digits: int) -> None:
    """``bound`` is a certified upper bound on |r + s*sqrt(2)| to ``digits``
    significant digits: at least the 400-digit enclosure's lower end, and
    at most its upper end times 1 + 10**-(digits - 3)."""
    lo, hi = abs_enclosure(r, s)
    assert lo > 0 or hi == 0, "the 400-digit enclosure does not resolve |x|"
    assert lo <= bound, (r, s, digits)
    assert bound <= hi * (1 + Fraction(10) ** (3 - digits)), (r, s, digits)

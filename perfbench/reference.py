"""Independent exact references for the benchmark's output checks.

Nothing here imports balchain.  Stationary vectors are rebuilt from the
defining recurrences of the balancing-type sequences, limit values are
worked out in pairs of integers standing for a + b*sqrt(2), and sqrt(2)
itself is enclosed by integer square roots.  Every check raises
``CheckFailed`` with a one-line reason, so a wrong output is never silent.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

# x[k+1] = coeff*x[k] + back*x[k-1] + shift, from x[0] and x[1]
RECURRENCES = {
    "balancing": (6, 0, 0, 1, -1),
    "lucas-balancing": (6, 0, 1, 3, -1),
    "cobalancing": (6, 2, 0, 0, -1),
    "lucas-cobalancing": (6, 0, 1, 7, -1),
}

# (a, b) pairs for a + b*sqrt(2); BETA = 3 - 2*sqrt(2) is the limit ratio
BETA = (3, -2)

CSV_HEADER = "family,n,params,exact_match,max_gap"


class CheckFailed(Exception):
    """An output differs from its reference."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def terms(spec: tuple[int, int, int, int, int], count: int) -> list[int]:
    coeff, shift, prev, cur, back = spec
    out = []
    for _ in range(count):
        out.append(prev)
        prev, cur = cur, coeff * cur + back * prev + shift
    return out


def stationary(kind: str, n: int, a: int | None = None) -> list[Fraction]:
    """Closed-form stationary vector of a family; q never changes it."""
    base = kind[:-2] if kind.endswith("-q") else kind
    if base == "balancing":
        # 2*B(n-i)/b(n+1): the paper's form, via the cobalancing numbers
        b = terms(RECURRENCES["balancing"], n + 1)
        half = terms(RECURRENCES["cobalancing"], n + 2)[n + 1]
        return [Fraction(2 * b[n - i], half) for i in range(n)]
    if base in ("pell-ratio", "truncated-infinite"):
        b = terms(RECURRENCES["balancing"], n + 1)
        return [Fraction(b[n - i] - b[n - i - 1], b[n]) for i in range(n)]
    if base in ("lucas", "lucas-cobalancing"):
        seq = "lucas-balancing" if base == "lucas" else "lucas-cobalancing"
        x = terms(RECURRENCES[seq], n)
        total = sum(x)
        return [Fraction(x[n - 1 - i], total) for i in range(n)]
    if base == "balancing-like":
        x = terms((a, 0, 0, 1, -1), n + 1)
        total = sum(x[1:])
        return [Fraction(x[n - i], total) for i in range(n)]
    raise KeyError(f"no reference for family {kind!r}")


@contextmanager
def unlimited_int_digits():
    """Let the checker parse long decimals; the program's own limit is restored."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# --- exact vectors and matrices -------------------------------------------


def check_vector(pi: list[Fraction], ref: list[Fraction]) -> None:
    require(len(pi) == len(ref), f"vector has {len(pi)} entries, expected {len(ref)}")
    for i, (x, y) in enumerate(zip(pi, ref)):
        require(x == y, f"entry {i} is {x}, closed form gives {y}")


def check_stationary(rows: list[list[Fraction]], pi: list[Fraction]) -> None:
    """pi*P == pi and sum(pi) == 1, in Fractions."""
    n = len(rows)
    require(len(pi) == n, f"vector has {len(pi)} entries for a {n}-state chain")
    require(sum(pi) == 1, "probabilities do not sum to 1")
    image = [Fraction(0)] * n
    for weight, row in zip(pi, rows):
        for j, p in enumerate(row):
            if p:
                image[j] += weight * p
    for j in range(n):
        require(image[j] == pi[j], f"(pi*P)[{j}] != pi[{j}]")


def check_rows_stochastic(rows, which) -> None:
    for i in which:
        row = rows[i]
        require(all(x >= 0 for x in row), f"row {i} has a negative entry")
        require(sum(row) == 1, f"row {i} sums to {sum(row)}")


def check_matrix(m, n: int) -> None:
    """A built matrix: right size, boundary and middle rows exactly stochastic."""
    require(m.n == n, f"matrix has {m.n} states, expected {n}")
    check_rows_stochastic([m.row(i) for i in range(n)], sorted({0, 1, n // 2, n - 2, n - 1}))


def check_power(power, base, exponent: int, pi: list[Fraction]) -> None:
    """An exact matrix power: stochastic rows, the closed form stays fixed, and
    the first and last rows equal unit vectors stepped ``exponent`` times."""
    n = base.n
    rows = [power.row(i) for i in range(power.n)]
    require(power.n == n, f"matrix has {power.n} states, expected {n}")
    check_rows_stochastic(rows, range(n))
    check_stationary(rows, pi)
    step = [[(j, p) for j, p in enumerate(base.row(i)) if p] for i in range(n)]
    for start in (0, n - 1):
        v = [Fraction(int(i == start)) for i in range(n)]
        for _ in range(exponent):
            w = [Fraction(0)] * n
            for i, weight in enumerate(v):
                if weight:
                    for j, p in step[i]:
                        w[j] += weight * p
            v = w
        require(list(rows[start]) == v, f"row {start} is not row {start} of P**{exponent}")


def matrix_file_rows(text: str) -> list[list[Fraction]]:
    payload = json.loads(text)
    rows = [[Fraction(cell) for cell in row] for row in payload["rows"]]
    require(payload["n"] == len(rows), "matrix file: n does not match the rows")
    require(all(len(r) == len(rows) for r in rows), "matrix file: rows are not square")
    return rows


# --- floats against the closed form ----------------------------------------

POWER_TOL = 1e-7
SIMULATE_TOL = 0.01


def check_close(pi: list[float], ref: list[Fraction], tol: float) -> None:
    require(len(pi) == len(ref), f"vector has {len(pi)} entries, expected {len(ref)}")
    worst = max(abs(x - float(y)) for x, y in zip(pi, ref))
    require(worst <= tol, f"max deviation {worst:.3g} from the closed form exceeds {tol}")


# --- Z[sqrt(2)] and certified gaps -------------------------------------------


def qmul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def sqrt2_interval(digits: int) -> tuple[Fraction, Fraction]:
    scale = 10**digits
    lo = isqrt(2 * scale * scale)
    return Fraction(lo, scale), Fraction(lo + 1, scale)


def abs_interval(c: Fraction, b: int, digits: int) -> tuple[Fraction, Fraction]:
    """Interval holding |c + b*sqrt(2)|."""
    lo2, hi2 = sqrt2_interval(digits)
    ends = (c + b * lo2, c + b * hi2)
    lo, hi = min(ends), max(ends)
    if lo <= 0 <= hi:
        return Fraction(0), max(-lo, hi)
    return min(abs(lo), abs(hi)), max(abs(lo), abs(hi))


def truncation_gap(n: int, window: int = 8) -> tuple[Fraction, Fraction, int]:
    """Interval for max_i |pi_i - (BETA**i - BETA**(i+1))| of the size-n chain.

    Also returns the largest |b| of the limit values, which scales the slack
    a certified bound at finite precision may add.
    """
    pi = stationary("truncated-infinite", n)
    lo = hi = Fraction(0)
    power = (1, 0)
    biggest = 0
    for i in range(min(n, window)):
        nxt = qmul(power, BETA)
        a, b = power[0] - nxt[0], power[1] - nxt[1]
        biggest = max(biggest, abs(b))
        g_lo, g_hi = abs_interval(pi[i] - a, -b, 120)
        lo, hi = max(lo, g_lo), max(hi, g_hi)
        power = nxt
    return lo, hi, biggest


def ratio_gap(n: int, digits: int) -> tuple[Fraction, Fraction]:
    """Interval for |B(n-1)/B(n) - BETA|."""
    b = terms(RECURRENCES["balancing"], n + 1)
    return abs_interval(Fraction(b[n - 1], b[n]) - 3, 2, digits + 30)


ROUNDING = Fraction(1, 2**50)


def check_bound(reported: float, lo: Fraction, hi: Fraction, slack: Fraction, what: str) -> None:
    """A certified upper bound: never below the true value, never loose by more than slack."""
    value = Fraction(reported)
    require(value >= lo, f"{what}: bound {reported!r} is below the true gap")
    require(value <= (hi + slack) * (1 + ROUNDING), f"{what}: bound {reported!r} is too loose")


# --- large sequence terms ----------------------------------------------------


def witness(kind: str, x: int) -> None:
    """The defining square-root witness of a coefficient-6 sequence term."""
    if kind == "balancing":
        root = isqrt(8 * x * x + 1)
        require(root * root == 8 * x * x + 1, "8*B**2+1 is not a perfect square")
    elif kind == "cobalancing":
        root = isqrt(8 * x * x + 8 * x + 1)
        require(root * root == 8 * x * x + 8 * x + 1, "8*b**2+8*b+1 is not a perfect square")
    elif kind == "lucas-balancing":
        require(x % 2 == 1 and (x * x - 1) % 8 == 0, "C**2-1 is not 8 times an integer")
        root = isqrt((x * x - 1) // 8)
        require(root * root == (x * x - 1) // 8, "(C**2-1)/8 is not a perfect square")
    elif kind == "lucas-cobalancing":
        require(x % 2 == 1 and (x * x - 1) % 8 == 0, "c**2-1 is not 8 times an integer")
        pronic = (x * x - 1) // 8
        root = isqrt(pronic)
        require(root * (root + 1) == pronic, "(c**2-1)/8 is not b*(b+1)")
    else:
        raise KeyError(kind)


# two Mersenne primes: a term that matches both residues and the witness is
# the right term, found without a second big-integer computation
PRIMES = (2**61 - 1, 2**89 - 1)


def term_mod(kind: str, k: int, p: int) -> int:
    """k-th term of a coefficient-6 sequence modulo p, by a 3x3 matrix power."""
    coeff, shift, x0, x1, back = RECURRENCES[kind]
    if k == 0:
        return x0 % p
    step = [[coeff, back, shift], [1, 0, 0], [0, 0, 1]]

    def mul(x, y):
        return [[sum(x[i][m] * y[m][j] for m in range(3)) % p for j in range(3)] for i in range(3)]

    power = [[int(i == j) for j in range(3)] for i in range(3)]
    e = k - 1
    while e:
        if e & 1:
            power = mul(power, step)
        step = mul(step, step)
        e >>= 1
    return (power[0][0] * x1 + power[0][1] * x0 + power[0][2]) % p


def check_term(kind: str, k: int, x: int) -> None:
    """The square-root witness, and the residues that pin the index."""
    witness(kind, x)
    for p in PRIMES:
        require(x % p == term_mod(kind, k, p), f"term is not the index-{k} {kind} number")


def check_matrix_power(k: int, m) -> None:
    """((B[k+1], B[k]), (-B[k], -B[k-1])): witness, recurrence and determinant 1."""
    (b_next, b), (neg_b, neg_prev) = m
    require(neg_b == -b, "off-diagonal entries are not negatives of each other")
    require(b_next == 6 * b + neg_prev, "B[k+1] != 6*B[k] - B[k-1]")
    require(b_next * neg_prev - b * neg_b == 1, "determinant is not 1")
    check_term("balancing", k, b)


def check_sequence_text(kind: str, count: int, text: str) -> None:
    """``seq`` output: the right count, start and recurrence, and a witness."""
    with unlimited_int_digits():
        values = [int(line) for line in text.split()]
    require(len(values) == count, f"{len(values)} terms, expected {count}")
    coeff, shift, x0, x1, back = RECURRENCES[kind]
    require(values[:2] == [x0, x1][:count], "wrong initial terms")
    for k in range(2, count):
        if values[k] != coeff * values[k - 1] + back * values[k - 2] + shift:
            raise CheckFailed(f"term {k} breaks the recurrence")
    if count > 1:
        witness(kind, values[-1])


# --- CLI reports ---------------------------------------------------------------


def verify_rows(text: str) -> list[list[str]]:
    lines = text.strip().split("\n")
    require(lines[0] == CSV_HEADER, "verify: unexpected CSV header")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        require(row[-2:] == ["True", "0"], f"verify row {row[:2]} is not an exact match")
    return rows

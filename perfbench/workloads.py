"""The benchmark's four workloads, as seeded lists of operations.

Each operation is one call into balchain's public surface: either the CLI,
``balchain.cli.main(argv)``, or a top-level ``balchain.<name>`` function.
The seed picks families, ``a``, ``q``, simulation seeds and term indices;
sizes and operation counts are fixed per workload, so seeds vary the inputs
without changing how much work a pass does.  This module imports nothing
from balchain, so op lists can be built and compared without it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

KINDS = (
    "balancing",
    "balancing-q",
    "pell-ratio",
    "lucas",
    "lucas-q",
    "lucas-cobalancing",
    "truncated-infinite",
    "truncated-infinite-q",
    "balancing-like",
    "balancing-like-q",
)
Q_FREE = tuple(k for k in KINDS if not k.endswith("-q"))
# the sequences with coefficient 6, whose terms pass 4300 digits near index 5600
SIX_KINDS = ("balancing", "lucas-balancing", "cobalancing", "lucas-cobalancing")

# offsets d in q = 1/(coeff + d): q stays within 0 < q <= 1/coeff
Q_OFFSETS = (0, 1, 2, 4, 6, 14, 44, 94, 994)


@dataclass(frozen=True)
class Family:
    """A chain family instance, named the way the CLI names it."""

    kind: str
    n: int
    a: int | None = None
    q: Fraction | None = None

    def flags(self) -> tuple[str, ...]:
        out = ("--n", str(self.n))
        if self.a is not None:
            out += ("--a", str(self.a))
        if self.q is not None:
            out += ("--q", str(self.q))
        return out

    def params(self) -> str:
        """The params column of a ``verify`` CSV row."""
        parts = []
        if self.a is not None:
            parts.append(f"a={self.a}")
        if self.q is not None:
            parts.append(f"q={self.q}")
        return ";".join(parts)


@dataclass(frozen=True)
class Stored:
    """Placeholder for the result an earlier op of the same pass stored."""

    key: str


@dataclass(frozen=True)
class SequenceName:
    """Placeholder for a named balchain.SequenceKind constant."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Op:
    """One timed call.  ``call`` is "cli" or a top-level balchain function."""

    label: str
    call: str
    args: tuple
    check: str
    expect: tuple = ()
    store: str = ""


def family(rng: random.Random, kind: str, n: int, a_range=range(2, 13), q=None) -> Family:
    """A family of the kind at size n; a from a_range, q as given if allowed, else drawn."""
    a = rng.choice(a_range) if kind.startswith("balancing-like") else None
    if kind.endswith("-q"):
        coeff = a if a is not None else 6
        if q is None or q > Fraction(1, coeff):
            q = Fraction(1, coeff + rng.choice(Q_OFFSETS))
    else:
        q = None
    return Family(kind, n, a, q)


def cli(argv: tuple[str, ...], check: str, *expect) -> Op:
    return Op(" ".join(argv), "cli", argv, check, expect)


def api(name: str, args: tuple, check: str, *expect, store: str = "") -> Op:
    shown = ", ".join(a.key if isinstance(a, Stored) else _show(a) for a in args)
    return Op(f"{name}({shown})", name, args, check, expect, store)


def _show(value) -> str:
    if isinstance(value, Family):
        return f"{value.kind}({','.join(value.flags()[1::2])})"
    return str(value)


# --- verify-sweep: hundreds of small exact problems through the CLI ---------

SWEEP_MAX_N = 40
ALL_MAX_N = 25
# rows of `verify --all --max-n 25`: four kinds and five balancing-like
# multipliers from n=3, lucas-cobalancing from n=4, four q-invariance rows
# and the beta-power row
ALL_ROWS = 9 * (ALL_MAX_N - 2) + (ALL_MAX_N - 3) + 4 + 1


def min_n(kind: str) -> int:
    return 4 if kind == "lucas-cobalancing" else 3


def verify_sweep(rng: random.Random) -> list[Op]:
    ops = []
    for kind in KINDS:
        for n in range(min_n(kind), SWEEP_MAX_N + 1):
            fam = family(rng, kind, n)
            ops.append(cli(("verify", kind, *fam.flags()), "verify_one", fam))
    ops.append(cli(("verify", "--all", "--max-n", str(ALL_MAX_N)), "verify_all", ALL_ROWS))
    rng.shuffle(ops)
    return ops


# --- exact-large: few large exact problems, the dense Fraction work ----------

# every kind is built, validated and solved once at the same size, so a seed
# changes only a and q, and the sorted op latencies keep one shape: cheap
# builds, a block of validates holding the median op, a block of exact
# solves holding the tail op, then the few heaviest ops
SOLVE_N = 150
VALIDATE_N = 400
ROUND_TRIP_N = 150
LIMIT_SIZES = (50, 100, 200)
N_STEP = (50, 64)
# kinds whose entries are all sixths, so every seed's matrix power grows
# denominators alike; small q would make n_step many times slower
SIXTHS = ("balancing", "pell-ratio", "lucas", "truncated-infinite")


def exact_large(rng: random.Random) -> list[Op]:
    ops = []
    for i, kind in enumerate(rng.sample(KINDS, len(KINDS))):
        fam = family(rng, kind, SOLVE_N)
        key = f"m{i}"
        ops.append(api("build", (fam,), "matrix", fam, store=key))
        ops.append(api("validate", (Stored(key),), "validation", fam))
        ops.append(api("solve_exact", (Stored(key),), "vector", fam))
    fam = family(rng, rng.choice(KINDS), VALIDATE_N)
    ops.append(api("build", (fam,), "matrix", fam, store="m_large"))
    ops.append(api("validate", (Stored("m_large"),), "validation", fam))
    fam = family(rng, rng.choice(KINDS), ROUND_TRIP_N)
    path = "{tmp}/chain.json"
    ops.append(cli(("chain", fam.kind, *fam.flags(), "--format", "json", "--out", path), "chain_file", fam, path))
    ops.append(cli(("solve", "--matrix-file", path, "--format", "json"), "solve_matrix_file", fam, path))
    sizes = ",".join(map(str, LIMIT_SIZES))
    ops.append(cli(("limit", "--sizes", sizes), "limit_sizes", LIMIT_SIZES, 50))
    n, power = N_STEP
    fam = Family(rng.choice(SIXTHS), n)
    ops.append(api("build", (fam,), "matrix", fam, store="m_step"))
    ops.append(api("n_step", (Stored("m_step"), power), "power", fam))
    return ops


# --- float-routes: power iteration and simulation, never solve_exact ---------

# blocks of alike ops, sized so that the median op and the tail op both fall
# inside the block of small slow-mixing chains, whose kinds are fixed
FAST = (50, Fraction(1, 7), 7)
SIMULATE = ((12, 10**6), (12, 10**6), (50, 10**6), (50, 10**6))
# slow-mixing chains: two kinds that differ only in the last row, so they
# need about the same number of iterations
SLOW_KINDS = ("balancing-q", "truncated-infinite-q")
SLOW_SMALL = (12, Fraction(1, 1000), 8)
SLOW_LARGE = ((50, Fraction(1, 100)), (50, Fraction(1, 100)), (50, Fraction(1, 1000)))


def float_routes(rng: random.Random) -> list[Op]:
    ops = []
    for n, steps in SIMULATE:
        # q-free chains with a >= 4 mix fast enough for 1e6 steps to land
        # within the simulation tolerance of the closed form
        fam = family(rng, rng.choice(Q_FREE), n, a_range=range(4, 11))
        seed = rng.randrange(2**31)
        argv = ("solve", fam.kind, *fam.flags(), "--method", "simulate",
                "--steps", str(steps), "--seed", str(seed), "--format", "json")
        ops.append(cli(argv, "simulate_json", fam, steps, seed))
    n, q, count = FAST
    # a >= 5 keeps the balancing-like chains as fast-mixing as the others
    fams = [family(rng, kind, n, a_range=range(5, 8), q=q) for kind in rng.sample(KINDS, count)]
    n, q, repeat = SLOW_SMALL
    fams += [Family(kind, n, None, q) for kind in SLOW_KINDS * repeat]
    fams += [Family(rng.choice(SLOW_KINDS), n, None, q) for n, q in SLOW_LARGE]
    for fam in fams:
        ops.append(cli(("solve", fam.kind, *fam.flags(), "--method", "power", "--format", "json"), "power_json", fam))
    rng.shuffle(ops)
    return ops


# --- ring-limit: big integers in sequences and quadratic ----------------------

# (index, spread): the seed takes the index down by less than spread
TERMS = ((100_000, 1000),) + ((30_000, 300),) * 2 + ((10_000, 100),) * 6 + ((3_000, 30),) * 6
MATRIX_POWERS = ((10_000, 100),) + ((3_000, 30),) * 3
BETA_MAX_N = 600
RATIOS = ((120, 2000), (40, 500))
LIMIT_DIGITS = ((8, 16, 32), 3000)
# counts on both sides of the ~5,600-term limit where coefficient-6 terms
# pass 4300 decimal digits; count 6000 fails today with exit 2
SEQ_COUNTS = (2000, 5000, 6000)


def ring_limit(rng: random.Random) -> list[Op]:
    ops = []
    for k, spread in TERMS:
        kind = rng.choice(SIX_KINDS)
        k -= rng.randrange(spread)
        ops.append(api("term", (SequenceName(kind), k), "term", kind, k))
    for k, spread in MATRIX_POWERS:
        k -= rng.randrange(spread)
        ops.append(api("balancing_matrix_power", (k,), "matrix_power", k))
    ops.append(cli(("verify", "--beta-powers", "--max-n", str(BETA_MAX_N)), "verify_beta", BETA_MAX_N))
    for max_n, digits in RATIOS:
        argv = ("limit", "--ratio", "--max-n", str(max_n), "--digits", str(digits))
        ops.append(cli(argv, "limit_ratio", max_n, digits))
    sizes, digits = LIMIT_DIGITS
    argv = ("limit", "--sizes", ",".join(map(str, sizes)), "--digits", str(digits))
    ops.append(cli(argv, "limit_sizes", sizes, digits))
    for count in SEQ_COUNTS:
        kind = rng.choice(SIX_KINDS)
        ops.append(cli(("seq", kind, "--count", str(count)), "seq", kind, count))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "verify-sweep": verify_sweep,
    "exact-large": exact_large,
    "float-routes": float_routes,
    "ring-limit": ring_limit,
}


def ops_for(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(seed))

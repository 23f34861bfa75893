"""Closed-form stationary vectors and mechanized cross-checks.

For every chain family the stationary distribution has a closed form in
balancing-type numbers.  ``verify_family`` recomputes it from the sequence
recurrences and demands exact fraction equality with ``solve_exact``, which
solves the balance equations from the matrix entries alone and so shares
nothing with the sequence recurrences.  The truncation study bounds how
fast the finite chains approach the infinite-state limit, with certified
rational error bounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .chains import (
    ChainFamily,
    ParameterError,
    balancing_chain,
    balancing_chain_q,
    balancing_like_chain,
    balancing_like_chain_q,
    build,
    lucas_chain,
    lucas_chain_q,
    truncated_infinite_chain,
    truncated_infinite_chain_q,
)
from .quadratic import BETA, ONE, float_upper, gap_bound, infinite_steady_state
from .sequences import (
    BALANCING,
    LUCAS_BALANCING,
    LUCAS_COBALANCING,
    balancing_like,
    sequence,
    term,
)
from .steady import solve_exact

__all__ = [
    "VerificationReport",
    "QInvarianceReport",
    "closed_form",
    "verify_family",
    "q_invariance",
    "truncation_gap_bound",
    "truncation_convergence",
    "unnormalized_recursion_check",
    "infinite_recursion_identity",
    "report_to_json",
    "reports_to_csv",
]

_REVERSED_INDEX_NOTE = (
    "entries are proportional to the reversed sequence ({first}..{last}); the "
    "forward-indexed variant {variant} contradicts the boundary balance "
    "equation pi[n-2] = {ratio}*pi[n-1]"
)

_NOTES = {
    "balancing": (
        "entries 2*B(n-i)/b(n+1): reversed balancing numbers over half the "
        "(n+1)-st cobalancing number; the constant-in-i rendering 2*P(2n)/sum "
        "only matches entry 0"
    ),
    "balancing-q": (
        "same stationary vector as the q-free balancing chain for every "
        "0 < q <= 1/6"
    ),
    "pell-ratio": _REVERSED_INDEX_NOTE.format(
        first="B(n)-B(n-1)",
        last="B(1)-B(0)",
        variant="(B(n+i)-B(n+i-1))/B(n)",
        ratio=5,
    )
    + "; the constant-in-i rendering 2*P(2n-1)/P(2n) only matches entry 0",
    "truncated-infinite": (
        "finite reflection of the infinite-state chain; identical matrix and "
        "vector to pell-ratio"
    ),
    "truncated-infinite-q": (
        "same stationary vector as the q-free truncated chain for every "
        "0 < q <= 1/6"
    ),
    "lucas": _REVERSED_INDEX_NOTE.format(
        first="C(n-1)", last="C(0)", variant="C(n-i)/sum(C(1)..C(n))", ratio=3
    ),
    "lucas-q": (
        "same stationary vector as the q-free lucas chain for every 0 < q <= 1/6"
    ),
    "lucas-cobalancing": _REVERSED_INDEX_NOTE.format(
        first="c(n-1)", last="c(0)", variant="c(n-i)/sum(c(1)..c(n))", ratio=7
    ),
    "balancing-like": "entries x(n-i)/sum(x(1)..x(n)) for the order-a sequence",
    "balancing-like-q": (
        "same stationary vector as the q-free balancing-like chain for every "
        "0 < q <= 1/a"
    ),
}


@dataclass
class VerificationReport:
    """Closed form vs. exact solver for one family instance."""

    family: ChainFamily
    predicted: list[Fraction]
    solved: list[Fraction]
    exact_match: bool
    max_gap: Fraction
    notes: str


@dataclass
class QInvarianceReport:
    """Exact agreement of stationary vectors across a set of q values."""

    kind: str
    n: int
    a: int | None
    q_values: list[Fraction]
    identical: bool
    matches_base: bool
    vector: list[Fraction]


def _normalized_suffix(values: list[int]) -> list[Fraction]:
    total = sum(values)
    return [Fraction(v, total) for v in reversed(values)]


def closed_form(family: ChainFamily) -> list[Fraction]:
    """Predicted stationary vector, straight from the sequence recurrences."""
    n = family.n
    kind = family.kind
    if kind in ("balancing", "balancing-q"):
        return _normalized_suffix(sequence(BALANCING, n + 1)[1:])
    if kind in ("pell-ratio", "truncated-infinite", "truncated-infinite-q"):
        b = sequence(BALANCING, n + 1)
        return [Fraction(b[n - i] - b[n - i - 1], b[n]) for i in range(n)]
    if kind in ("lucas", "lucas-q"):
        return _normalized_suffix(sequence(LUCAS_BALANCING, n))
    if kind == "lucas-cobalancing":
        return _normalized_suffix(sequence(LUCAS_COBALANCING, n))
    if kind in ("balancing-like", "balancing-like-q"):
        return _normalized_suffix(sequence(balancing_like(family.a), n + 1)[1:])
    raise ParameterError(f"no closed form for family {kind!r}")


def verify_family(family: ChainFamily) -> VerificationReport:
    """Compare the closed form against the exact solver, entry by entry."""
    predicted = closed_form(family)
    solved = solve_exact(build(family))
    gaps = [abs(p - s) for p, s in zip(predicted, solved)]
    max_gap = max(gaps) if gaps else Fraction(0)
    return VerificationReport(
        family=family,
        predicted=predicted,
        solved=solved,
        exact_match=predicted == solved,
        max_gap=max_gap,
        notes=_NOTES[family.kind],
    )


_Q_FAMILIES = {
    "balancing": (balancing_chain, balancing_chain_q),
    "lucas": (lucas_chain, lucas_chain_q),
    "truncated-infinite": (truncated_infinite_chain, truncated_infinite_chain_q),
    "balancing-like": (balancing_like_chain, balancing_like_chain_q),
}


def q_invariance(
    base_n: int, q_values: list[Fraction], kind: str, a: int | None = None
) -> QInvarianceReport:
    """Check the stationary vector is the same fraction vector for every q."""
    if kind not in _Q_FAMILIES:
        raise ParameterError(f"no q-parameterized variant for {kind!r}")
    base_factory, q_factory = _Q_FAMILIES[kind]
    if kind == "balancing-like":
        if a is None:
            raise ParameterError("balancing-like q-invariance needs the multiplier a")
        base_vector = solve_exact(build(base_factory(base_n, a)))
        vectors = [solve_exact(build(q_factory(base_n, a, q))) for q in q_values]
    else:
        base_vector = solve_exact(build(base_factory(base_n)))
        vectors = [solve_exact(build(q_factory(base_n, q))) for q in q_values]
    identical = all(v == vectors[0] for v in vectors)
    return QInvarianceReport(
        kind=kind,
        n=base_n,
        a=a,
        q_values=[Fraction(q) for q in q_values],
        identical=identical,
        matches_base=identical and vectors[0] == base_vector,
        vector=base_vector,
    )


def truncation_gap_bound(n: int, window: int = 8, digits: int = 50) -> Fraction:
    """Certified L-infinity bound between the size-n chain and the limit.

    Compares the first min(n, window) exact stationary probabilities of the
    truncated chain against the ring values BETA**i - BETA**(i+1), enclosing
    the latter at the given decimal precision.
    """
    if n < 3:
        raise ValueError(f"size must be >= 3, got {n}")
    solved = solve_exact(build(truncated_infinite_chain(n)))
    exact_limit = infinite_steady_state(min(n, window))
    return max(
        gap_bound(solved[i], exact_limit[i], digits) for i in range(len(exact_limit))
    )


def truncation_convergence(
    sizes: list[int], window: int = 8, digits: int = 50
) -> list[tuple[int, float]]:
    """(n, gap) rows for each requested size; gaps round up, never down."""
    if not sizes:
        raise ValueError("need at least one size")
    return [(n, float_upper(truncation_gap_bound(n, window, digits))) for n in sizes]


def infinite_recursion_identity(i: int) -> bool:
    """Exact ring check: BETA**i - BETA**(i+1) == (B[i+1]-B[i])*(1-BETA) - 4*B[i]."""
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    lhs = BETA**i - BETA ** (i + 1)
    b_i = term(BALANCING, i)
    b_next = term(BALANCING, i + 1)
    rhs = (ONE - BETA) * (b_next - b_i) - 4 * b_i
    return lhs == rhs


def unnormalized_recursion_check(n: int, count: int, digits: int = 50) -> bool:
    """Check pi[i] ~= (B[i+1]-B[i])*pi[0] - 4*B[i] on the size-n chain.

    The limit values satisfy the relation exactly, so the residual of the
    truncated solution is bounded by its per-entry distance to the limit;
    the comparison uses those certified bounds, nothing looser.
    """
    window = min(n, 8)
    if not 1 <= count <= window - 1:
        raise ValueError(f"count must be in 1..{window - 1}, got {count}")
    solved = solve_exact(build(truncated_infinite_chain(n)))
    exact_limit = infinite_steady_state(window)
    bounds = [gap_bound(solved[i], exact_limit[i], digits) for i in range(window)]
    b = sequence(BALANCING, count + 2)
    for i in range(1, count + 1):
        coefficient = b[i + 1] - b[i]
        residual = abs(solved[i] - (coefficient * solved[0] - 4 * b[i]))
        if residual > bounds[i] + coefficient * bounds[0]:
            return False
    return True


def _family_params(family: ChainFamily) -> dict:
    params: dict = {}
    if family.a is not None:
        params["a"] = family.a
    if family.q is not None:
        params["q"] = str(family.q)
    return params


def report_to_json(report: VerificationReport) -> str:
    return json.dumps(
        {
            "family": report.family.kind,
            "n": report.family.n,
            "params": _family_params(report.family),
            "predicted": [str(x) for x in report.predicted],
            "solved": [str(x) for x in report.solved],
            "exact_match": report.exact_match,
            "max_gap": str(report.max_gap),
            "notes": report.notes,
        }
    )


def reports_to_csv(reports: list[VerificationReport]) -> str:
    lines = ["family,n,params,exact_match,max_gap"]
    for r in reports:
        params = ";".join(f"{k}={v}" for k, v in _family_params(r.family).items())
        lines.append(
            f"{r.family.kind},{r.family.n},{params},{r.exact_match},{r.max_gap}"
        )
    return "\n".join(lines)

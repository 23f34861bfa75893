"""Closed-form stationary vectors and mechanized cross-checks.

For every chain family the stationary distribution has a closed form in
balancing-type numbers.  ``verify_family`` recomputes its integer weights
from the sequence recurrences and demands that ``solve_exact``'s vector,
which solves the balance equations from the matrix entries alone and so
shares nothing with the sequence recurrences, equals those weights over
their sum exactly, decided by cross-multiplying integers.  The truncation
study bounds how fast the finite chains approach the infinite-state limit,
with certified rational error bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise

from .chains import KINDS, ChainFamily, ParameterError, _require_family, build, truncated_infinite_chain
from .quadratic import (
    BETA,
    ONE,
    float_upper,
    gap_bound,
    infinite_steady_state,
)
from .sequences import (
    BALANCING,
    RecurrenceSpec,
    SequenceKind,
    _balancing_pair,
    _is_int,
    _recurrence,
    _require_int,
    sequence,
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
    "report_row",
    "q_invariance_row",
    "beta_power_row",
    "rows_to_csv",
]


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


def _require_list(name: str, value: object) -> None:
    if not isinstance(value, (list, tuple)):
        raise ParameterError(f"{name} must be a list or tuple, got {type(value).__name__}")


def _weights(family: ChainFamily) -> list[int]:
    """The closed form's integer weights x(n), ..., x(1): pi[i] is x(n-i)
    over their sum."""
    _require_family(family)
    spec = KINDS[family.kind]
    kind = SequenceKind(spec.name, RecurrenceSpec(family.coeff, 0, spec.x0, 1))
    return sequence(kind, family.n + 1)[:0:-1]


def closed_form(family: ChainFamily) -> list[Fraction]:
    """Predicted stationary vector, straight from the sequence recurrences.

    pi[i] is x(n-i)/sum(x(1)..x(n)) for x(k+1) = coeff*x(k) - x(k-1) with
    x(1) = 1 and the kind's x(0).  x(0) = 0 makes x(k) the balancing number
    B(k) (the order-a sequence for a kind with a), 1 makes it B(k)-B(k-1),
    and 3 and -1 make it the Lucas-balancing C(k-1) and Lucas-cobalancing
    c(k-1) numbers.  A ``family`` that is not a ChainFamily raises
    ParameterError.
    """
    x = _weights(family)
    total = sum(x)
    return [Fraction(v, total) for v in x]


def verify_family(family: ChainFamily) -> VerificationReport:
    """Compare the closed form against the exact solver, entry by entry.

    The match is decided on integers: with x the closed form's weights and
    S their sum, each solved entry s must have s.numerator*S equal to
    x[i]*s.denominator, which is exact whether or not x[i]/S is reduced.
    On a match ``predicted`` is a copy of ``solved``, the same values; only
    a mismatch builds the closed form's Fractions and its largest gap.  A
    ``family`` that is not a ChainFamily raises ParameterError.
    """
    x = _weights(family)
    solved = solve_exact(build(family))
    total = sum(x)
    exact_match = len(x) == len(solved) and all(
        s.numerator * total == v * s.denominator for v, s in zip(x, solved)
    )
    if exact_match:
        predicted = list(solved)
        max_gap = Fraction(0)
    else:
        predicted = [Fraction(v, total) for v in x]
        max_gap = max(abs(p - s) for p, s in zip(predicted, solved))
    return VerificationReport(
        family=family,
        predicted=predicted,
        solved=solved,
        exact_match=exact_match,
        max_gap=max_gap,
        notes=KINDS[family.kind].note,
    )


def q_invariance(
    base_n: int, q_values: list[Fraction], kind: str, a: int | None = None
) -> QInvarianceReport:
    """Check the stationary vector is the same fraction vector for every q.

    ``kind`` is a q-free kind whose q-family is registered as ``kind + "-q"``;
    ``a`` is given exactly when the kind takes it.  ``q_values`` is a
    non-empty list or tuple, read once.  A ``kind`` that is not such a
    kind's name, a non-string included, raises ParameterError.
    """
    if not isinstance(kind, str) or kind not in KINDS or kind + "-q" not in KINDS:
        raise ParameterError(f"no q-parameterized variant for {kind!r}")
    q_kind = kind + "-q"
    _require_list("q_values", q_values)
    if not q_values:
        raise ParameterError("q_invariance needs at least one q")
    base_vector = solve_exact(build(ChainFamily(kind, base_n, a)))
    families = [ChainFamily(q_kind, base_n, a, q) for q in q_values]
    vectors = [solve_exact(build(f)) for f in families]
    identical = all(v == vectors[0] for v in vectors)
    return QInvarianceReport(
        kind=kind,
        n=base_n,
        a=a,
        q_values=[f.q for f in families],
        identical=identical,
        matches_base=identical and vectors[0] == base_vector,
        vector=base_vector,
    )


# the truncated chains are compared with the infinite-state limit on this
# many leading entries at most
_HEAD = 8


def _head_bounds(n: int, digits: int) -> tuple[list[Fraction], list[Fraction]]:
    """The size-n truncated chain's stationary vector, and certified bounds
    on the gaps between its first min(n, _HEAD) entries and the limit's."""
    solved = solve_exact(build(truncated_infinite_chain(n)))
    limit = infinite_steady_state(min(n, _HEAD))
    return solved, [gap_bound(p, x, digits) for p, x in zip(solved, limit)]


def truncation_gap_bound(n: int, digits: int = 50) -> Fraction:
    """Certified bound on the largest gap over the first min(n, 8) entries
    of the size-n chain's stationary vector and of the limit.

    Each exact probability's gap to BETA**i - BETA**(i+1) is bounded by
    ``gap_bound`` to ``digits`` significant digits, however small the gap.
    Later entries are not compared, though the whole vector's largest gap
    is at the last one (about 0.83*BETA**n).
    """
    return max(_head_bounds(n, digits)[1])


def truncation_convergence(sizes: list[int], digits: int = 50) -> list[tuple[int, float]]:
    """(n, truncation_gap_bound(n, digits)) rounded up to a float, for each
    requested size: a bound over the first min(n, 8) entries.  A bound
    below the float range rounds up to a subnormal or 5e-324, never to
    0.0.  ``sizes`` is a list or tuple, or ParameterError is raised."""
    _require_list("sizes", sizes)
    if not sizes:
        raise ValueError("need at least one size")
    return [(n, float_upper(truncation_gap_bound(n, digits))) for n in sizes]


def infinite_recursion_identity(i: int) -> bool:
    """Exact ring check: BETA**i - BETA**(i+1) == (B[i+1]-B[i])*(1-BETA) - 4*B[i]."""
    _require_int("index", i, 1)
    lhs = BETA**i - BETA ** (i + 1)
    b_i, b_next = _balancing_pair(i)
    rhs = (ONE - BETA) * (b_next - b_i) - 4 * b_i
    return lhs == rhs


def unnormalized_recursion_check(n: int, count: int, digits: int = 50) -> bool:
    """Check pi[i] ~= (B[i+1]-B[i])*pi[0] - 4*B[i] on the size-n chain.

    The limit values satisfy the relation exactly, so the residual of the
    truncated solution is bounded by its per-entry distance to the limit;
    the comparison uses those certified bounds, nothing looser.
    """
    _require_int("n", n)
    _require_int("count", count)
    head = min(n, _HEAD)
    if not 1 <= count <= head - 1:
        raise ValueError(f"count must be in 1..{head - 1}, got {count}")
    solved, bounds = _head_bounds(n, digits)
    b = sequence(BALANCING, count + 2)
    for i in range(1, count + 1):
        coefficient = b[i + 1] - b[i]
        residual = abs(solved[i] - (coefficient * solved[0] - 4 * b[i]))
        if residual > bounds[i] + coefficient * bounds[0]:
            return False
    return True


def _row(label: str, n: int, params: dict, ok: bool, max_gap: str, notes: str) -> dict:
    return {
        "family": label,
        "n": n,
        "params": params,
        "exact_match": ok,
        "max_gap": max_gap,
        "notes": notes,
    }


def report_row(report: VerificationReport) -> dict:
    """The summary row of one family check, as the verify command reports
    it; a ``report`` that is not a VerificationReport raises ParameterError."""
    if not isinstance(report, VerificationReport):
        raise ParameterError(f"report must be a VerificationReport, got {report!r}")
    f = report.family
    params: dict = {}
    if f.a is not None:
        params["a"] = f.a
    if f.q is not None:
        params["q"] = str(f.q)
    return _row(f.kind, f.n, params, report.exact_match, str(report.max_gap), report.notes)


def q_invariance_row(report: QInvarianceReport) -> dict:
    """The summary row of one q-invariance check; a ``report`` that is not
    a QInvarianceReport raises ParameterError."""
    if not isinstance(report, QInvarianceReport):
        raise ParameterError(f"report must be a QInvarianceReport, got {report!r}")
    params: dict = {"q": [str(q) for q in report.q_values]}
    if report.a is not None:
        params["a"] = report.a
    ok = report.identical and report.matches_base
    return _row(
        f"q-invariance:{report.kind}",
        report.n,
        params,
        ok,
        "0" if ok else "mismatch",
        "stationary vector is identical across all listed q",
    )


def beta_power_row(max_n: int) -> dict:
    """Summary row of ``beta_power_identity`` for every n in 1..max_n.

    One walk over n: BETA**(n+1) = a + b*sqrt(2) is carried as the int
    pair (a, b), which one multiply by BETA = 3 - 2*sqrt(2) maps to
    (3a - 4b, 3b - 2a), and (B[n], B[n+1]) by the balancing recurrence.
    Each step compares the pair with BETA*B[n+1] - B[n] =
    (3*B[n+1] - B[n], -2*B[n+1]), the same exact check in Z[sqrt(2)] with
    no QuadInt built, so the row costs O(max_n) small-by-big products
    where a ``beta_power_identity`` call per n would redo the power and two
    terms each time.  It stops at the first n that fails.
    """
    if not _is_int(max_n) or max_n < 1:
        raise ParameterError(f"beta_power_row needs an integer max_n >= 1, got {max_n!r}")
    r = BALANCING.recurrence
    terms = pairwise(_recurrence(r, max_n + 2, r.x0, r.x1))
    next(terms)  # (B[0], B[1])
    c, d = BETA.a, BETA.b  # 3, -2
    a, b = c, d
    ok = True
    for b_cur, b_next in terms:
        a, b = c * a + 2 * d * b, d * a + c * b
        if a != c * b_next - b_cur or b != d * b_next:
            ok = False
            break
    return _row(
        "beta-power-identity",
        max_n,
        {},
        ok,
        "0" if ok else "mismatch",
        "BETA**(n+1) == BETA*B[n+1] - B[n] checked exactly in Z[sqrt(2)]",
    )


_CSV_COLUMNS = ("family", "n", "params", "exact_match", "max_gap")


def rows_to_csv(rows: list[dict]) -> str:
    """The rows as the verify command's CSV; ``rows`` is a list or tuple of
    mappings that hold every column, ``params`` as a mapping, or
    ParameterError is raised."""
    _require_list("rows", rows)
    lines = [",".join(_CSV_COLUMNS)]
    for r in rows:
        try:
            params = ";".join(f"{k}={v}" for k, v in r["params"].items())
            lines.append(f"{r['family']},{r['n']},{params},{r['exact_match']},{r['max_gap']}")
        except (TypeError, KeyError, AttributeError):
            columns = ", ".join(_CSV_COLUMNS)
            raise ParameterError(
                f"each row must be a mapping of {columns} with mapping params, got {r!r}"
            ) from None
    return "\n".join(lines)


import json
import random
import re
from fractions import Fraction

import pytest

from balchain import quadratic, verify
from balchain.chains import (
    KINDS,
    ChainFamily,
    ParameterError,
    balancing_chain,
    balancing_chain_q,
    balancing_like_chain,
    build,
    lucas_chain,
    lucas_chain_q,
    lucas_cobalancing_chain,
    pell_ratio_chain,
    truncated_infinite_chain,
)
from balchain.cli import main
from balchain.quadratic import BETA, ONE, QuadInt, gap_bound, infinite_steady_state
from balchain.sequences import BALANCING, COBALANCING, PELL, sequence, term
from balchain.steady import solve_exact
from balchain.verify import (
    closed_form,
    infinite_recursion_identity,
    q_invariance,
    q_invariance_row,
    report_row,
    rows_to_csv,
    truncation_convergence,
    truncation_gap_bound,
    unnormalized_recursion_check,
    verify_family,
)

R = Fraction


def test_closed_form_frozen_examples():
    assert closed_form(balancing_chain(3)) == [R(35, 42), R(6, 42), R(1, 42)]
    assert closed_form(lucas_chain(3)) == [R(17, 21), R(3, 21), R(1, 21)]
    assert closed_form(pell_ratio_chain(3)) == [R(29, 35), R(5, 35), R(1, 35)]
    assert closed_form(balancing_like_chain(4, 3)) == [
        R(21, 33),
        R(8, 33),
        R(3, 33),
        R(1, 33),
    ]


def test_closed_form_balancing_normalizer_is_half_cobalancing():
    for n in (3, 8, 15):
        pi = closed_form(balancing_chain(n))
        b_next = term(COBALANCING, n + 1)
        assert b_next % 2 == 0
        assert sum(sequence(BALANCING, n + 1)) == b_next // 2
        assert pi[n - 1] == R(2, b_next)  # smallest entry is 2*B[1]/b[n+1]


def test_closed_form_numerators_are_pell_numbers():
    n = 9
    b = sequence(BALANCING, n + 1)
    pell = sequence(PELL, 2 * n + 1)
    for i, entry in enumerate(closed_form(balancing_chain(n))):
        assert entry == R(pell[2 * (n - i)], 2 * sum(b))
    for i, entry in enumerate(closed_form(pell_ratio_chain(n))):
        assert entry == R(pell[2 * (n - i) - 1], b[n])


@pytest.mark.parametrize(
    "family",
    [
        *(balancing_chain(n) for n in range(3, 13)),
        *(pell_ratio_chain(n) for n in range(3, 13)),
        *(lucas_chain(n) for n in range(3, 13)),
        *(lucas_cobalancing_chain(n) for n in range(4, 13)),
        *(truncated_infinite_chain(n) for n in range(3, 13)),
        *(balancing_like_chain(n, a) for a in (2, 3, 4, 6, 10) for n in (3, 7, 10)),
        balancing_chain_q(10, R(1, 17)),
        lucas_chain_q(10, R(1, 13)),
    ],
    ids=lambda f: f.label,
)
def test_verify_family_matches(family):
    report = verify_family(family)
    assert report.exact_match
    assert report.max_gap == 0
    assert report.predicted == report.solved


@pytest.mark.parametrize("kind", KINDS)
def test_verify_family_reports_the_closed_form_and_the_solver(kind):
    spec = KINDS[kind]
    rng = random.Random(kind)
    for n in range(spec.min_n, 41):
        a = rng.randint(2, 12) if spec.takes_a else None
        den = rng.randint(1, 50)
        q = R(rng.randint(1, den), den * (a or 6)) if spec.takes_q else None
        family = ChainFamily(kind, n, a, q)
        report = verify_family(family)
        assert report.exact_match and report.max_gap == 0
        assert report.predicted == closed_form(family)
        assert report.solved == solve_exact(build(family))


@pytest.mark.parametrize(
    "family",
    [
        balancing_chain(5),
        lucas_cobalancing_chain(7),
        balancing_like_chain(6, 2),
        balancing_chain_q(9, R(1, 7)),
        truncated_infinite_chain(12),
    ],
    ids=lambda f: f.label,
)
def test_verify_family_decides_on_the_weights(monkeypatch, family):
    x = verify._weights(family)
    assert closed_form(family) == [R(v, sum(x)) for v in x]
    solved = solve_exact(build(family))
    changed = [[*x[:i], x[i] + d, *x[i + 1 :]] for i in range(len(x)) for d in (1, -1)]
    # a trailing zero weight keeps the sum: only the length tells it apart
    for mutant in (*changed, x[::-1], [*x, 0]):
        monkeypatch.setattr(verify, "_weights", lambda f, m=mutant: list(m))
        report = verify_family(family)
        pi = [R(v, sum(mutant)) for v in mutant]
        assert report.exact_match is False
        assert report.predicted == pi
        assert report.max_gap == max(abs(p - s) for p, s in zip(pi, solved))
    # proportional weights are the same pi
    monkeypatch.setattr(verify, "_weights", lambda f: [2 * v for v in x])
    report = verify_family(family)
    assert report.exact_match and report.max_gap == 0
    assert report.predicted == solved


@pytest.mark.parametrize("check", [verify_family, closed_form])
@pytest.mark.parametrize("family", ["balancing", None])
def test_family_must_be_a_chain_family(check, family):
    with pytest.raises(ParameterError, match=f"^family must be a ChainFamily, got {family!r}$"):
        check(family)


def test_notes_record_index_discrepancy():
    for family in (pell_ratio_chain(5), lucas_chain(5), lucas_cobalancing_chain(5)):
        notes = verify_family(family).notes
        assert "forward-indexed" in notes
        assert "balance equation" in notes
    # the constant-in-i renderings only describe entry 0
    assert "entry 0" in verify_family(balancing_chain(5)).notes
    assert "entry 0" in verify_family(pell_ratio_chain(5)).notes


@pytest.mark.parametrize("kind", [kind for kind, spec in KINDS.items() if spec.takes_q])
def test_q_notes_name_their_q_free_kind(kind):
    a = 4 if KINDS[kind].takes_a else None
    family = ChainFamily(kind, KINDS[kind].min_n, a, R(1, 10))
    assert kind[:-2] in KINDS
    assert f"q-free {kind[:-2]} chain" in verify_family(family).notes


def test_multiplier_six_closed_form_reduces_to_balancing():
    for n in (3, 9, 14):
        assert closed_form(balancing_like_chain(n, 6)) == closed_form(
            balancing_chain(n)
        )


def test_multiplier_three_closed_form_is_even_fibonacci():
    n = 6
    fib = [0, 1]
    while len(fib) < 2 * n + 1:
        fib.append(fib[-1] + fib[-2])
    evens = [fib[2 * k] for k in range(1, n + 1)]  # 1, 3, 8, 21, 55, 144
    assert evens[:5] == [1, 3, 8, 21, 55]
    pi = closed_form(balancing_like_chain(n, 3))
    total = sum(evens)
    assert pi == [R(evens[n - 1 - i], total) for i in range(n)]


def test_q_invariance_examples():
    report = q_invariance(8, [R(1, 6), R(1, 7), R(1, 100)], "balancing")
    assert report.identical and report.matches_base
    assert report.vector == solve_exact(build(balancing_chain(8)))

    report = q_invariance(8, [R(1, 6), R(1, 10)], "lucas")
    assert report.identical and report.matches_base

    report = q_invariance(6, [R(1, 10)], "balancing-like", a=4)
    assert report.identical and report.matches_base
    assert report.vector == solve_exact(build(balancing_like_chain(6, 4)))

    report = q_invariance(7, [R(1, 6), R(1, 50)], "truncated-infinite")
    assert report.identical and report.matches_base


def test_q_invariance_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        q_invariance(8, [R(1, 5)], "balancing")  # q > 1/6
    with pytest.raises(ParameterError):
        q_invariance(8, [R(1, 10)], "balancing-like")  # missing a
    with pytest.raises(ParameterError, match="balancing takes no multiplier a, got 4"):
        q_invariance(8, [R(1, 7)], "balancing", a=4)  # a the kind does not take
    with pytest.raises(ParameterError):
        q_invariance(8, [R(1, 10)], "pell-ratio")  # no q-variant
    for kind in (None, ["balancing"]):  # not a kind's name
        with pytest.raises(ParameterError, match=f"^no q-parameterized variant for {re.escape(repr(kind))}$"):
            q_invariance(8, [R(1, 7)], kind)


def test_q_invariance_rejects_an_empty_q_list_before_solving(monkeypatch):
    monkeypatch.setattr(verify, "solve_exact", lambda m: pytest.fail("solved"))
    with pytest.raises(ParameterError, match="q_invariance needs at least one q"):
        q_invariance(8, [], "balancing")


@pytest.mark.parametrize(
    "q_values, got", [(iter([]), "list_iterator"), ("1/7", "str"), ({R(1, 7)}, "set")]
)
def test_q_invariance_needs_a_list_or_tuple(q_values, got):
    with pytest.raises(ParameterError, match=f"^q_values must be a list or tuple, got {got}$"):
        q_invariance(8, q_values, "balancing")
    assert q_invariance(8, (R(1, 7),), "balancing").identical


def test_beta_power_row_needs_a_size():
    assert verify.beta_power_row(1)["exact_match"] is True
    for max_n in (0, -3, 2.0, True):
        with pytest.raises(ParameterError, match=f"needs an integer max_n >= 1, got {max_n!r}"):
            verify.beta_power_row(max_n)


def test_beta_power_row_agrees_with_the_single_n_check():
    singles = [quadratic.beta_power_identity(k) for k in range(1, 201)]
    assert all(singles)
    for max_n in range(1, 201):
        assert verify.beta_power_row(max_n)["exact_match"] is all(singles[:max_n])


@pytest.mark.parametrize("mutant", [QuadInt(1, 1), QuadInt(3, 2) * QuadInt(3, 2)], ids=str)
def test_beta_power_row_fails_for_a_wrong_beta(monkeypatch, mutant):
    # 3+2*sqrt(2) satisfies the identity too (it is BETA's conjugate), so
    # it is no mutant; its square is not a root of x**2 - 6x + 1
    for module in (quadratic, verify):
        monkeypatch.setattr(module, "BETA", mutant)
    assert quadratic.beta_power_identity(1) is False
    for max_n in (1, 5, 50):
        row = verify.beta_power_row(max_n)
        assert row["exact_match"] is False
        assert row["max_gap"] == "mismatch"


def test_truncation_gap_shrinks_geometrically():
    table = truncation_convergence(list(range(5, 16)))
    gaps = [gap for _, gap in table]
    assert all(gap > 0 for gap in gaps)
    for earlier, later in zip(gaps, gaps[1:]):
        assert later / earlier < 0.2


def test_truncation_gap_examples():
    assert truncation_gap_bound(10) < R(1, 10**7)
    assert truncation_gap_bound(20) < R(1, 10**14)
    with pytest.raises(ParameterError, match="truncated-infinite needs n >= 3, got 2"):
        truncation_gap_bound(2)
    with pytest.raises(ValueError):
        truncation_convergence([])
    for sizes, got in ((5, "int"), (iter([5]), "list_iterator")):
        with pytest.raises(ParameterError, match=f"^sizes must be a list or tuple, got {got}$"):
            truncation_convergence(sizes)
    assert truncation_convergence((5,)) == truncation_convergence([5])


def test_truncation_first_entry_at_forty():
    pi = solve_exact(build(truncated_infinite_chain(40)))
    assert gap_bound(pi[0], ONE - BETA) < R(1, 10**28)


def test_infinite_recursion_identity_exact():
    # first coefficients: 5*pi0 - 4, 29*pi0 - 24, 169*pi0 - 140
    pi0 = ONE - BETA
    assert BETA - BETA**2 == 5 * pi0 - 4
    assert BETA**2 - BETA**3 == 29 * pi0 - 24
    assert BETA**3 - BETA**4 == 169 * pi0 - 140
    assert all(infinite_recursion_identity(i) for i in range(1, 31))
    with pytest.raises(ValueError):
        infinite_recursion_identity(0)


def test_unnormalized_recursion_on_truncated_chain():
    assert unnormalized_recursion_check(20, 3)
    assert unnormalized_recursion_check(12, 7)
    with pytest.raises(ValueError):
        unnormalized_recursion_check(20, 8)  # beyond the comparison window
    with pytest.raises(ValueError):
        unnormalized_recursion_check(20, 0)
    # before, the message named count + 2, from the sequence call
    with pytest.raises(ValueError, match=r"^count must be an integer, got 1\.5$"):
        unnormalized_recursion_check(10, 1.5)


def test_truncated_solution_tracks_infinite_entries():
    n = 15
    pi = solve_exact(build(truncated_infinite_chain(n)))
    for entry, limit in zip(pi[:8], infinite_steady_state(8)):
        assert gap_bound(entry, limit) < R(1, 10**10)


def test_report_serialization():
    report = verify_family(lucas_cobalancing_chain(4))
    row = report_row(report)
    assert row["family"] == "lucas-cobalancing"
    assert row["n"] == 4
    assert row["exact_match"] is True
    assert row["max_gap"] == "0"
    assert str(report.solved[0]) == "239/288"

    csv_text = rows_to_csv([row, report_row(verify_family(balancing_like_chain(5, 3)))])
    lines = csv_text.splitlines()
    assert lines[0] == "family,n,params,exact_match,max_gap"
    assert lines[1] == "lucas-cobalancing,4,,True,0"
    assert lines[2] == "balancing-like,5,a=3,True,0"


@pytest.mark.parametrize("report", [None, {"family": "balancing"}])
def test_report_row_needs_a_verification_report(report):
    expected = f"^report must be a VerificationReport, got {re.escape(repr(report))}$"
    with pytest.raises(ParameterError, match=expected):
        report_row(report)


@pytest.mark.parametrize("rows, got", [(None, "NoneType"), (iter([]), "list_iterator")])
def test_rows_to_csv_needs_a_list_or_tuple(rows, got):
    with pytest.raises(ParameterError, match=f"^rows must be a list or tuple, got {got}$"):
        rows_to_csv(rows)
    assert rows_to_csv(()) == rows_to_csv([]) == "family,n,params,exact_match,max_gap"


def test_q_invariance_row_needs_a_q_invariance_report():
    with pytest.raises(ParameterError, match="^report must be a QInvarianceReport, got None$"):
        q_invariance_row(None)
    row = q_invariance_row(q_invariance(6, [R(1, 7)], "balancing"))
    assert (row["family"], row["exact_match"]) == ("q-invariance:balancing", True)


GOOD_ROW = {"family": "balancing", "n": 4, "params": {}, "exact_match": True, "max_gap": "0"}


@pytest.mark.parametrize(
    "row",
    [None, {}, {k: v for k, v in GOOD_ROW.items() if k != "max_gap"}, {**GOOD_ROW, "params": None}],
    ids=["none", "empty", "no-max-gap", "params-none"],
)
def test_rows_to_csv_needs_every_column_in_each_row(row):
    assert rows_to_csv([GOOD_ROW]).splitlines()[1] == "balancing,4,,True,0"
    columns = "family, n, params, exact_match, max_gap"
    expected = f"^each row must be a mapping of {columns} with mapping params, got {re.escape(repr(row))}$"
    with pytest.raises(ParameterError, match=expected):
        rows_to_csv([GOOD_ROW, row])


NUDGE = R(1, 10**9)


@pytest.fixture
def nudged_solver(monkeypatch):
    """verify's solver, with pi[1] moved up and pi[3] down by NUDGE."""

    def nudged(m):
        pi = solve_exact(m)
        pi[1] += NUDGE
        pi[3] -= NUDGE
        return pi

    monkeypatch.setattr(verify, "solve_exact", nudged)


def test_verify_family_mismatch_reports_the_largest_gap(nudged_solver):
    report = verify_family(balancing_chain(5))
    assert report.exact_match is False
    assert report.max_gap == NUDGE


def test_verify_cli_mismatch_exits_3_and_prints_the_row(nudged_solver, capsys):
    code = main(["verify", "balancing", "--n", "5"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out.splitlines()[1] == "balancing,5,,False,1/1000000000"
    assert json.loads(err)["error"]["code"] == 3

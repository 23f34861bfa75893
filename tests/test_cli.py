import decimal
import io
import json
import os
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cache
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balchain import cli
from balchain.chains import balancing_chain, build, matrix_to_json, truncated_infinite_chain
from balchain.cli import _MAX_DIGITS, UsageError, _build_parser, _parse, main
from balchain.quadratic import infinite_steady_state
from balchain.sequences import BALANCING, NAMED_KINDS, RecurrenceSpec, SequenceKind, sequence
from balchain.steady import solve_exact
from oracles import abs_enclosure
from test_cli_fuzz import ARGV
from test_golden import _cases as golden_cases

HAS_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def int_str_limit() -> int:
    """The process's int-to-str digit limit; 0 when there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@contextmanager
def int_str_digits(limit: int):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def str_int_lines(kind: SequenceKind, count: int) -> tuple[list[str], str | None]:
    """str() of each int of sequence() up to the first one the interpreter
    refuses, and the message it refuses with (None if it refuses none)."""
    lines = []
    for t in sequence(kind, count):
        try:
            lines.append(str(t))
        except ValueError as exc:
            return lines, str(exc)
    return lines, None


def test_seq_csv(capsys):
    code, out, err = run_cli(capsys, "seq", "balancing", "--count", "5")
    assert code == 0
    assert out == "0\n1\n6\n35\n204\n"
    assert err == ""


def test_seq_json(capsys):
    code, out, _ = run_cli(capsys, "seq", "pell", "--count", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == ["0", "1", "2", "5"]


def test_seq_balancing_like(capsys):
    code, out, _ = run_cli(capsys, "seq", "balancing-like", "--a", "3", "--count", "5")
    assert code == 0
    assert out.splitlines() == ["0", "1", "3", "8", "21"]


def test_seq_balancing_like_needs_multiplier(capsys):
    code, out, err = run_cli(capsys, "seq", "balancing-like", "--count", "5")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == 2


@given(
    st.builds(
        RecurrenceSpec,
        coeff=st.integers(min_value=-7, max_value=7),
        shift=st.integers(min_value=-4, max_value=4),
        x0=st.integers(min_value=-4, max_value=4),
        x1=st.integers(min_value=-4, max_value=4),
        back=st.sampled_from([-1, 1]),
    ),
    st.integers(min_value=0, max_value=300),
    st.sampled_from(["csv", "json"]),
)
# -0 in Decimal arithmetic before the shift is added
@example(RecurrenceSpec(-1, 0, 0, 0, back=-1), 4, "csv")
@example(RecurrenceSpec(-2, 0, 0, 0, back=1), 4, "json")
def test_seq_prints_the_str_of_each_int_term(spec, count, fmt):
    kind = SequenceKind("pell", spec)
    out, err = io.StringIO(), io.StringIO()
    # the caller's decimal context, here one that rounds toward -inf at
    # three digits, does not reach the recurrence
    caller = decimal.Context(prec=3, rounding=decimal.ROUND_FLOOR)
    with patch.dict(NAMED_KINDS, {"pell": kind}), decimal.localcontext(caller):
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["seq", "pell", "--count", str(count), "--format", fmt])
    terms = [str(t) for t in sequence(kind, count)]
    text = json.dumps(terms) if fmt == "json" else "\n".join(terms)
    assert (code, out.getvalue(), err.getvalue()) == (0, text + "\n", "")


def _boundary_counts() -> dict[str, list[int]]:
    """Per named kind, the counts either side of the default limit's
    boundary, and either side of the first term with more digits than the
    running process allows."""
    limit = int_str_limit()
    cases = {}
    for name, kind in NAMED_KINDS.items():
        counts = {11235, 11236} if name == "pell" else {5617, 5618}
        if limit:
            # Pell gains about 0.38 digits a term, the others 0.77
            big = 10**limit
            terms = sequence(kind, 3 * limit + 20)
            first = next(i for i, t in enumerate(terms) if abs(t) >= big)
            counts |= {first, first + 1}
        cases[name] = sorted(counts)
    return cases


BOUNDARY_COUNTS = _boundary_counts()


@cache
def _str_int_lines_to_the_boundary(name: str) -> tuple[list[str], str | None]:
    return str_int_lines(NAMED_KINDS[name], max(BOUNDARY_COUNTS[name]))


@pytest.mark.parametrize(
    "name, count",
    [(name, count) for name, counts in BOUNDARY_COUNTS.items() for count in counts],
    ids=lambda value: str(value),
)
def test_seq_at_the_int_to_str_limit(capsys, name, count):
    lines, message = _str_int_lines_to_the_boundary(name)
    code, out, err = run_cli(capsys, "seq", name, "--count", str(count))
    if count <= len(lines):
        assert (code, out, err) == (0, "\n".join(lines[:count]) + "\n", "")
    else:
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": {"code": 2, "message": message}}


def _run_seq_with_digit_limit(digits: str, *argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": digits}
    return subprocess.run(
        [sys.executable, "-m", "balchain", "seq", *argv], capture_output=True, text=True, env=env
    )


@pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="the interpreter has no int-to-str limit")
def test_seq_without_a_digit_limit_prints_every_term():
    result = _run_seq_with_digit_limit("0", "balancing", "--count", "6000")
    with int_str_digits(0):
        expected = "\n".join(map(str, sequence(NAMED_KINDS["balancing"], 6000))) + "\n"
    assert (result.returncode, result.stdout, result.stderr) == (0, expected, "")


@pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="the interpreter has no int-to-str limit")
def test_seq_follows_the_process_digit_limit():
    kind = NAMED_KINDS["balancing"]
    first = next(i for i, t in enumerate(sequence(kind, 1000)) if abs(t) >= 10**640)
    result = _run_seq_with_digit_limit("640", "balancing", "--count", str(first))
    expected = "\n".join(map(str, sequence(kind, first))) + "\n"
    assert (result.returncode, result.stdout, result.stderr) == (0, expected, "")
    result = _run_seq_with_digit_limit("640", "balancing", "--count", str(first + 1))
    with int_str_digits(640):
        _, message = str_int_lines(kind, first + 1)
    assert (result.returncode, result.stdout) == (2, "")
    assert json.loads(result.stderr) == {"error": {"code": 2, "message": message}}


def test_seq_leaves_the_digit_limit_and_the_decimal_context_alone(capsys):
    def state():
        c = decimal.getcontext()
        return c, c.prec, c.rounding, c.Emin, c.Emax, c.capitals, c.clamp, dict(c.traps), dict(c.flags)

    limit, before = int_str_limit(), state()
    for count in ("5617", "20000"):
        for fmt in ("csv", "json"):
            run_cli(capsys, "seq", "lucas-balancing", "--count", count, "--format", fmt)
            assert int_str_limit() == limit
            assert state() == before


def test_chain_csv(capsys):
    code, out, _ = run_cli(capsys, "chain", "balancing", "--n", "3")
    assert code == 0
    assert out == "5/6,1/6,0\n5/6,0,1/6\n5/6,1/6,0\n"


def test_chain_json_last_row(capsys):
    code, out, _ = run_cli(capsys, "chain", "lucas", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["rows"][-1] == ["1/3", "1/6", "1/2"]


def test_chain_below_minimum_size(capsys):
    code, out, err = run_cli(capsys, "chain", "balancing", "--n", "2")
    assert code == 2
    assert out == ""
    assert "n >= 3" in json.loads(err)["error"]["message"]


def test_chain_q_out_of_range(capsys):
    code, _, err = run_cli(capsys, "chain", "balancing-q", "--n", "5", "--q", "1/5")
    assert code == 2
    assert "1/6" in json.loads(err)["error"]["message"]


def test_solve_exact_json(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "balancing", "--n", "3", "--method", "exact", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"pi": ["5/6", "1/7", "1/42"]}


def test_solve_power_close_to_exact(capsys):
    code, out, _ = run_cli(
        capsys,
        "solve", "balancing", "--n", "3",
        "--method", "power", "--tol", "1e-12", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    expected = [5 / 6, 1 / 7, 1 / 42]
    assert payload["tol"] == 1e-12
    assert payload["iterations"] >= 1
    assert max(abs(a - b) for a, b in zip(payload["pi"], expected)) < 1e-10


def test_solve_power_non_convergence_exit_code(capsys):
    code, out, err = run_cli(
        capsys,
        "solve", "lucas-q", "--n", "8", "--q", "1/100",
        "--method", "power", "--max-iter", "2",
    )
    assert code == 4
    assert out == ""
    assert json.loads(err)["error"]["code"] == 4


def test_solve_power_nan_tolerance_is_a_parameter_error(capsys):
    for tol in ("nan", "inf"):
        code, out, err = run_cli(
            capsys, "solve", "balancing", "--n", "4", "--method", "power", "--tol", tol
        )
        assert code == 2
        assert out == ""
        message = f"tol must be finite and > 0, got {tol}"
        assert json.loads(err)["error"] == {"code": 2, "message": message}


def test_solve_simulate_deterministic(capsys):
    argv = [
        "solve", "balancing", "--n", "4",
        "--method", "simulate", "--steps", "20000", "--seed", "42",
        "--format", "json",
    ]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    code, second, _ = run_cli(capsys, *argv)
    assert code == 0
    assert first == second
    payload = json.loads(first)
    assert payload["seed"] == 42
    assert payload["rng"] == "mt19937"
    assert sum(payload["visits"]) == 20000


def test_solve_simulate_refuses_a_negative_seed(capsys):
    # random.Random seeds with abs(seed), so --seed -5 would run seed 5's stream
    code, out, err = run_cli(
        capsys, "solve", "balancing", "--n", "5", "--method", "simulate",
        "--steps", "1000", "--seed", "-5",
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"code": 2, "message": "seed must be >= 0, got -5"}


def test_solve_matrix_file_round_trip(capsys, tmp_path):
    matrix_path = tmp_path / "chain.json"
    code, _, _ = run_cli(
        capsys,
        "chain", "lucas-cobalancing", "--n", "5",
        "--format", "json", "--out", str(matrix_path),
    )
    assert code == 0
    code, from_file, _ = run_cli(
        capsys, "solve", "--matrix-file", str(matrix_path), "--format", "json"
    )
    assert code == 0
    code, from_family, _ = run_cli(
        capsys, "solve", "lucas-cobalancing", "--n", "5", "--format", "json"
    )
    assert code == 0
    assert from_file == from_family


BAD_MATRIX_FILES = [
    ({"n": 2, "rows": [[2, -1], [0, 1]]}, 2, "negative"),
    ({"n": 2, "rows": [["1/2", "1/2"], ["1/3", "1/3"]]}, 2, "sums to 2/3"),
    ({"rows": [[1]]}, 2, '"n"'),
    ({"n": "1", "rows": [[1]]}, 2, '"n"'),
    ({"n": True, "rows": [[1]]}, 2, '"n"'),
    ({"n": 1, "rows": "1"}, 2, '"rows"'),
    ({"n": 1, "rows": [1]}, 2, '"rows"'),
    ({"n": 2, "rows": [[1, 0]]}, 2, "2 lists of 2 cells"),
    ({"n": 2, "rows": [[1, 0], [1]]}, 2, "2 lists of 2 cells"),
    ({"n": 1, "rows": [["1/0"]]}, 2, "'1/0'"),
    ({"n": 1, "rows": [["one"]]}, 2, "'one'"),
    ({"n": 2, "rows": [[0.1, 0.9], [1, 0]]}, 2, "0.1"),
    ({"n": 1, "rows": [[True]]}, 2, "True"),
    ({"n": 1, "rows": [[1]], "family": 7}, 2, '"family"'),
    ([[1]], 2, "JSON object"),
    ("{not json", 2, "not valid JSON"),
    ({"n": 2, "rows": [[1, 0], [0, 1]]}, 4, "reducible"),
    ({"n": 2, "rows": [[1, 0], [1, 0]]}, 4, "reducible"),
    pytest.param("[" * 100000, 2, "not valid JSON", id="deeply-nested-2-not valid JSON"),
]


@pytest.mark.parametrize("method", ["exact", "power", "simulate"])
@pytest.mark.parametrize("payload,expected,fragment", BAD_MATRIX_FILES)
def test_solve_rejects_bad_matrix_files(capsys, tmp_path, payload, expected, fragment, method):
    path = tmp_path / "bad.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code, out, err = run_cli(capsys, "solve", "--matrix-file", str(path), "--method", method)
    assert code == expected
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == expected
    assert fragment in error["message"]


def test_periodic_matrix_file_fails_fast_under_power_only(capsys, tmp_path):
    path = tmp_path / "bipartite.json"
    path.write_text(json.dumps({"n": 3, "rows": [[0, 1, 0], ["1/2", 0, "1/2"], [0, 1, 0]]}))
    code, out, err = run_cli(capsys, "solve", "--matrix-file", str(path), "--method", "power")
    assert (code, out) == (4, "")
    error = json.loads(err)["error"]
    assert error["code"] == 4
    assert "period 2" in error["message"]
    code, out, _ = run_cli(capsys, "solve", "--matrix-file", str(path), "--method", "exact")
    assert (code, out) == (0, "1/4\n1/2\n1/4\n")
    argv = ("solve", "--matrix-file", str(path), "--method", "simulate", "--steps", "1000")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(out.splitlines()) == 3


def test_solve_matrix_file_cells_are_exact(capsys, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"n": 2, "rows": [["0.25", "3/4"], [1, "0"]]}))
    code, out, _ = run_cli(capsys, "solve", "--matrix-file", str(path))
    assert code == 0
    assert out == "4/7\n3/7\n"


def test_solve_needs_a_source(capsys):
    code, _, err = run_cli(capsys, "solve", "--method", "exact")
    assert code == 2
    assert "family or --matrix-file" in json.loads(err)["error"]["message"]


def test_out_redirects_results_only(capsys, tmp_path):
    target = tmp_path / "terms.txt"
    code, out, _ = run_cli(
        capsys, "seq", "balancing", "--count", "3", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "0\n1\n6\n"


def test_out_to_a_directory_is_a_parameter_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "seq", "balancing", "--count", "3", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == 2


def test_verify_failure_reports_on_stdout_and_stderr(capsys, monkeypatch):
    from balchain import verify

    weights = verify._weights

    def off_by_one(family):
        x = weights(family)
        return [x[-1], *x[:-1]]

    monkeypatch.setattr(verify, "_weights", off_by_one)
    code, out, err = run_cli(capsys, "verify", "lucas", "--n", "5")
    assert code == 3
    assert out.splitlines()[1].startswith("lucas,5,,False,")
    assert json.loads(err)["error"]["code"] == 3


def test_verify_single_family(capsys):
    code, out, _ = run_cli(capsys, "verify", "lucas-cobalancing", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family,n,params,exact_match,max_gap"
    assert lines[1] == "lucas-cobalancing,4,,True,0"


def test_verify_family_range_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "balancing", "--max-n", "6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] is True
    assert [r["n"] for r in payload["reports"]] == [3, 4, 5, 6]


def test_verify_all_small_sweep(capsys):
    code, out, _ = run_cli(capsys, "verify", "--all", "--max-n", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family,n,params,exact_match,max_gap"
    assert all(",True," in line for line in lines[1:])
    families = {line.split(",")[0] for line in lines[1:]}
    assert "balancing" in families
    assert "q-invariance:lucas" in families
    assert "beta-power-identity" in families


def test_verify_beta_powers(capsys):
    code, out, _ = run_cli(capsys, "verify", "--beta-powers", "--max-n", "100")
    assert code == 0
    assert "beta-power-identity,100" in out


def test_verify_needs_a_scope(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    assert json.loads(err)["error"]["code"] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--beta-powers", "--max-n", "0"), "--max-n must be >= 1 for --beta-powers"),
        (("verify", "--beta-powers", "--max-n", "-1"), "--max-n must be >= 1 for --beta-powers"),
        (("verify", "--all", "--max-n", "0"), "--max-n must be >= 3 for --all"),
        (("verify", "--all", "--max-n", "-1"), "--max-n must be >= 3 for --all"),
        (("verify", "--all", "--max-n", "2"), "--max-n must be >= 3 for --all"),
        (("limit", "--ratio", "--max-n", "0"), "--max-n must be >= 2 for --ratio"),
        (("limit", "--ratio", "--max-n", "-1"), "--max-n must be >= 2 for --ratio"),
        (("limit", "--ratio", "--max-n", "1"), "--max-n must be >= 2 for --ratio"),
        (("verify", "balancing", "--max-n", "0"), "--max-n 0 is below the first size 3"),
        (("verify", "balancing", "--max-n", "2"), "--max-n 2 is below the first size 3"),
        (
            ("verify", "balancing", "--min-n", "10", "--max-n", "5"),
            "--max-n 5 is below the first size 10",
        ),
    ],
    ids=" ".join,
)
def test_max_n_below_the_mode_minimum_is_a_parameter_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": {"code": 2, "message": message}}


def test_max_n_at_the_mode_minimum_runs(capsys):
    code, out, _ = run_cli(capsys, "verify", "--beta-powers", "--max-n", "1")
    assert (code, out) == (0, "family,n,params,exact_match,max_gap\nbeta-power-identity,1,,True,0\n")
    code, out, _ = run_cli(capsys, "limit", "--ratio", "--max-n", "2")
    assert code == 0 and [line.split(",")[0] for line in out.splitlines()] == ["2"]
    code, out, _ = run_cli(capsys, "verify", "--all", "--max-n", "3")
    assert code == 0 and "balancing,3,,True,0" in out.splitlines()
    code, out, _ = run_cli(capsys, "verify", "balancing", "--min-n", "5", "--max-n", "5")
    assert code == 0 and out.splitlines()[1:] == ["balancing,5,,True,0"]


@pytest.mark.parametrize("mode", [("--sizes", "8,16,32"), ("--ratio",)])
def test_limit_digits_past_the_cap_exits_2_before_any_work(capsys, monkeypatch, mode):
    def never(*args, **kwargs):
        raise AssertionError("a table was computed past the --digits cap")

    monkeypatch.setattr(cli, "truncation_convergence", never)
    monkeypatch.setattr(cli, "_ratio_gaps", never)
    code, out, err = run_cli(capsys, "limit", *mode, "--digits", str(_MAX_DIGITS + 1))
    assert (code, out) == (2, "")
    message = f"--digits must be <= {_MAX_DIGITS}, got {_MAX_DIGITS + 1}"
    assert json.loads(err) == {"error": {"code": 2, "message": message}}


@pytest.mark.parametrize("digits", ["0", "-1"])
@pytest.mark.parametrize("mode", [("--sizes", "800,1600"), ("--ratio",)])
def test_limit_digits_below_1_exits_2_before_any_work(capsys, monkeypatch, mode, digits):
    # before, --digits 0 was refused inside sqrt2_bounds, after --sizes had
    # solved its first chain, with a message that did not name the flag
    def never(*args, **kwargs):
        raise AssertionError("a table was computed below --digits 1")

    monkeypatch.setattr(cli, "truncation_convergence", never)
    monkeypatch.setattr(cli, "_ratio_gaps", never)
    code, out, err = run_cli(capsys, "limit", *mode, "--digits", digits)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": {"code": 2, "message": f"--digits must be >= 1, got {digits}"}}


def _limit_rows(capsys, *argv: str) -> list[tuple[int, Fraction]]:
    code, out, _ = run_cli(capsys, "limit", *argv)
    assert code == 0
    return [(int(n), Fraction(float(gap))) for n, gap in (line.split(",") for line in out.splitlines())]


# a printed row is the bound, above the gap by a factor below 1 + 10**-40,
# rounded up to a float, which adds a factor below 1 + 2**-52 down to the
# smallest normal float
_FLOAT_SLACK = 1 + Fraction(1, 2**51)


def _head_gaps(n: int) -> tuple[Fraction, Fraction]:
    """[lo, hi] holding the largest gap between the size-n chain's first
    min(n, 8) entries and the limit's, from 400-digit enclosures."""
    solved = solve_exact(build(truncated_infinite_chain(n)))
    ends = [abs_enclosure(p - x.a, -x.b) for p, x in zip(solved, infinite_steady_state(8))]
    return max(lo for lo, _ in ends), max(hi for _, hi in ends)


def test_limit_size_rows_are_certified_and_tight_up_to_200(capsys):
    rows = _limit_rows(capsys, "--sizes", ",".join(map(str, range(3, 201))))
    assert [n for n, _ in rows] == list(range(3, 201))
    for n, gap in rows:
        lo, hi = _head_gaps(n)
        assert 0 < lo <= gap <= hi * _FLOAT_SLACK, n


def test_limit_ratio_rows_are_certified_and_tight_up_to_120(capsys):
    rows = _limit_rows(capsys, "--ratio", "--max-n", "120")
    b = sequence(BALANCING, 121)
    assert [n for n, _ in rows] == list(range(2, 121))
    for n, gap in rows:
        lo, hi = abs_enclosure(Fraction(b[n - 1], b[n]) - 3, 2)
        assert 0 < lo <= gap <= hi * _FLOAT_SLACK, n


def test_limit_rows_below_the_float_range_print_a_certified_float(capsys):
    # the gaps pass the smallest normal float near n = 205: those rows print
    # the smallest float >= the bound, a subnormal or 5e-324, never 0.0
    [(_, gap)] = _limit_rows(capsys, "--sizes", "210")
    lo, _ = _head_gaps(210)
    assert 0 < lo <= gap < Fraction(2.2250738585072014e-308)
    rows = _limit_rows(capsys, "--ratio", "--max-n", "215")
    b = sequence(BALANCING, 216)
    for n, gap in rows[-15:]:
        lo, _ = abs_enclosure(Fraction(b[n - 1], b[n]) - 3, 2)
        assert 0 < lo <= gap, n
    assert rows[-1][1] == Fraction(5e-324)


def test_limit_digits_at_the_cap_runs(capsys):
    code, out, _ = run_cli(capsys, "limit", "--ratio", "--max-n", "2", "--digits", str(_MAX_DIGITS))
    assert code == 0 and [line.split(",")[0] for line in out.splitlines()] == ["2"]


def test_explicit_min_n_zero_is_not_the_default(capsys):
    code, _, err = run_cli(capsys, "verify", "balancing", "--min-n", "0", "--max-n", "5")
    assert code == 2
    assert json.loads(err)["error"]["message"] == "balancing needs n >= 3, got 0"


MATRIX_FILE = "{matrix_file}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "balancing", "--all"), "--all cannot be combined with balancing"),
        (("verify", "--all", "--beta-powers"), "--beta-powers cannot be combined with --all"),
        (("verify", "balancing", "--n", "5", "--max-n", "2"), "--max-n cannot be combined with --n"),
        (("limit", "--ratio", "--sizes", "5"), "--ratio cannot be combined with --sizes"),
        (("verify", "--all", "--n", "7"), "--n cannot be combined with --all"),
        (("verify", "--beta-powers", "--a", "4"), "--a cannot be combined with --beta-powers"),
        (("verify", "balancing", "--n", "5", "--min-n", "4"), "--min-n cannot be combined with --n"),
        (("limit", "--sizes", "5", "--max-n", "9"), "--max-n cannot be combined with --sizes"),
        (
            ("solve", "--matrix-file", MATRIX_FILE, "balancing"),
            "--matrix-file cannot be combined with balancing",
        ),
        (
            ("solve", "--matrix-file", MATRIX_FILE, "--n", "5"),
            "--n cannot be combined with --matrix-file",
        ),
        (("seq", "pell", "--count", "3", "--a", "9"), "--a cannot be combined with pell"),
        # a method flag the chosen --method does not use
        (
            ("solve", "balancing", "--n", "4", "--method", "exact", "--steps", "5", "--tol", "1", "--seed", "3"),
            "--tol cannot be combined with --method exact",
        ),
        (
            ("solve", "--matrix-file", MATRIX_FILE, "--method", "exact", "--steps", "2000"),
            "--steps cannot be combined with --method exact",
        ),
        (
            ("solve", "balancing", "--n", "4", "--method", "power", "--seed", "0"),
            "--seed cannot be combined with --method power",
        ),
        (
            ("solve", "balancing", "--n", "4", "--method", "simulate", "--max-iter", "9"),
            "--max-iter cannot be combined with --method simulate",
        ),
        (("solve", "balancing", "--n", "4", "--start", "1"), "--start cannot be combined with --method exact"),
        # a flag the family's kind does not take
        (("chain", "balancing", "--n", "4", "--a", "3"), "balancing takes no multiplier a, got 3"),
        (
            ("chain", "balancing", "--n", "4", "--q", "1/7"),
            "balancing takes no step probability q, got 1/7",
        ),
        (
            ("chain", "balancing", "--n", "4", "--q", "garbage"),
            "balancing takes no step probability q, got garbage",
        ),
        (("solve", "lucas", "--n", "4", "--a", "3"), "lucas takes no multiplier a, got 3"),
        (
            ("verify", "pell-ratio", "--n", "4", "--q", "1/7"),
            "pell-ratio takes no step probability q, got 1/7",
        ),
    ],
    ids=" ".join,
)
def test_flags_outside_the_chosen_mode_are_parameter_errors(capsys, tmp_path, argv, message):
    path = tmp_path / "chain.json"
    path.write_text(matrix_to_json(build(balancing_chain(4))))
    code, out, err = run_cli(capsys, *(str(path) if a == MATRIX_FILE else a for a in argv))
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["code"] == 2
    assert error["message"].startswith(message)


@pytest.mark.parametrize("q", ["0e4000000", "1e-1001", "1E+5000"])
def test_q_past_the_exponent_budget_is_a_parameter_error(capsys, q):
    # before, --q 0e4000000 computed 10**4000000 (about 2.8 s) and was then
    # refused by the range check
    code, out, err = run_cli(capsys, "solve", "balancing-q", "--n", "4", "--q", q)
    assert (code, out) == (2, "")
    message = f"balancing-q needs an exact q, got {q!r}: decimal exponent past +-1000"
    assert json.loads(err)["error"] == {"code": 2, "message": message}


@pytest.mark.parametrize("q", ["1e-1", "0.125", "1E-1000", "1.5e-01"])
def test_q_within_the_exponent_budget_parses(capsys, q):
    code, out, _ = run_cli(capsys, "solve", "balancing-q", "--n", "4", "--q", q)
    assert code == 0
    assert out == run_cli(capsys, "solve", "balancing", "--n", "4")[1]


def test_the_cached_parser_keeps_no_state_between_calls(capsys):
    assert _build_parser() is _build_parser()
    code, out, _ = run_cli(capsys, "seq", "balancing-like", "--a", "3", "--count", "4")
    assert (code, out) == (0, "0\n1\n3\n8\n")
    code, out, err = run_cli(capsys, "seq", "balancing-like", "--count", "4")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["message"] == "seq balancing-like requires --a"
    code, out, _ = run_cli(capsys, "verify", "--beta-powers", "--max-n", "1")
    assert (code, out.splitlines()[1]) == (0, "beta-power-identity,1,,True,0")
    code, out, _ = run_cli(capsys, "verify", "balancing", "--n", "3")
    assert (code, out.splitlines()[1:]) == (0, ["balancing,3,,True,0"])
    code, out, _ = run_cli(capsys, "limit", "--ratio", "--max-n", "2")
    assert code == 0 and out.startswith("2,")
    code, out, _ = run_cli(capsys, "limit", "--sizes", "3")
    assert code == 0 and out.startswith("3,")


def test_limit_sizes_table(capsys):
    code, out, _ = run_cli(capsys, "limit", "--sizes", "5,10,20")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()]
    assert [int(r[0]) for r in rows] == [5, 10, 20]
    gaps = [float(r[1]) for r in rows]
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_limit_single_size(capsys):
    code, out, _ = run_cli(capsys, "limit", "--sizes", "3")
    assert code == 0
    n, gap = out.strip().split(",")
    assert n == "3"
    assert 0 < float(gap) < 0.1


def test_limit_ratio_table(capsys):
    code, out, _ = run_cli(capsys, "limit", "--ratio", "--max-n", "10", "--format", "json")
    assert code == 0
    table = json.loads(out)
    assert [row["n"] for row in table] == list(range(2, 11))
    gaps = [row["gap"] for row in table]
    assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))


def test_limit_rejects_bad_sizes(capsys):
    code, _, err = run_cli(capsys, "limit", "--sizes", "2,5")
    assert code == 2
    assert json.loads(err)["error"]["code"] == 2
    code, _, _ = run_cli(capsys, "limit")
    assert code == 2


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2
    assert json.loads(err)["error"]["code"] == 2


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]], ids=("top", "solve"))
def test_help_returns_zero(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: balchain")
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [[5], ["verify", 5], [["x"]], ["seq", None], "verify", b"verify", ("seq", 5), {"seq": 1}, 7],
    ids=("int", "int-after-a-command", "list", "none", "str", "bytes", "tuple", "dict", "bare-int"),
)
def test_argv_that_is_not_a_list_or_tuple_of_str_is_a_parameter_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    message = f"argv must be a list or tuple of str, got {argv!r}"
    assert json.loads(captured.err)["error"] == {"code": 2, "message": message}


def test_argv_is_a_tuple_or_defaults_to_sys_argv(capsys, monkeypatch):
    assert main(("seq", "balancing", "--count", "3")) == 0
    assert capsys.readouterr().out == "0\n1\n6\n"
    monkeypatch.setattr(sys, "argv", ["balchain", "seq", "pell", "--count", "4"])
    assert main() == 0
    assert capsys.readouterr().out == "0\n1\n2\n5\n"


def _full_tree(argv):
    return _build_parser().parse_args(argv)


def _outcome(parse, argv):
    """What parsing argv ends in: the Namespace's vars, a UsageError's
    message, or a SystemExit's code and what was printed on stdout.  The
    vars are compared by repr, in which --tol nan equals itself."""
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            return "parsed", repr(sorted(vars(parse(argv)).items()))
    except UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


COMMANDS = ("seq", "chain", "solve", "verify", "limit")
HELP_ARGVS = [
    *([flag] for flag in ("-h", "--help")),
    *([flag, command] for flag in ("-h", "--help") for command in COMMANDS),
    *([command, flag] for flag in ("-h", "--help") for command in COMMANDS),
    ["verify", "balancing", "--n", "3", "--help"],
]


@pytest.mark.parametrize(
    "argv",
    [*map(list, golden_cases()), *HELP_ARGVS, [], ["frobnicate"], ["--n", "3"], ["ver"], ["Verify"]],
    ids=lambda argv: " ".join(argv) or "(empty)",
)
def test_a_command_line_parses_as_the_full_tree_would(argv):
    outcome = _outcome(_parse, argv)
    assert outcome == _outcome(_full_tree, argv)
    if "-h" in argv or "--help" in argv:
        assert outcome[:2] == ("exit", 0) and outcome[2].startswith("usage: balchain")


@settings(max_examples=300, deadline=None)
@given(ARGV.map(lambda parts: [a for part in parts for a in part]))
def test_a_drawn_command_line_parses_as_the_full_tree_would(argv):
    assert _outcome(_parse, argv) == _outcome(_full_tree, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["seq", "cobalancing", "--count", "6", "--format", "json"],
        ["chain", "balancing-like-q", "--n", "5", "--a", "4", "--q", "1/9"],
        ["solve", "pell-ratio", "--n", "6", "--format", "json"],
    ],
    ids=("seq", "chain", "solve"),
)
def test_reruns_are_byte_identical(capsys, argv):
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    code, second, _ = run_cli(capsys, *argv)
    assert code == 0
    assert first == second


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "balchain", "seq", "balancing", "--count", "3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "0\n1\n6\n"

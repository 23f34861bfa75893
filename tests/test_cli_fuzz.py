"""Fuzz the CLI: every argv and matrix file ends in exit 0, 2, 3 or 4.

Each command draws any subset of its mode selectors (a family, --all,
--beta-powers, --matrix-file, --sizes, --ratio), so conflicting scopes
are drawn too.  Sizes and iteration counts stay small (n <= 5, --steps
and --max-iter <= 1000, --count and --max-n <= 30) so the whole run takes
a few seconds; --digits is small, 0 or -1, or limit's cap or one past
it.  A nonzero exit must leave exactly one JSON error object on stderr
whose code is the exit code, and exits 2 and 4 print nothing on stdout.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from balchain.chains import KINDS
from balchain.cli import _MAX_DIGITS, main
from balchain.sequences import NAMED_KINDS

FORMATS = st.sampled_from([(), ("--format", "json"), ("--format", "csv")])
Q_TEXT = st.sampled_from(["1/7", "1/6", "1/2", "0", "-1/3", "1/0", "abc", "1e-3", "2/13", "nan"])
TOL_TEXT = st.sampled_from(["1e-12", "1e-3", "0", "-1", "nan", "inf", "x"])
SIZE = st.integers(min_value=-1, max_value=5)
DIGITS = st.one_of(st.integers(-2, 60), st.sampled_from([0, -1, _MAX_DIGITS, _MAX_DIGITS + 1]))
KIND = st.sampled_from([*KINDS, "bogus"])

# matrix-file cells: exact forms, and the forms the reader must reject
CELL = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-2, 6), st.integers(0, 6)),
    st.sampled_from(["0.5", "1", " 1/2 ", "x", "", "1/0", "inf"]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.just([1]),
)


@st.composite
def stochastic_rows(draw):
    """Exact stochastic rows of size 1..5: irreducible, reducible or periodic."""
    n = draw(st.integers(min_value=1, max_value=5))
    rows = []
    for _ in range(n):
        weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        if not any(weights):
            weights[draw(st.integers(0, n - 1))] = 1
        total = sum(weights)
        rows.append([f"{w}/{total}" for w in weights])
    return {"n": n, "rows": rows}


@st.composite
def raw_payloads(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    width = draw(st.sampled_from([n, n, n - 1, n + 1]))
    rows = draw(st.lists(st.lists(CELL, min_size=width, max_size=width), min_size=n, max_size=n))
    payload = {"n": draw(st.one_of(st.just(n), st.integers(-1, 6), st.text(max_size=2), st.none())),
               "rows": rows}
    if draw(st.booleans()):
        del payload[draw(st.sampled_from(["n", "rows"]))]
    return payload


MATRIX_TEXT = st.one_of(
    stochastic_rows().map(json.dumps),
    raw_payloads().map(json.dumps),
    st.sampled_from(["", "[]", "null", "{", '{"n": 1, "rows": [[1]]', "[[1]]"]),
)


def _opt(flag: str, values) -> st.SearchStrategy:
    return st.one_of(st.just(()), values.map(lambda v: (flag, str(v))))


def _opt_positional(values) -> st.SearchStrategy:
    return st.one_of(st.just(()), values.map(lambda v: (v,)))


def _seq():
    return st.tuples(
        st.just(("seq",)),
        st.sampled_from([*NAMED_KINDS, "balancing-like", "bogus"]).map(lambda k: (k,)),
        _opt("--count", st.integers(-1, 30)),
        _opt("--a", st.integers(-1, 8)),
        FORMATS,
    )


def _family_flags():
    return st.tuples(
        _opt("--n", SIZE), _opt("--a", st.integers(-1, 8)), _opt("--q", Q_TEXT)
    ).map(lambda parts: sum(parts, ()))


def _chain():
    return st.tuples(st.just(("chain",)), KIND.map(lambda k: (k,)), _family_flags(), FORMATS)


def _solve():
    return st.tuples(
        st.just(("solve",)),
        st.sampled_from([(), ("--matrix-file", "{file}")]),
        _opt_positional(KIND),
        _family_flags(),
        _opt("--method", st.sampled_from(["exact", "power", "simulate", "magic"])),
        _opt("--tol", TOL_TEXT),
        _opt("--max-iter", st.integers(-1, 1000)),
        _opt("--steps", st.integers(-1, 1000)),
        _opt("--seed", st.integers(-5, 5)),
        _opt("--start", st.integers(-1, 5)),
        FORMATS,
    )


def _verify():
    return st.tuples(
        st.just(("verify",)),
        _opt_positional(KIND),
        st.sampled_from([(), ("--all",)]),
        st.sampled_from([(), ("--beta-powers",)]),
        _family_flags(),
        _opt("--min-n", st.integers(-1, 5)),
        _opt("--max-n", st.integers(-1, 30)),
        FORMATS,
    )


def _limit():
    sizes = st.lists(st.integers(-1, 30), max_size=3).map(lambda xs: ",".join(map(str, xs)))
    return st.tuples(
        st.just(("limit",)),
        _opt("--sizes", st.one_of(sizes, st.just("a,b"))),
        st.sampled_from([(), ("--ratio",)]),
        _opt("--max-n", st.integers(-1, 30)),
        _opt("--digits", DIGITS),
        FORMATS,
    )


ARGV = st.one_of(_seq(), _chain(), _solve(), _verify(), _limit(), st.just((("frobnicate",),)))


@settings(max_examples=200, deadline=None)
@given(ARGV.map(lambda parts: [a for part in parts for a in part]), MATRIX_TEXT)
def test_every_command_line_ends_in_a_documented_exit(argv, matrix_text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matrix.json"
        path.write_text(matrix_text)
        argv = [str(path) if a == "{file}" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4)
    if code in (2, 4):
        assert out.getvalue() == ""
    if code == 0:
        assert err.getvalue() == ""
    else:
        error = json.loads(err.getvalue())["error"]
        assert error["code"] == code
        assert isinstance(error["message"], str)

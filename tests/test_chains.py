import json
import re
from decimal import Decimal
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from balchain import steady
from balchain.chains import (
    KINDS,
    ChainFamily,
    ParameterError,
    StochasticMatrix,
    balancing_chain,
    balancing_chain_q,
    balancing_like_chain,
    balancing_like_chain_q,
    build,
    lucas_chain,
    lucas_chain_q,
    lucas_cobalancing_chain,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    pell_ratio_chain,
    truncated_infinite_chain,
    truncated_infinite_chain_q,
    validate,
)
from balchain.cli import _make_family, main
from balchain.steady import _solve_gauss, solve_exact

NOT_EXACT = 'an exact number is an int, a Fraction or a string like "1/6"'
BUDGET = "decimal exponent past +-1000"

R = Fraction


def frac_rows(m):
    return [[str(x) for x in m.row(i)] for i in range(m.n)]


def all_families(n=8):
    return [
        balancing_chain(n),
        balancing_chain_q(n, R(1, 7)),
        pell_ratio_chain(n),
        lucas_chain(n),
        lucas_chain_q(n, R(1, 10)),
        lucas_cobalancing_chain(n),
        truncated_infinite_chain(n),
        truncated_infinite_chain_q(n, R(1, 9)),
        balancing_like_chain(n, 4),
        balancing_like_chain_q(n, 4, R(1, 5)),
    ]


def test_balancing_3_rows():
    m = build(balancing_chain(3))
    assert frac_rows(m) == [
        ["5/6", "1/6", "0"],
        ["5/6", "0", "1/6"],
        ["5/6", "1/6", "0"],
    ]


def test_balancing_5_structure():
    m = build(balancing_chain(5))
    assert frac_rows(m) == [
        ["5/6", "1/6", "0", "0", "0"],
        ["5/6", "0", "1/6", "0", "0"],
        ["2/3", "1/6", "0", "1/6", "0"],
        ["2/3", "0", "1/6", "0", "1/6"],
        ["5/6", "0", "0", "1/6", "0"],
    ]


def test_lucas_3_rows():
    m = build(lucas_chain(3))
    assert frac_rows(m) == [
        ["5/6", "1/6", "0"],
        ["5/6", "0", "1/6"],
        ["1/3", "1/6", "1/2"],
    ]


def test_pell_ratio_last_row_reflects():
    m = build(pell_ratio_chain(3))
    assert frac_rows(m)[2] == ["2/3", "1/6", "1/6"]


def test_lucas_cobalancing_4_rows():
    m = build(lucas_cobalancing_chain(4))
    assert frac_rows(m) == [
        ["5/6", "1/6", "0", "0"],
        ["5/6", "0", "1/6", "0"],
        ["16/21", "1/6", "0", "1/14"],
        ["1/3", "0", "1/6", "1/2"],
    ]


def test_balancing_like_degenerate_multiplier():
    m = build(balancing_like_chain(4, 2))
    assert frac_rows(m)[2] == ["0", "1/2", "0", "1/2"]


def test_q_one_sixth_specializes_to_base():
    for n in (3, 5, 9):
        assert build(balancing_chain_q(n, R(1, 6))) == build(balancing_chain(n))
        assert build(lucas_chain_q(n, R(1, 6))) == build(lucas_chain(n))
        assert build(truncated_infinite_chain_q(n, R(1, 6))) == build(
            truncated_infinite_chain(n)
        )


def test_truncated_infinite_equals_pell_ratio():
    for n in (3, 7, 12):
        assert build(truncated_infinite_chain(n)) == build(pell_ratio_chain(n))


def test_multiplier_six_specializes_to_balancing():
    for n in (3, 6, 10):
        assert build(balancing_like_chain(n, 6)) == build(balancing_chain(n))
        assert build(balancing_like_chain_q(n, 6, R(1, 7))) == build(
            balancing_chain_q(n, R(1, 7))
        )


@pytest.mark.parametrize("family", all_families(), ids=lambda f: f.label)
def test_rows_are_exact_distributions(family):
    m = build(family)
    for i in range(m.n):
        row = m.row(i)
        assert sum(row) == 1
        assert all(x >= 0 for x in row)


@pytest.mark.parametrize("family", all_families(), ids=lambda f: f.label)
def test_built_families_validate(family):
    report = validate(build(family))
    assert report.ok
    assert report.irreducible
    assert report.period == 1


@pytest.mark.parametrize("family", all_families(), ids=lambda f: f.label)
def test_sparsity_pattern(family):
    m = build(family)
    assert m.nonzero_count() <= 4 * m.n
    for i in range(m.n):
        for j, value in enumerate(m.row(i)):
            if value:
                assert j == 0 or abs(i - j) <= 1


def test_size_minimums_rejected():
    with pytest.raises(ParameterError):
        balancing_chain(2)
    with pytest.raises(ParameterError):
        pell_ratio_chain(2)
    with pytest.raises(ParameterError):
        lucas_chain(2)
    with pytest.raises(ParameterError):
        lucas_cobalancing_chain(3)
    with pytest.raises(ParameterError):
        truncated_infinite_chain(2)
    with pytest.raises(ParameterError):
        balancing_like_chain(2, 5)


def test_q_bounds_rejected():
    for bad in (R(0), R(-1, 6), R(1, 5), R(7, 6)):
        with pytest.raises(ParameterError):
            balancing_chain_q(5, bad)
    with pytest.raises(ParameterError):
        balancing_like_chain_q(5, 4, R(1, 3))  # above 1/a
    balancing_like_chain_q(5, 4, R(1, 4))  # boundary value is allowed


def test_multiplier_bound_rejected():
    with pytest.raises(ParameterError):
        balancing_like_chain(5, 1)
    with pytest.raises(ParameterError):
        balancing_like_chain_q(5, 1, R(1, 2))


def test_dense_and_banded_layouts_agree():
    # a family built from its cells and the same matrix read from dense rows
    for family in all_families(6):
        banded = build(family)
        dense = StochasticMatrix.from_rows(banded.rows())
        assert dense == banded
        assert dense.rows() == banded.rows()
        for i in range(banded.n):
            cells = banded.nonzeros(i)
            assert dense.nonzeros(i) == cells
            assert all(x for _, x in cells)
            assert [j for j, _ in cells] == sorted(j for j, _ in cells)
            assert [banded.entry(i, j) for j in range(banded.n)] == list(banded.row(i))


def test_from_cells_drops_zeros_and_checks_bounds():
    m = StochasticMatrix.from_cells(2, {(1, 1): R(1, 2), (0, 0): R(1), (1, 0): R(1, 2), (0, 1): R(0)})
    assert m == StochasticMatrix.from_rows([[R(1), R(0)], [R(1, 2), R(1, 2)]])
    assert m.nonzeros(0) == [(0, R(1))]
    assert m.nonzeros(1) == [(0, R(1, 2)), (1, R(1, 2))]
    with pytest.raises(ParameterError):
        StochasticMatrix.from_cells(2, {(0, 2): R(1)})
    with pytest.raises(IndexError):
        m.nonzeros(2)


KEY_ERROR = "matrix cell key {}: not a pair of ints in 0..1"


@pytest.mark.parametrize(
    "constructor,args,message",
    [
        ("from_cells", (2, {(0, 5): 1}), KEY_ERROR.format("(0, 5)")),
        ("from_cells", (2, {(0,): 1}), KEY_ERROR.format("(0,)")),
        ("from_cells", (2, {(0, True): 1}), KEY_ERROR.format("(0, True)")),
        ("from_cells", (2, {(-1, 0): 1}), KEY_ERROR.format("(-1, 0)")),
        ("from_cells", (2, {"ab": 1}), KEY_ERROR.format("'ab'")),
        ("from_cells", (2.5, {(0, 0): 1}), "matrix size n must be an integer, got 2.5"),
        ("from_cells", (True, {(0, 0): 1}), "matrix size n must be an integer, got True"),
        ("from_rows", (None,), 'matrix "rows" must be a list of rows, got NoneType'),
        ("from_rows", ([[1, 0], None],), 'matrix "rows" must be 2 lists of 2 cells'),
        ("from_rows", ([[1, 0, 0], [1, 0, 0]],), 'matrix "rows" must be 2 lists of 2 cells'),
        ("from_rows", (["10", "01"],), 'matrix "rows" must be 2 lists of 2 cells'),
    ],
)
def test_malformed_shapes_raise_parameter_error(constructor, args, message):
    # before: a bare IndexError, an unpacking ValueError, a TypeError from
    # range() or len(), "matrix must be square", a "TruexTrue" matrix, and
    # strings read as rows of one-character cells
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        getattr(StochasticMatrix, constructor)(*args)


@pytest.mark.parametrize("rows", [[[1, 0], [1]], [[1], [1, 0]], [[1, 0], "10"], [[1, 0], {}]])
def test_ragged_rows_give_one_message_from_rows_and_json(rows):
    errors = []
    for read in (StochasticMatrix.from_rows, lambda r: matrix_from_json(json.dumps({"n": 2, "rows": r}))):
        with pytest.raises(ParameterError) as caught:
            read(rows)
        errors.append(str(caught.value))
    assert errors == ['matrix "rows" must be 2 lists of 2 cells'] * 2


def test_json_family_is_checked_before_the_rows():
    payload = json.dumps({"n": 2, "rows": [[1, 0], [1]], "family": 7})
    with pytest.raises(ParameterError, match='^matrix "family" must be a string, got 7$'):
        matrix_from_json(payload)


def test_string_cells_read_like_fractions():
    cells = [["0", "1/6", "5/6"], ["1/6", "0", "5/6"], ["1/2", "1/6", "1/3"]]
    m = StochasticMatrix.from_rows(cells)
    assert m == StochasticMatrix.from_rows([[R(c) for c in row] for row in cells])
    assert m.nonzero_count() == 7


def test_registry_drives_the_constructor():
    assert tuple(KINDS) == tuple(f.kind for f in all_families())
    for f in all_families():
        assert ChainFamily(f.kind, f.n, f.a, f.q) == f
    with pytest.raises(ParameterError, match="unknown chain family 'nope'"):
        ChainFamily("nope", 5)
    # a parameter the kind does not take is an error, never dropped
    with pytest.raises(ParameterError, match="balancing takes no multiplier a, got 4"):
        ChainFamily("balancing", 5, a=4)
    with pytest.raises(ParameterError, match="balancing takes no step probability q, got 1/7"):
        ChainFamily("balancing", 5, q=R(1, 7))
    with pytest.raises(ParameterError, match="balancing-q takes no multiplier a, got 4"):
        ChainFamily("balancing-q", 5, a=4, q=R(1, 7))
    with pytest.raises(ParameterError, match="balancing-like needs the multiplier a"):
        ChainFamily("balancing-like", 5)
    with pytest.raises(ParameterError, match="lucas-q needs the step probability q"):
        ChainFamily("lucas-q", 5)


@pytest.mark.parametrize(
    "kind,n,a,q",
    [
        ("balancing-q", 5, None, None),
        ("lucas-cobalancing", 3, None, None),
        ("balancing-like", 5, None, None),
        ("balancing-like", 5, 1, None),
        ("balancing-like-q", 5, 4, R(1, 3)),
        ("lucas-q", 5, None, R(0)),
    ],
)
def test_direct_chain_family_gets_the_constructor_checks(kind, n, a, q):
    with pytest.raises(ParameterError, match=rf"^{re.escape(kind)} needs "):
        ChainFamily(kind, n, a, q)


@pytest.mark.parametrize(
    "kind,n,a,q,message",
    [
        ("balancing", 5.0, None, None, "balancing needs an integer n, got 5.0"),
        ("balancing", True, None, None, "balancing needs an integer n, got True"),
        ("balancing-like", 5, 4.5, None, "balancing-like needs an integer a, got 4.5"),
        ("balancing-like-q", 5, True, R(1, 7), "balancing-like-q needs an integer a, got True"),
        ("balancing-q", 5, None, 0.1, f"balancing-q needs an exact q, got 0.1: {NOT_EXACT}"),
        ("lucas-q", 5, None, 0.125, f"lucas-q needs an exact q, got 0.125: {NOT_EXACT}"),
        ("lucas-q", 5, None, Decimal("0.1"), f"lucas-q needs an exact q, got Decimal('0.1'): {NOT_EXACT}"),
        ("lucas-q", 5, None, True, f"lucas-q needs an exact q, got True: {NOT_EXACT}"),
    ],
)
def test_chain_family_rejects_inexact_parameters(kind, n, a, q, message):
    # before, a float n or a failed in build with a TypeError and a float q
    # kept its binary approximation
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        ChainFamily(kind, n, a, q)


def test_chain_family_takes_exact_q(capsys):
    assert ChainFamily("balancing-q", 5, q=R(1, 8)).q == R(1, 8)
    assert ChainFamily("balancing-q", 5, q="1/8").q == R(1, 8)
    # the CLI parses --q into a Fraction
    assert _make_family("balancing-q", 5, None, "1/8") == ChainFamily("balancing-q", 5, q=R(1, 8))
    assert main(["solve", "balancing-q", "--n", "5", "--q", "1/8"]) == 0
    assert capsys.readouterr().err == ""


def test_direct_chain_family_rejects_parameters_its_kind_does_not_take():
    with pytest.raises(ParameterError, match="balancing takes no multiplier a, got 3"):
        build(ChainFamily("balancing", 5, a=3))
    with pytest.raises(ParameterError, match="lucas takes no step probability q, got 1/7"):
        build(ChainFamily("lucas", 5, q=R(1, 7)))


def test_validate_reports_bad_row_sum():
    rows = [
        [R(1, 2), R(1, 2), R(0)],
        [R(1, 3), R(1, 3), R(1, 3)],
        [R(1, 6), R(1, 6), R(9, 14)],  # sums to 41/42
    ]
    report = validate(StochasticMatrix.from_rows(rows))
    assert [i for i, _ in report.bad_row_sums] == [2]
    assert report.bad_row_sums[0][1] == R(41, 42)
    assert not report.ok


def test_validate_reports_negative_entry():
    rows = [[R(3, 2), R(-1, 2)], [R(1, 2), R(1, 2)]]
    report = validate(StochasticMatrix.from_rows(rows))
    assert report.negative_entries == [(0, 1)]
    assert not report.ok


def test_validate_reports_unreachable_state():
    rows = [[R(1), R(0)], [R(1, 2), R(1, 2)]]
    report = validate(StochasticMatrix.from_rows(rows))
    assert report.unreachable == [1]
    assert not report.irreducible
    assert not report.ok


def test_validate_reports_periodicity():
    rows = [[R(0), R(1)], [R(1), R(0)]]
    report = validate(StochasticMatrix.from_rows(rows))
    assert report.irreducible
    assert report.period == 2
    assert report.aperiodic is False
    assert not report.ok


def test_csv_serialization():
    text = matrix_to_csv(build(balancing_chain(3)))
    assert text == "5/6,1/6,0\n5/6,0,1/6\n5/6,1/6,0"


def test_json_round_trip():
    for family in (balancing_chain(5), lucas_cobalancing_chain(6)):
        m = build(family)
        restored = matrix_from_json(matrix_to_json(m))
        assert restored == m
        assert restored.label == family.label


def test_json_round_trip_banded():
    m = build(balancing_chain(70))
    assert matrix_from_json(matrix_to_json(m)) == m
    assert validate(m).ok


def test_entry_bounds_checked():
    m = build(balancing_chain(3))
    with pytest.raises(IndexError):
        m.entry(3, 0)
    with pytest.raises(IndexError):
        m.entry(0, -1)


def solve_by_band_route(monkeypatch, m):
    """solve_exact(m), failing if it falls back to elimination."""

    def no_elimination(m):
        raise AssertionError("band-shaped chain fell back to elimination")

    with monkeypatch.context() as patch:
        patch.setattr(steady, "_solve_gauss", no_elimination)
        return solve_exact(m)


def test_band_store_collisions_resolve_to_column_zero(monkeypatch):
    # cells (0, 0) and (1, 0) lie on column 0 and on the band; the band
    # solver never reads column 0, so they take the band route unharmed
    z, h, k = R(0), R(1, 2), R(1, 4)
    m = StochasticMatrix.from_rows([[h, h, z], [h, k, k], [R(5, 6), R(1, 6), z]])
    assert m.nonzeros(0) == [(0, h), (1, h)]
    assert m.nonzeros(1) == [(0, h), (1, k), (2, k)]
    assert m.nonzeros(2) == [(0, R(5, 6)), (1, R(1, 6))]
    assert m.nonzero_count() == 7
    assert m.den == 12
    assert m.numerators == ({0: 6, 1: 6}, {0: 6, 1: 3, 2: 3}, {0: 10, 1: 2})
    assert solve_by_band_route(monkeypatch, m) == _solve_gauss(m)
    assert validate(m).ok


@pytest.mark.parametrize("family", all_families(), ids=lambda f: f.label)
def test_band_shape_is_the_same_on_both_stores(monkeypatch, family):
    # a family built from its cells and the same matrix read from dense rows
    banded = build(family)
    dense = StochasticMatrix.from_rows(banded.rows())
    assert (dense.den, dense.numerators) == (banded.den, banded.numerators)
    for i in range(dense.n):
        assert dense.nonzeros(i) == banded.nonzeros(i)
    assert solve_by_band_route(monkeypatch, dense) == solve_by_band_route(monkeypatch, banded)


def test_band_shape_rejects_cells_off_the_pattern(monkeypatch):
    rows = [list(row) for row in build(balancing_chain(5)).rows()]
    rows[1][3] = R(1, 100)
    m = StochasticMatrix.from_rows(rows)
    calls = []
    monkeypatch.setattr(steady, "_solve_gauss", lambda m: calls.append(m) or [])
    solve_exact(m)
    assert calls == [m]


def test_empty_matrix_is_rejected_at_construction():
    with pytest.raises(ValueError, match="matrix has no states"):
        StochasticMatrix.from_rows([])
    with pytest.raises(ValueError, match="matrix has no states"):
        StochasticMatrix.from_cells(0, {})


# mixed and shared denominators, negatives and zeros
store_cells = st.one_of(
    st.just(R(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=30),
    st.sampled_from([R(1, 7), R(2, 49), R(-5, 14), R(1, 6), R(1, 210)]),
)
square_rows = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(store_cells, min_size=n, max_size=n), min_size=n, max_size=n)
)


@given(square_rows)
def test_store_is_canonical(rows):
    n = len(rows)
    m = StochasticMatrix.from_rows(rows)
    cells = {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x}
    assert m.den == lcm(*(x.denominator for x in cells.values()))
    assert m.rows() == [tuple(row) for row in rows]
    assert all(m.entry(i, j) == rows[i][j] for i in range(n) for j in range(n))
    for i in range(n):
        assert m.nonzeros(i) == [(j, x) for j, x in enumerate(rows[i]) if x]
    assert m == StochasticMatrix.from_cells(n, cells)


@given(
    st.sampled_from(sorted(KINDS)),
    st.integers(3, 30),
    st.integers(2, 12),
    st.sampled_from([R(1, 7), R(1, 14), R(2, 49), R(1, 6), R(3, 100), R(7, 50), R(2, 15), R(5, 31)]),
)
def test_built_store_is_canonical(kind, n, a, q):
    spec = KINDS[kind]
    assume(not (spec.takes_a and spec.takes_q) or q <= R(1, a))
    a, q = (a if spec.takes_a else None), (q if spec.takes_q else None)
    m = build(ChainFamily(kind, max(n, spec.min_n), a, q))
    assert m == StochasticMatrix.from_rows(m.rows())
    # q is the cell (0, 1), so its denominator is the store's; a q-free
    # kind has q = 1/a, and lucas-cobalancing's 1/14 needs 42
    if q is not None:
        assert m.den == q.denominator
    elif kind == "lucas-cobalancing":
        assert m.den == 42
    else:
        assert m.den == (a or 6)


def test_validate_reports_are_equal_on_both_stores():
    cases = [build(f) for f in all_families()]
    # a broken band matrix: negative cells, bad sums, a state nobody enters
    cases.append(
        StochasticMatrix.from_cells(
            4,
            {
                (0, 0): R(1),
                (1, 0): R(1, 2), (1, 1): R(1, 4), (1, 2): R(1, 4),
                (2, 0): R(1, 2), (2, 1): R(-1, 4), (2, 2): R(3, 4),
                (3, 0): R(0), (3, 2): R(1, 2), (3, 3): R(1, 2),
            },
        )
    )
    for m in cases:
        assert validate(m) == validate(StochasticMatrix.from_rows(m.rows()))


def dense_csv(m):
    """The dense serialisers the sparse writer replaced: one str() per cell."""
    return "\n".join(",".join(row) for row in frac_rows(m))


def dense_json(m):
    return json.dumps({"n": m.n, "family": m.label, "rows": frac_rows(m)})


@given(square_rows, st.text(max_size=4))
def test_sparse_writer_matches_the_dense_oracle_and_round_trips(rows, label):
    m = StochasticMatrix.from_rows(rows, label=label)
    assert matrix_to_csv(m) == dense_csv(m)
    assert matrix_to_json(m) == dense_json(m)
    restored = matrix_from_json(matrix_to_json(m))
    assert restored == m
    assert restored.label == label


zero_spellings = st.sampled_from([0, "0", "0/7", "-0", "0.00"])


@given(square_rows, st.data())
def test_every_spelling_of_zero_reads_like_dense_rows(rows, data):
    cells = [
        [data.draw(zero_spellings) if not x else str(x) for x in row] for row in rows
    ]
    payload = json.dumps({"n": len(rows), "rows": cells})
    m = matrix_from_json(payload)
    assert m == StochasticMatrix.from_rows([[R(c) for c in row] for row in cells])
    assert m.nonzero_count() == sum(1 for row in rows for x in row if x)


@given(
    st.integers(1, 20),
    st.data(),
    st.sampled_from([0.0, 0.5, True, False, None, "1/0", "x"]),
)
def test_first_bad_cell_after_zeros_raises(n, data, bad):
    # everything before the bad cell is written zeros; a second bad cell
    # after it must not be the one reported
    k = data.draw(st.integers(0, n * n - 1))
    flat = ["0"] * (n * n)
    flat[k] = bad
    if k + 1 < n * n:
        flat[-1] = "1/0" if bad != "1/0" else 0.25
    payload = json.dumps({"n": n, "rows": [flat[i * n:(i + 1) * n] for i in range(n)]})
    reason = {"1/0": "Fraction(1, 0)", "x": "Invalid literal for Fraction: 'x'"}.get(bad, NOT_EXACT)
    message = f"matrix cell {bad!r}: {reason}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        matrix_from_json(payload)


@pytest.mark.parametrize("cell", ["1e0", "0.5", "1e1000", "3E-1000", "-2.5e+3", " 1_0e0_2 "])
def test_cells_within_the_exponent_budget_parse(cell):
    payload = json.dumps({"n": 1, "rows": [[cell]]})
    assert matrix_from_json(payload).entry(0, 0) == R(cell)


@pytest.mark.parametrize(
    "cell", ["0e1001", "1e-1001", "1E+5000", "0e4000000", "1e" + "9" * 5000, "1e0_000_001_001"]
)
def test_cell_exponent_past_the_budget_is_rejected_before_parsing(cell):
    # before, Fraction computed 10**exponent: "0e4000000" took about 2 s
    # and read as a zero cell
    payload = json.dumps({"n": 1, "rows": [[cell]]})
    message = f"matrix cell {cell!r}: {BUDGET}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        matrix_from_json(payload)


def from_constructor(constructor, rows):
    if constructor == "from_rows":
        return StochasticMatrix.from_rows(rows)
    cells = {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row)}
    return StochasticMatrix.from_cells(len(rows), cells)


@pytest.mark.parametrize("cell", [0.1, 0.5, 0.0, 1.0, True, False, None, Decimal("0.5")])
@pytest.mark.parametrize("constructor", ["from_rows", "from_cells"])
def test_constructors_reject_float_and_bool_cells(constructor, cell):
    # before, from_rows([[0.1, 0.9], [0.5, 0.5]]) stored den = 2**55; None
    # and Decimal cells follow the same rule
    rows = [[cell, R(1, 2)], [R(1, 2), R(1, 2)]]
    message = f"matrix cell {cell!r}: {NOT_EXACT}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        from_constructor(constructor, rows)


@pytest.mark.parametrize("cell", ["0e1001", "1E+5000", "0e4000000", "1e" + "9" * 5000])
@pytest.mark.parametrize("constructor", ["from_rows", "from_cells"])
def test_constructors_reject_string_cells_past_the_exponent_budget(constructor, cell):
    # before, from_rows([["0e400000", "1"], ["1", "0"]]) computed
    # 10**400000 and was accepted after some 70 ms
    rows = [[cell, "1"], ["1", "0"]]
    message = f"matrix cell {cell!r}: {BUDGET}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        from_constructor(constructor, rows)


@pytest.mark.parametrize("cell", ["1e0", "0.5", "1e1000", "3E-1000", "-2.5e+3", " 2e-1 "])
@pytest.mark.parametrize("constructor", ["from_rows", "from_cells"])
def test_constructor_string_cells_within_the_exponent_budget_parse(constructor, cell):
    m = from_constructor(constructor, [[cell, "0"], ["0", "1"]])
    assert m.entry(0, 0) == R(cell)


@pytest.mark.parametrize("q", ["0e1001", "1e-1001", "0e4000000", "1e" + "9" * 5000])
def test_chain_family_rejects_a_string_q_past_the_exponent_budget(q):
    message = f"balancing-q needs an exact q, got {q!r}: {BUDGET}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        ChainFamily("balancing-q", 4, q=q)


@pytest.mark.parametrize("q", ["1e-1", "0.125", "1E-1000", " 1.5E-01 "])
def test_chain_family_string_q_within_the_exponent_budget_parses(q):
    assert ChainFamily("balancing-q", 4, q=q).q == R(q)

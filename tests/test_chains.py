import re
from fractions import Fraction

import pytest

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
    with pytest.raises(IndexError):
        StochasticMatrix.from_cells(2, {(0, 2): R(1)})
    with pytest.raises(IndexError):
        m.nonzeros(2)


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


def test_band_store_collisions_resolve_to_column_zero():
    # cells (0, 0) and (1, 0) lie on column 0 and on the band; band() files
    # them under column 0, so diag[0], sub[1] and sup[n-1] are never set
    z, h, k = R(0), R(1, 2), R(1, 4)
    m = StochasticMatrix.from_rows([[h, h, z], [h, k, k], [R(5, 6), R(1, 6), z]])
    assert m.nonzeros(0) == [(0, h), (1, h)]
    assert m.nonzeros(1) == [(0, h), (1, k), (2, k)]
    assert m.nonzeros(2) == [(0, R(5, 6)), (1, R(1, 6))]
    assert m.nonzero_count() == 7
    col0, sub, diag, sup = m.band()
    assert col0 == (h, h, R(5, 6))
    assert (diag[0], sub[1], sup[2]) == (z, z, z)
    assert (sup[0], diag[1], sup[1], sub[2]) == (h, k, k, R(1, 6))
    assert validate(m).ok


@pytest.mark.parametrize("family", all_families(), ids=lambda f: f.label)
def test_band_shape_is_the_same_on_both_stores(family):
    banded = build(family)
    dense = StochasticMatrix.from_rows(banded.rows())
    assert dense.band() == banded.band()
    for i in range(dense.n):
        assert dense.nonzeros(i) == banded.nonzeros(i)


def test_band_shape_rejects_cells_off_the_pattern():
    rows = [list(row) for row in build(balancing_chain(5)).rows()]
    rows[1][3] = R(1, 100)
    assert StochasticMatrix.from_rows(rows).band() is None


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

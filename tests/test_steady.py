from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balchain import steady
from balchain.chains import (
    KINDS,
    ChainFamily,
    StochasticMatrix,
    balancing_chain,
    balancing_chain_q,
    balancing_like_chain,
    build,
    lucas_chain,
    lucas_chain_q,
    lucas_cobalancing_chain,
    matrix_from_json,
    matrix_to_json,
    pell_ratio_chain,
)
from balchain.steady import (
    ConvergenceError,
    SolverError,
    n_step,
    power_iteration,
    _solve_gauss,
    simulate,
    solve_exact,
)

R = Fraction


def symmetric_two_state():
    half = R(1, 2)
    return StochasticMatrix.from_rows([[half, half], [half, half]])


def linf(float_vec, exact_vec):
    return max(abs(a - float(b)) for a, b in zip(float_vec, exact_vec))


SOLVE_CASES = [
    balancing_chain(3),
    balancing_chain(9),
    pell_ratio_chain(7),
    lucas_chain(6),
    lucas_cobalancing_chain(5),
    balancing_like_chain(8, 3),
    balancing_like_chain(6, 2),
]


def test_solve_exact_frozen_vectors():
    # hand derivation for size 3: pi2 = k, pi1 = 6k, pi0 = 35k, k = 1/42
    assert solve_exact(build(balancing_chain(3))) == [R(5, 6), R(1, 7), R(1, 42)]
    # lucas variant: proportions (17, 3, 1), total 21
    assert solve_exact(build(lucas_chain(3))) == [R(17, 21), R(1, 7), R(1, 21)]
    assert solve_exact(symmetric_two_state()) == [R(1, 2), R(1, 2)]


@pytest.mark.parametrize("family", SOLVE_CASES, ids=lambda f: f.label)
def test_solution_is_an_exact_fixed_point(family):
    m = build(family)
    pi = solve_exact(m)
    assert sum(pi) == 1
    assert all(p > 0 for p in pi)
    for j in range(m.n):
        assert sum(pi[i] * m.entry(i, j) for i in range(m.n)) == pi[j]


@pytest.mark.parametrize(
    "family,ratio",
    [
        (balancing_chain(8), 6),
        (pell_ratio_chain(8), 5),
        (lucas_chain(8), 3),
        (lucas_cobalancing_chain(8), 7),
        (balancing_like_chain(8, 4), 4),
        (balancing_like_chain(8, 10), 10),
    ],
    ids=lambda v: str(v),
)
def test_boundary_balance_ratio(family, ratio):
    pi = solve_exact(build(family))
    assert pi[-2] == ratio * pi[-1]


def test_interior_balance_recursion():
    n = 10
    pi = solve_exact(build(balancing_chain(n)))
    for i in range(1, n - 1):
        assert pi[i - 1] == 6 * pi[i] - pi[i + 1]


def test_solver_rejects_reducible_chain():
    identity = StochasticMatrix.from_rows([[R(1), R(0)], [R(0), R(1)]])
    with pytest.raises(SolverError):
        solve_exact(identity)


def test_dense_and_banded_solves_are_identical():
    # a family built from its cells and the same matrix read from dense rows
    for family in (balancing_chain(9), lucas_cobalancing_chain(9)):
        banded = build(family)
        dense = StochasticMatrix.from_rows(banded.rows())
        assert solve_exact(dense) == solve_exact(banded)


def test_power_iteration_matches_exact():
    m = build(balancing_chain(5))
    vector, iterations = power_iteration(m, tol=1e-12)
    assert iterations < 10**4
    assert linf(vector, solve_exact(m)) < 1e-10


def test_power_iteration_symmetric_two_state():
    vector, iterations = power_iteration(symmetric_two_state(), tol=1e-12)
    assert iterations <= 2
    assert vector == [0.5, 0.5]


def test_power_iteration_slow_chain_still_matches_base():
    # small q slows mixing but cannot change the stationary vector
    exact = solve_exact(build(lucas_chain(8)))
    vector, _ = power_iteration(build(lucas_chain_q(8, R(1, 100))), tol=1e-12)
    assert linf(vector, exact) < 1e-10


def test_power_iteration_reports_non_convergence():
    m = build(lucas_chain_q(8, R(1, 100)))
    with pytest.raises(ConvergenceError) as excinfo:
        power_iteration(m, tol=1e-12, max_iter=3)
    assert excinfo.value.iterations == 3
    assert len(excinfo.value.vector) == 8
    assert abs(sum(excinfo.value.vector) - 1.0) < 1e-9


def test_power_iteration_parameter_checks():
    m = build(balancing_chain(3))
    with pytest.raises(ValueError):
        power_iteration(m, tol=0.0)
    with pytest.raises(ValueError):
        power_iteration(m, tol=float("nan"))
    with pytest.raises(ValueError):
        power_iteration(m, max_iter=0)


def test_n_step_one_is_the_matrix_itself():
    m = build(balancing_chain(4))
    assert n_step(m, 1) == m
    with pytest.raises(ValueError):
        n_step(m, 0)


def test_n_step_rows_stay_stochastic():
    m = build(balancing_chain(3))
    squared = n_step(m, 2)
    for i in range(3):
        row = squared.row(i)
        assert sum(row) == 1
        assert all(x >= 0 for x in row)
    # direct check of one product entry
    assert squared.entry(0, 0) == sum(
        m.entry(0, k) * m.entry(k, 0) for k in range(3)
    )


def test_n_step_converges_to_stationary_rows():
    m = build(balancing_chain(3))
    pi = solve_exact(m)
    p64 = n_step(m, 64)
    for i in range(3):
        assert linf([float(x) for x in p64.row(i)], pi) < 1e-9


def test_n_step_powers_of_two_converge_geometrically():
    m = build(lucas_chain(5))
    pi = solve_exact(m)
    distances = []
    for k in range(1, 7):
        p = n_step(m, 2**k)
        distances.append(max(abs(p.entry(0, j) - pi[j]) for j in range(5)))
    assert all(later < earlier for earlier, later in zip(distances, distances[1:]))
    assert float(distances[-1]) < 1e-9


def naive_power(m, k):
    """Rows of P**k by k - 1 row-by-matrix products of Fractions."""
    columns = list(zip(*m.rows()))
    power = m.rows()
    for _ in range(k - 1):
        power = [
            tuple(sum(x * c for x, c in zip(row, column) if c) for column in columns)
            for row in power
        ]
    return power


cell_values = st.one_of(
    st.just(R(0)),
    st.fractions(min_value=-2, max_value=2, max_denominator=12),
)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(cell_values, min_size=n, max_size=n), min_size=n, max_size=n))
    source = draw(st.sampled_from(["rows", "cells", "json"]))
    if source == "cells":
        cells = {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x}
        return StochasticMatrix.from_cells(n, cells, label="m")
    m = StochasticMatrix.from_rows(rows, label="m")
    return matrix_from_json(matrix_to_json(m)) if source == "json" else m


@settings(max_examples=60, deadline=None)
@given(square_matrices(), st.integers(1, 40))
@example(StochasticMatrix.from_rows([[R(0), R(0)], [R(-1, 3), R(4, 5)]], label="m"), 3)
@example(StochasticMatrix.from_rows([[R(0)]], label="m"), 5)
def test_n_step_equals_repeated_products(m, k):
    p = n_step(m, k)
    assert p.rows() == naive_power(m, k)
    assert p.label == f"pow(m,{k})"


@pytest.mark.parametrize("kind", KINDS)
def test_n_step_64_of_every_kind_equals_repeated_products(kind):
    spec = KINDS[kind]
    a = 4 if spec.takes_a else None
    q = R(1, 7) if spec.takes_q else None
    m = build(ChainFamily(kind, 12, a, q))
    assert n_step(m, 64).rows() == naive_power(m, 64)


def test_simulate_is_deterministic():
    m = build(balancing_chain(4))
    first = simulate(m, steps=2000, seed=7)
    second = simulate(m, steps=2000, seed=7)
    assert first == second
    different = simulate(m, steps=2000, seed=8)
    assert first.visits != different.visits


def test_simulate_single_step():
    m = build(balancing_chain(4))
    result = simulate(m, steps=1, seed=3)
    assert sum(result.visits) == 1
    assert result.steps == 1
    assert result.rng == "mt19937"


def test_simulate_counts_and_frequencies():
    m = build(balancing_chain(4))
    result = simulate(m, steps=5000, seed=11, start=2)
    assert sum(result.visits) == 5000
    assert result.empirical == tuple(v / 5000 for v in result.visits)


def test_simulate_converges_statistically():
    m = build(balancing_chain(4))
    pi = solve_exact(m)
    for seed in (1, 2, 3):
        result = simulate(m, steps=10**6, seed=seed)
        assert linf(result.empirical, pi) < 0.01


def test_simulate_parameter_checks():
    m = build(balancing_chain(4))
    with pytest.raises(ValueError):
        simulate(m, steps=0, seed=1)
    with pytest.raises(ValueError):
        simulate(m, steps=10, seed=1, start=4)


def solve_or_singular(solver, m):
    try:
        return solver(m)
    except SolverError:
        return "singular"


# zero and negative cells included: the band route must match elimination
# on any column-0 + band system, stochastic or not
band_cells = st.sampled_from(
    [R(0), R(0), R(1), R(1, 2), R(1, 3), R(1, 6), R(5, 6), R(-1, 4), R(3, 2)]
)


@st.composite
def band_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    return [draw(st.lists(band_cells, min_size=n, max_size=n)) for _ in range(4)]


def band_rows(arrays):
    """Dense rows from (col0, sub, diag, sup); column 0 wins where a band
    slot falls on it, and slots off the matrix are dropped."""
    col0, sub, diag, sup = arrays
    n = len(col0)
    rows = [[R(0)] * n for _ in range(n)]
    for i in range(n):
        for j, x in ((i - 1, sub[i]), (i, diag[i]), (i + 1, sup[i])):
            if 0 < j < n:
                rows[i][j] = x
        rows[i][0] = col0[i]
    return rows


@given(band_matrices())
# denominators whose lcm is large: 994 * 11 * 13
@example(
    [
        [R(1, 2), R(1, 994), R(3, 7), R(5, 11)],
        [R(0), R(3, 7), R(1, 994), R(2, 13)],
        [R(0), R(5, 11), R(3, 7), R(1, 994)],
        [R(3, 7), R(1, 994), R(2, 13), R(0)],
    ]
)
# a negative superdiagonal cell
@example(
    [
        [R(1, 2), R(1, 3), R(1, 6), R(1, 2)],
        [R(0), R(1, 3), R(1, 2), R(1, 4)],
        [R(1, 3), R(1, 6), R(5, 6), R(1, 4)],
        [R(1, 6), R(-1, 4), R(1, 3), R(0)],
    ]
)
@example([[R(1, 3)], [R(0)], [R(0)], [R(0)]])  # n = 1
@example([[R(2, 3), R(1, 4)], [R(0), R(1, 4)], [R(0), R(1, 2)], [R(1, 3), R(0)]])  # n = 2
def test_band_route_equals_gaussian_elimination(arrays):
    dense = StochasticMatrix.from_rows(band_rows(arrays))
    reference = solve_or_singular(_solve_gauss, dense)
    for m in (dense, matrix_from_json(matrix_to_json(dense))):
        assert m.band() is not None
        assert solve_or_singular(solve_exact, m) == reference


def test_band_route_singular_system_raises_both_ways():
    # pi = (-1, 1) solves both column equations, so sum(pi) == 0
    m = StochasticMatrix.from_rows([[R(1, 2), R(1, 2)], [R(0), R(3, 2)]])
    for solver in (solve_exact, _solve_gauss):
        with pytest.raises(SolverError):
            solver(m)


def sweep_cases():
    """Every kind, balancing-like at a = 5, q-kinds at q = 1/coeff and
    q = 1/(coeff + 94)."""
    for kind, spec in KINDS.items():
        a = 5 if spec.takes_a else None
        coeff = a or 6
        for q in (R(1, coeff), R(1, coeff + 94)) if spec.takes_q else (None,):
            yield pytest.param(kind, a, q, id=f"{kind}-q={q}" if q else kind)


@pytest.mark.parametrize("kind, a, q", sweep_cases())
def test_band_route_equals_elimination_on_every_family(kind, a, q):
    for n in range(KINDS[kind].min_n, 61):
        m = build(ChainFamily(kind, n, a, q))
        assert solve_exact(m) == _solve_gauss(m), f"{kind} n={n}"


def assert_exactly_stationary(m, pi):
    """pi*P == pi and sum(pi) == 1 in Fractions, over the nonzero cells."""
    assert sum(pi) == 1
    pi_p = [R(0)] * m.n
    for i in range(m.n):
        for j, x in m.nonzeros(i):
            pi_p[j] += pi[i] * x
    assert pi_p == pi


@pytest.mark.parametrize("n", [150, 400])
@pytest.mark.parametrize("kind, a, q", sweep_cases())
def test_large_band_solves_are_exactly_stationary(kind, a, q, n):
    m = build(ChainFamily(kind, n, a, q))
    assert_exactly_stationary(m, solve_exact(m))


def test_zero_superdiagonal_falls_back_to_elimination(monkeypatch):
    # move row 1's upward step onto its diagonal: still band-shaped and
    # stochastic, but the recurrence cannot divide by P[1][2] == 0
    rows = [list(row) for row in build(balancing_chain(5)).rows()]
    rows[1][2], rows[1][1] = R(0), R(1, 6)
    m = StochasticMatrix.from_rows(rows)
    expected = _solve_gauss(m)
    calls = []
    monkeypatch.setattr(steady, "_solve_gauss", lambda m: calls.append(m) or expected)
    assert solve_exact(m) == expected
    assert calls == [m]


def test_full_matrix_solves_by_elimination(monkeypatch):
    rows = [[R(1 + i + j, 10 + 4 * i) for j in range(4)] for i in range(4)]
    m = StochasticMatrix.from_rows(rows)
    assert m.band() is None
    expected = _solve_gauss(m)
    assert sum(expected) == 1
    calls = []
    monkeypatch.setattr(steady, "_solve_gauss", lambda m: calls.append(m) or expected)
    assert solve_exact(m) == expected
    assert calls == [m]


# "banded": built from the family's cells; "dense": read back from dense rows
@pytest.mark.parametrize("source", ["dense", "banded"])
@pytest.mark.parametrize("family", SOLVE_CASES, ids=lambda f: f.label)
def test_families_take_the_band_route(monkeypatch, family, source):
    m = build(family)
    if source == "dense":
        m = StochasticMatrix.from_rows(m.rows())
    expected = _solve_gauss(m)

    def no_elimination(m):
        raise AssertionError("band-shaped chain fell back to elimination")

    monkeypatch.setattr(steady, "_solve_gauss", no_elimination)
    assert solve_exact(m) == expected


class _TopDraw:
    """Stands in for random.Random: every draw is the largest float < 1."""

    def __init__(self, seed):
        pass

    def random(self):
        return 1.0 - 2.0**-53


@pytest.mark.parametrize(
    "family", [lucas_cobalancing_chain(6), balancing_chain_q(6, R(1, 7))],
    ids=lambda f: f.label,
)
def test_simulate_float_drift_stays_on_possible_targets(monkeypatch, family):
    # rows 2-4 sum to just below 1.0 in floats; a draw above that sum must
    # land on the row's last nonzero target, never on a zero-probability one
    monkeypatch.setattr(steady, "random", SimpleNamespace(Random=_TopDraw))
    m = build(family)
    for start in (2, 3, 4):
        result = simulate(m, steps=1, seed=0, start=start)
        assert result.visits[start + 1] == 1


def test_simulate_rejects_a_row_without_targets():
    m = StochasticMatrix.from_rows([[R(1), R(0)], [R(0), R(0)]])
    with pytest.raises(ValueError):
        simulate(m, steps=10, seed=1)

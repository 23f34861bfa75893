import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from balchain import steady
from balchain.chains import (
    KINDS,
    ChainFamily,
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
    matrix_to_json,
    pell_ratio_chain,
    validate,
)
from balchain.steady import (
    ConvergenceError,
    SimulationResult,
    SolverError,
    n_step,
    power_iteration,
    simulate,
    solve_exact,
    _unit_float,
)
import oracles
from oracles import _gauss_weights, _solve_gauss

R = Fraction


def symmetric_two_state():
    half = R(1, 2)
    return StochasticMatrix.from_rows([[half, half], [half, half]])


def normalised(rows):
    """Each row of nonnegative weights over its sum; a zero row stays put."""
    return [
        [x / total for x in row] if (total := sum(row)) else [R(i == j) for j in range(len(row))]
        for i, row in enumerate(rows)
    ]


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
    # two closed classes: states 0 and 1 absorb, state 2 moves to either
    split = StochasticMatrix.from_rows([[1, 0, 0], [0, 1, 0], [R(1, 2), R(1, 2), 0]])
    for m in (identity, split):
        for solver in (solve_exact, _solve_gauss):
            with pytest.raises(SolverError):
                solver(m)


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
    with pytest.raises(ValueError, match="finite"):
        power_iteration(m, tol=float("inf"))
    with pytest.raises(ValueError):
        power_iteration(m, max_iter=0)
    for max_iter in (1.5, 3.0, True, None):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            power_iteration(m, max_iter=max_iter)


def test_power_iteration_rejects_an_empty_matrix():
    with pytest.raises(ValueError, match="matrix has no states"):
        power_iteration(StochasticMatrix.from_rows([]))


def shifted_rows(m):
    """Rows of nonzero ``(j, Fraction)`` cells of (P - sI)/(1 - s), with s
    the smallest diagonal cell, or half of it when every diagonal cell is
    s: the chain power_iteration iterates, built here from the cells."""
    diagonal = [dict(m.nonzeros(i)).get(i, R(0)) for i in range(m.n)]
    s = min(diagonal)
    if s == max(diagonal):
        s /= 2
    rows = []
    for i in range(m.n):
        cells = [(j, (x - s if i == j else x) / (1 - s)) for j, x in m.nonzeros(i)]
        rows.append([(j, x) for j, x in cells if x])
    return rows


def reference_power_iteration(m, tol=1e-12, max_iter=10**6, shift=True):
    """Power iteration written out from the Fraction cells, kept here as
    the oracle: on the shifted chain of ``shifted_rows``, or on P itself
    when ``shift`` is false."""
    n = m.n
    cells = shifted_rows(m) if shift else [m.nonzeros(i) for i in range(n)]
    rows = [[(j, float(x)) for j, x in row] for row in cells]
    v = [1.0 / n] * n
    for iteration in range(1, max_iter + 1):
        w = [0.0] * n
        for i, weight in enumerate(v):
            if weight:
                for j, p in rows[i]:
                    w[j] += weight * p
        delta = sum(abs(w[j] - v[j]) for j in range(n))
        v = w
        if delta < tol:
            return v, iteration
    raise ConvergenceError("no convergence", v, max_iter)


def power_outcome(solver, m, **kwargs):
    """(converged, vector as float.hex, iterations): hex tells -0.0 from
    0.0, so equal outcomes are equal bit for bit."""
    try:
        vector, iterations = solver(m, **kwargs)
        converged = True
    except ConvergenceError as exc:
        vector, iterations, converged = exc.vector, exc.iterations, False
    return converged, [x.hex() for x in vector], iterations


def assert_same_as_loop(m, **kwargs):
    """power_iteration equals the oracle bit for bit; returns the outcome."""
    outcome = power_outcome(power_iteration, m, **kwargs)
    assert outcome == power_outcome(reference_power_iteration, m, **kwargs)
    return outcome


def every_kind_at_every_q(sizes=(3, 12, 50)):
    """All ten kinds at each size n; q-kinds at q = 1/coeff, 1/100, 1/1000."""
    for kind, spec in KINDS.items():
        a = 5 if spec.takes_a else None
        for n in sizes:
            if n < spec.min_n:
                continue
            for q in (R(1, a or 6), R(1, 100), R(1, 1000)) if spec.takes_q else (None,):
                yield ChainFamily(kind, n, a, q)


# balancing-like at a = 2 has no collapse: a random walk that mixes slowly
# with or without the shift, some 800 iterations at n = 12
SLOW_AFTER_THE_SHIFT = [balancing_like_chain(12, 2), balancing_like_chain_q(12, 2, R(1, 100))]


def test_power_iteration_equals_the_loop_on_every_kind():
    families = [*every_kind_at_every_q(), *SLOW_AFTER_THE_SHIFT]
    iterations = [assert_same_as_loop(build(family))[2] for family in families]
    # fast chains converge in tens of iterations, slow-mixing ones in hundreds
    assert [count > 250 for count in iterations] == [family.a == 2 for family in families]


def l1_error(vector, pi):
    return sum(abs(R(x) - p) for x, p in zip(vector, pi))


def test_shift_never_loses_accuracy_on_every_kind():
    for family in every_kind_at_every_q():
        m = build(family)
        pi = solve_exact(m)
        shifted, iterations = power_iteration(m)
        plain, plain_iterations = reference_power_iteration(m, shift=False)
        assert l1_error(shifted, pi) <= l1_error(plain, pi), family.label
        assert iterations <= plain_iterations, family.label


@pytest.mark.parametrize("kind", [kind for kind, spec in KINDS.items() if spec.takes_q])
def test_a_shifted_q_family_iterates_its_q_free_chain(kind):
    # P(q) = I + q*c*(P(1/c) - I), and P(1/c) has a zero diagonal cell, so
    # the smallest diagonal cell of P(q) is 1 - q*c and the shift gives
    # P(1/c) exactly, whatever q
    a = 4 if KINDS[kind].takes_a else None
    base = power_iteration(build(ChainFamily(kind.removesuffix("-q"), 12, a)))
    for q in (R(1, 7), R(1, 100), R(1, 1000)):
        assert power_iteration(build(ChainFamily(kind, 12, a, q))) == base


@pytest.mark.parametrize(
    "rows",
    [
        # (I + C)/2 for the 3-cycle C: the full shift would leave C, periodic
        [[R(1, 2), R(1, 2), R(0)], [R(0), R(1, 2), R(1, 2)], [R(1, 2), R(0), R(1, 2)]],
        [[R(1, 2), R(1, 2)], [R(1, 2), R(1, 2)]],
        [[R(1)]],
        # (I + B)/2 for the periodic B of the bipartite matrix file, whose pi
        # is not uniform: the full shift would leave B, and never converge
        [[R(1, 2), R(1, 2), R(0)], [R(1, 4), R(1, 2), R(1, 4)], [R(0), R(1, 2), R(1, 2)]],
    ],
    ids=["lazy-3-cycle", "halves", "one-state", "lazy-bipartite"],
)
def test_equal_diagonal_cells_take_half_the_shift(rows):
    m = StochasticMatrix.from_rows(rows)
    vector, iterations = power_iteration(m)
    assert l1_error(vector, solve_exact(m)) < 1e-12
    assert (vector, iterations) == reference_power_iteration(m)
    if m.n == 1:
        assert (vector, iterations) == ([1.0], 1)


def test_a_periodic_chain_is_not_shifted():
    # every diagonal cell of a periodic chain is 0, so P* is P and the
    # iterates keep cycling
    m = StochasticMatrix.from_rows([[0, 1, 0], [R(1, 2), 0, R(1, 2)], [0, 1, 0]])
    with pytest.raises(ConvergenceError):
        power_iteration(m, max_iter=1000)
    assert power_outcome(power_iteration, m, max_iter=7) == power_outcome(
        reference_power_iteration, m, max_iter=7, shift=False
    )


def lazy_rows(rows, eps):
    """(1 - eps)*I + eps*P: the same stationary vector, slower mixing."""
    return [
        [(1 - eps) * (i == j) + eps * x for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]


def without_self_loop(m, state):
    """m with the self-loop of ``state`` removed and the rest of its row
    scaled up to sum 1.  The smallest diagonal cell is then 0, so the
    shift leaves m as it is, and a lazy chain stays slow."""
    cells = {(i, j): x for i in range(m.n) for j, x in m.nonzeros(i)}
    stay = cells.pop((state, state))
    for i, j in cells:
        if i == state:
            cells[i, j] /= 1 - stay
    return StochasticMatrix.from_cells(m.n, cells)


@pytest.mark.parametrize(
    "m",
    [
        # every cell but (0, 0) nonzero, so off the band
        without_self_loop(
            StochasticMatrix.from_rows(
                lazy_rows([[R(1 + i + j, 10 + 4 * i) for j in range(4)] for i in range(4)], R(1, 200))
            ),
            0,
        ),
        # state 2 is never entered: its weight is 0.0 after one step and
        # its column is empty
        StochasticMatrix.from_rows(
            [[R(999, 1000), R(1, 1000), R(0)], [R(2, 500), R(498, 500), R(0)], [R(1, 2), R(1, 2), R(0)]]
        ),
    ],
    ids=["full", "zero-weight"],
)
def test_power_iteration_equals_the_loop_off_the_band(m):
    assert_same_as_loop(m, max_iter=750)


@pytest.mark.parametrize("max_iter", [249, 250, 251, 252])
def test_convergence_error_vector_equals_the_loop(max_iter):
    m = build(SLOW_AFTER_THE_SHIFT[1])
    converged, _, iterations = assert_same_as_loop(m, max_iter=max_iter)
    assert not converged and iterations == max_iter


def test_n_step_one_is_the_matrix_itself():
    m = build(balancing_chain(4))
    assert n_step(m, 1) == m
    with pytest.raises(ValueError):
        n_step(m, 0)


@pytest.mark.parametrize("k", [1.5, 2.0, True, None, "2"])
def test_n_step_needs_an_integer_exponent(k):
    with pytest.raises(ValueError, match="exponent must be an integer"):
        n_step(build(balancing_chain(4)), k)


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


weight_values = st.one_of(
    st.just(R(0)),
    st.fractions(min_value=0, max_value=2, max_denominator=12),
)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.lists(weight_values, min_size=n, max_size=n), min_size=n, max_size=n))
    rows = normalised(weights)
    source = draw(st.sampled_from(["rows", "cells", "json"]))
    if source == "cells":
        cells = {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x}
        return StochasticMatrix.from_cells(n, cells, label="m")
    m = StochasticMatrix.from_rows(rows, label="m")
    return matrix_from_json(matrix_to_json(m)) if source == "json" else m


@settings(max_examples=60, deadline=None)
@given(square_matrices(), st.integers(1, 40))
@example(StochasticMatrix.from_rows([[R(0), R(1)], [R(1, 3), R(2, 3)]], label="m"), 3)
@example(StochasticMatrix.from_rows([[R(1)]], label="m"), 5)
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


# values on both sides of a byte boundary: a bound of 2**(8w-1) takes
# slots of w + 1 bytes, and 2**(8w) is the first value w bytes cannot hold
slot_edges = st.builds(
    lambda w, e, d: 2 ** (8 * w - e) + d, st.integers(1, 3), st.integers(0, 1), st.integers(-1, 1)
)
int_cells = st.one_of(st.just(0), st.integers(1, 3), slot_edges)


@st.composite
def int_factors(draw):
    n = draw(st.integers(1, 7))

    def rows():
        dense = draw(st.lists(st.lists(int_cells, min_size=n, max_size=n), min_size=n, max_size=n))
        return [[(j, v) for j, v in enumerate(row) if v] for row in dense]

    return rows(), rows()


@settings(max_examples=300, deadline=None)
@given(int_factors(), st.booleans())
@example(([[]], [[]]), True)
@example(([[(0, 1)]], [[(0, 127)]]), True)
@example(([[(0, 1)]], [[(0, 128)]]), True)
@example(([[(0, 1), (1, 1)], []], [[(1, 2**15 - 1)], [(1, 1)]]), True)
# the top slot of the product row 255 + 2**16 is read from one byte
@example(([[(0, 1)], []], [[(0, 255), (1, 1)], []]), True)
def test_packed_product_equals_the_sparse_one(factors, tight):
    x, y = factors
    expected = steady._int_mul(x, y)
    top_x = max((v for row in x for _, v in row), default=0)
    top_y = max((v for row in y for _, v in row), default=0)
    if tight:  # the least valid bound: the product's largest cell
        bound = max((v for row in expected for _, v in row), default=0)
    else:  # the bound _mul passes
        bound = max(map(len, x)) * top_x * top_y
    # the slots hold y's cells too, as _mul's bound does unless x is zero
    assert steady._packed_mul(x, y, max(bound, top_y)) == expected
    assert steady._mul(x, y) == expected


def record_routes(monkeypatch):
    """The product routes n_step takes, in call order."""
    routes = []
    for name in ("_int_mul", "_packed_mul"):
        inner = getattr(steady, name)
        monkeypatch.setattr(
            steady, name, lambda *a, inner=inner, name=name: routes.append(name) or inner(*a)
        )
    return routes


def test_n_step_on_a_dense_matrix_takes_the_packed_route(monkeypatch):
    n = 12
    weights = [[1 + (7 * i + 3 * j) % 5 for j in range(n)] for i in range(n)]
    m = StochasticMatrix.from_rows([[R(w, sum(row)) for w in row] for row in weights])
    routes = record_routes(monkeypatch)
    assert n_step(m, 5).rows() == naive_power(m, 5)
    assert "_packed_mul" in routes


def test_n_step_takes_the_sparse_route_first_and_the_packed_route_last(monkeypatch):
    # the band fills the matrix after some log2(n) squarings
    m = build(lucas_chain(50))
    monkeypatch.setattr(steady, "_PACK_RATIO", 10**9)
    sparse_only = n_step(m, 64)
    monkeypatch.undo()
    routes = record_routes(monkeypatch)
    assert n_step(m, 64) == sparse_only
    assert routes == ["_int_mul"] * 4 + ["_packed_mul"] * 2


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


@pytest.mark.parametrize(
    "steps, seed, start, name",
    [
        (1.5, 1, 0, "steps"),
        (True, 1, 0, "steps"),
        (10, None, 0, "seed"),
        (10, 1.0, 0, "seed"),
        (10, False, 0, "seed"),
        (10, 1, 1.0, "start"),
        (10, 1, True, "start"),
    ],
)
def test_simulate_needs_integer_arguments(steps, seed, start, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        simulate(build(balancing_chain(4)), steps, seed, start)


def solve_or_singular(solver, m):
    """solver(m), or the message of the SolverError it raises."""
    try:
        return solver(m)
    except SolverError as exc:
        return str(exc)


# weights of stochastic band rows, zero cells included: column 0 plus a
# tridiagonal band is skip-free, so every such chain must solve as by
# elimination
band_cells = st.sampled_from([R(0), R(0), R(1), R(1, 2), R(1, 3), R(1, 6), R(5, 6), R(3, 2)])


@st.composite
def band_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    return [draw(st.lists(band_cells, min_size=n, max_size=n)) for _ in range(4)]


def skip_free(m):
    """No row of m jumps up by more than one state: no nonzero has j > i + 1."""
    return all(j <= i + 1 for i, cells in enumerate(m.numerators) for j in cells)


def band_rows(arrays):
    """Dense stochastic rows from the weights (col0, sub, diag, sup); column
    0 wins where a band slot falls on it, slots off the matrix are dropped,
    and each row is normalised."""
    col0, sub, diag, sup = arrays
    n = len(col0)
    rows = [[R(0)] * n for _ in range(n)]
    for i in range(n):
        for j, x in ((i - 1, sub[i]), (i, diag[i]), (i + 1, sup[i])):
            if 0 < j < n:
                rows[i][j] = x
        rows[i][0] = col0[i]
    return normalised(rows)


@given(band_matrices())
# weights over 994, 11 and 13: the normalised store's den is some 1.9e12
@example(
    [
        [R(1, 2), R(1, 994), R(3, 7), R(5, 11)],
        [R(0), R(3, 7), R(1, 994), R(2, 13)],
        [R(0), R(5, 11), R(3, 7), R(1, 994)],
        [R(3, 7), R(1, 994), R(2, 13), R(0)],
    ]
)
# a zero superdiagonal cell, so elimination
@example(
    [
        [R(1, 2), R(1, 3), R(1, 6), R(1, 2)],
        [R(0), R(1, 3), R(1, 2), R(1, 4)],
        [R(1, 3), R(1, 6), R(5, 6), R(1, 4)],
        [R(1, 6), R(0), R(1, 3), R(0)],
    ]
)
@example([[R(1, 3)], [R(0)], [R(0)], [R(0)]])  # n = 1
@example([[R(2, 3), R(1, 4)], [R(0), R(1, 4)], [R(0), R(1, 2)], [R(1, 3), R(0)]])  # n = 2
def test_band_chains_solve_as_by_gaussian_elimination(arrays):
    dense = StochasticMatrix.from_rows(band_rows(arrays))
    reference = solve_or_singular(_solve_gauss, dense)
    for m in (dense, matrix_from_json(matrix_to_json(dense))):
        assert skip_free(m)
        assert solve_or_singular(solve_exact, m) == reference


def test_skip_free_singular_system_raises_both_ways():
    # a skip-free chain with every superdiagonal cell nonzero has one
    # stationary vector, so a singular one has a zero there, here (0, 1):
    # states 0 and {1, 2} are closed classes, and solve_exact takes
    # elimination
    m = StochasticMatrix.from_rows([[1, 0, 0], [0, R(1, 2), R(1, 2)], [0, R(1, 3), R(2, 3)]])
    messages = set()
    for solver in (solve_exact, _solve_gauss):
        with pytest.raises(SolverError) as raised:
            solver(m)
        messages.add(str(raised.value))
    assert len(messages) == 1
    assert "periodic" not in messages.pop()
    # a periodic irreducible chain that jumps up by two, 0 -> 2 -> 1 -> 3
    # -> 0, is not singular
    cycle = StochasticMatrix.from_cells(4, {(0, 2): 1, (2, 1): 1, (1, 3): 1, (3, 0): 1})
    assert validate(cycle).period == 4
    for solver in (solve_exact, _solve_gauss):
        assert solver(cycle) == [R(1, 4)] * 4


@st.composite
def weighted_matrices(draw):
    """Stochastic rows of size 1..7 from nonnegative int weights."""
    n = draw(st.integers(1, 7))
    weights = st.lists(st.sampled_from([0, 0, 1, 2, 7]), min_size=n, max_size=n).filter(any)
    rows = [[R(w, sum(row)) for w in row] for row in (draw(weights) for _ in range(n))]
    return StochasticMatrix.from_rows(rows)


@given(weighted_matrices())
def test_irreducible_chains_solve_exactly_by_elimination(m):
    assume(validate(m).irreducible)
    assert_exactly_stationary(m, _solve_gauss(m))
    assert_exactly_stationary(m, solve_exact(m))


@st.composite
def sparse_or_dense_matrices(draw):
    """Stochastic rows of size 1..8 whose cells are zero with a drawn
    share, from none to most, so many of them are reducible; a row with
    no weight keeps all its mass."""
    n = draw(st.integers(1, 8))
    cells = st.sampled_from([0] * draw(st.sampled_from([0, 1, 3, 9])) + [1, 2, 7])
    rows = []
    for i in range(n):
        row = draw(st.lists(cells, min_size=n, max_size=n))
        if not any(row):
            row[i] = 1
        rows.append([R(w, sum(row)) for w in row])
    return StochasticMatrix.from_rows(rows)


@settings(max_examples=300, deadline=None)
@given(sparse_or_dense_matrices())
# state 0 is transient and {1, 2} is the one closed class: the first pass
# meets a zero pivot at state 1, which anchors the second
@example(StochasticMatrix.from_rows([[R(1, 2), R(1, 2), 0], [0, R(1, 3), R(2, 3)], [0, 1, 0]]))
# two closed classes, {1} and {2}: a zero pivot on both passes
@example(StochasticMatrix.from_rows([[0, R(1, 2), R(1, 2)], [0, 1, 0], [0, 0, 1]]))
# the periodic cycle 0 -> 2 -> 1 -> 3 -> 0, which jumps up by two
@example(StochasticMatrix.from_cells(4, {(0, 2): 1, (2, 1): 1, (1, 3): 1, (3, 0): 1}))
@example(StochasticMatrix.from_rows([[1]]))  # n = 1
def test_state_reduction_equals_gaussian_elimination(m):
    # state reduction returns primitive int weights, which over their sum
    # are the eliminated vector
    expected = solve_or_singular(_solve_gauss, m)
    got = solve_or_singular(lambda m: steady._reduce_states(m.numerators), m)
    if isinstance(got, str):
        assert got == expected
    else:
        assert all(type(w) is int for w in got) and gcd(*got) == 1
        assert [R(w, sum(got)) for w in got] == expected


def ring(n):
    """The cycle 0 -> 1 -> ... -> n - 1 -> 0, built from cells."""
    return StochasticMatrix.from_cells(n, {(i, (i + 1) % n): 1 for i in range(n)})


@settings(max_examples=300, deadline=None)
@given(sparse_or_dense_matrices())
@example(StochasticMatrix.from_rows([[1]]))  # n = 1
@example(ring(2))  # period 2
# the cycle 0 -> 2 -> 1 -> 3 -> 0, period 4
@example(StochasticMatrix.from_cells(4, {(0, 2): 1, (2, 1): 1, (1, 3): 1, (3, 0): 1}))
# state 0 is transient and {1, 2} the one closed class
@example(StochasticMatrix.from_rows([[R(1, 2), R(1, 2), 0], [0, R(1, 3), R(2, 3)], [0, 1, 0]]))
# two closed classes, {1} and {2}
@example(StochasticMatrix.from_rows([[0, R(1, 2), R(1, 2)], [0, 1, 0], [0, 0, 1]]))
# state 0 cannot reach state 1, which returns to it
@example(StochasticMatrix.from_rows([[1, 0], [R(1, 2), R(1, 2)]]))
# cycles of length 2 and 3 through state 0: the gcd is 2 after row 1
# and 1 only after row 2
@example(StochasticMatrix.from_cells(3, {(0, 1): 1, (1, 0): R(1, 2), (1, 2): R(1, 2), (2, 0): 1}))
def test_validate_equals_the_set_oracle(m):
    assert validate(m) == oracles.validate(m)


# validate is linear in nnz: each guard at n = 20000 takes ~0.2 s or less,
# most of it building the matrix
def test_validate_is_linear_on_a_long_ring():
    assert validate(ring(20000)).period == 20000


def test_validate_is_linear_on_a_long_chain_with_no_interior_collapse():
    # a = 2 moves no mass to state 0 from rows 2..n-2, so both sweeps walk the band
    assert validate(build(balancing_like_chain(20000, 2))).ok


def test_upward_jumps_by_two_solve_by_state_reduction():
    # balancing(60) with 1/12 of each row i in 1..57's collapse mass moved
    # up to cell (i, i + 2): not skip-free, so the fallback solves it
    rows = [list(row) for row in build(balancing_chain(60)).rows()]
    for i in range(1, 58):
        moved = rows[i][0] / 12
        rows[i][0] -= moved
        rows[i][i + 2] += moved
    m = StochasticMatrix.from_rows(rows)
    assert steady._skip_free_weights(m.den, m.numerators) is None
    pi = solve_exact(m)
    assert_exactly_stationary(m, pi)
    assert pi == _solve_gauss(m)


@settings(max_examples=200, deadline=None)
@given(weighted_matrices())
# the shift slows this chain, 25 -> 261 iterations: P* has an eigenvalue
# near -1
@example(StochasticMatrix.from_rows([[R(1, 3), 0, R(2, 3)], [0, R(1, 3), R(2, 3)], [R(2, 5), R(1, 5), R(2, 5)]]))
def test_power_iteration_on_random_irreducible_matrix_files(m):
    m = matrix_from_json(matrix_to_json(m))
    assume(validate(m).ok)
    vector, _ = power_iteration(m)
    assert l1_error(vector, solve_exact(m)) < 1e-9


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
    weights = _gauss_weights(m)
    calls = []
    monkeypatch.setattr(steady, "_reduce_states", lambda rows: calls.append(rows) or weights)
    assert solve_exact(m) == _solve_gauss(m)
    assert calls == [m.numerators]


def test_full_matrix_solves_by_elimination(monkeypatch):
    rows = [[R(1 + i + j, 10 + 4 * i) for j in range(4)] for i in range(4)]
    m = StochasticMatrix.from_rows(rows)
    assert not skip_free(m)
    expected = _solve_gauss(m)
    assert sum(expected) == 1
    weights = _gauss_weights(m)
    calls = []
    monkeypatch.setattr(steady, "_reduce_states", lambda rows: calls.append(rows) or weights)
    assert solve_exact(m) == expected
    assert calls == [m.numerators]


def no_reduction(rows):
    raise AssertionError("skip-free chain fell back to state reduction")


# every family is skip-free with a nonzero superdiagonal, so none of them
# is eliminated; "banded": built from the family's cells; "dense": read
# back from dense rows
@pytest.mark.parametrize("source", ["dense", "banded"])
@pytest.mark.parametrize("family", SOLVE_CASES, ids=lambda f: f.label)
def test_families_take_the_band_route(monkeypatch, family, source):
    m = build(family)
    if source == "dense":
        m = StochasticMatrix.from_rows(m.rows())
    expected = _solve_gauss(m)
    monkeypatch.setattr(steady, "_reduce_states", no_reduction)
    assert solve_exact(m) == expected


def test_skip_free_chain_off_the_band_takes_the_recurrence(monkeypatch):
    # balancing(60) with 1/12 of each row i >= 3's collapse mass moved down
    # to cell (i, i - 2): skip-free, but off the band
    rows = [list(row) for row in build(balancing_chain(60)).rows()]
    for i in range(3, 60):
        moved = rows[i][0] / 12
        rows[i][0] -= moved
        rows[i][i - 2] += moved
    m = StochasticMatrix.from_rows(rows)
    assert skip_free(m) and any(0 < j < i - 1 for i, cells in enumerate(m.numerators) for j in cells)
    expected = _solve_gauss(m)
    monkeypatch.setattr(steady, "_reduce_states", no_reduction)
    assert solve_exact(m) == expected
    assert_exactly_stationary(m, expected)


# weights of skip-free rows: a superdiagonal cell, a diagonal cell and
# 0-3 downward jumps to random lower states, any of them zero
skip_free_cells = st.sampled_from([0, 0, 1, 2, 3, 7])


@st.composite
def skip_free_matrices(draw, superdiagonal=skip_free_cells):
    n = draw(st.integers(1, 11))
    rows = []
    for i in range(n):
        row = [0] * n
        if i + 1 < n:
            row[i + 1] = draw(superdiagonal)
        row[i] = draw(skip_free_cells)
        if i:
            for _ in range(draw(st.integers(0, 3))):
                row[draw(st.integers(0, i - 1))] += draw(skip_free_cells)
        if not any(row):
            row[i] = 1
        rows.append([R(w, sum(row)) for w in row])
    return StochasticMatrix.from_rows(rows)


@given(skip_free_matrices())
# row 2 jumps down to 0 and to 1, row 1 keeps all its mass
@example(StochasticMatrix.from_rows([[0, 1, 0], [0, R(2, 3), R(1, 3)], [R(1, 2), R(1, 2), 0]]))
# state 2 is absorbing: the other states are transient, with weight 0
@example(StochasticMatrix.from_rows([[R(1, 2), R(1, 2), 0], [R(1, 3), 0, R(2, 3)], [0, 0, 1]]))
def test_skip_free_route_equals_gaussian_elimination(m):
    assert skip_free(m)
    assert solve_or_singular(solve_exact, m) == solve_or_singular(_solve_gauss, m)
    weights = steady._skip_free_weights(m.den, m.numerators)
    if all(m.numerators[j].get(j + 1) for j in range(m.n - 1)):
        # one closed class, so weights, with gcd 1, and solve_exact is
        # them over their sum; all positive exactly when it is every state
        assert weights is not None and gcd(*weights) == 1 and min(weights) >= 0
        assert solve_exact(m) == [R(w, sum(weights)) for w in weights]
        assert (min(weights) > 0) == validate(m).irreducible
    else:
        assert weights is None


# those skip-free matrices with every superdiagonal cell nonzero, so the
# skip-free route takes each of them
@given(skip_free_matrices(superdiagonal=st.sampled_from([1, 2, 3, 7])))
@example(StochasticMatrix.from_rows([[0, 1, 0], [0, R(2, 3), R(1, 3)], [R(1, 2), R(1, 2), 0]]))
@example(StochasticMatrix.from_rows([[R(1, 2), R(1, 2), 0], [R(1, 3), 0, R(2, 3)], [0, 0, 1]]))
def test_state_reduction_equals_the_skip_free_weights(m):
    # two independent eliminations give one primitive weight vector
    weights = steady._skip_free_weights(m.den, m.numerators)
    assert weights is not None
    assert steady._reduce_states(m.numerators) == weights


class _TopDraw:
    """Stands in for random.Random: every 32-bit word is all ones, so every
    draw is the largest float < 1."""

    def __init__(self, seed):
        pass

    def random(self):
        return 1.0 - 2.0**-53

    def getrandbits(self, k):
        return (1 << k) - 1


def no_rebuild(word):
    raise AssertionError("the class or byte tables should decide this draw")


def last_target_walk(m, steps, start):
    """Visits of the walk that always moves to its row's last nonzero target."""
    visits = [0] * m.n
    state = start
    for _ in range(steps):
        state = list(m.numerators[state])[-1]
        visits[state] += 1
    return tuple(visits)


@pytest.mark.parametrize(
    "family", [lucas_cobalancing_chain(6), balancing_chain_q(6, R(1, 7))],
    ids=lambda f: f.label,
)
def test_simulate_float_drift_stays_on_possible_targets(monkeypatch, family):
    # rows 2-4's cells added as floats fall just below 1.0, but their last
    # threshold is exactly 1.0: the top draw must land on the row's last
    # nonzero target, never on a zero-probability one.  No threshold below
    # 1.0 lies inside the draw's top-byte bucket (255/256, 1), so the
    # class table decides every step, on keys and on the leftover draws,
    # without rebuilding a draw
    monkeypatch.setattr(steady, "random", SimpleNamespace(Random=_TopDraw))
    monkeypatch.setattr(steady, "_unit_float", no_rebuild)
    m = build(family)
    for start in (2, 3, 4):
        for steps in (1, 4097):
            result = simulate(m, steps=steps, seed=0, start=start)
            assert result.visits == last_target_walk(m, steps, start)
        assert simulate(m, steps=1, seed=0, start=start).visits[start + 1] == 1


def drift_walk(monkeypatch, cells):
    """Rows of ``cells`` walked on the top draw, one step from each state
    and then 4097 from state 0; returns the draws rebuilt from their bytes."""
    monkeypatch.setattr(steady, "random", SimpleNamespace(Random=_TopDraw))
    rebuilt = []
    monkeypatch.setattr(steady, "_unit_float", lambda word: rebuilt.append(word) or _unit_float(word))
    m = StochasticMatrix.from_rows([cells] * 3)
    # the cells added as floats fall just below 1.0, but the last threshold
    # is exactly 1.0; the draw must land on the last target
    for start in range(3):
        assert simulate(m, steps=1, seed=0, start=start).visits == (0, 0, 1)
    assert simulate(m, steps=4097, seed=0).visits == (0, 0, 4097)
    return rebuilt


def test_simulate_float_drift_at_a_threshold_takes_the_exact_fallback(monkeypatch):
    # the threshold 0.9999857 lies inside the draw's top-byte bucket and its
    # 16-bit bucket (65535/65536, 1), so every draw is rebuilt from its bytes
    # and bisected
    rebuilt = drift_walk(monkeypatch, [R(17501, 35003), R(1, 2), R(1, 70006)])
    assert rebuilt == [2**64 - 1] * (3 + 4097)


def test_simulate_float_drift_inside_a_top_byte_bucket_takes_the_next_byte(monkeypatch):
    # the threshold 0.99667 lies inside the top-byte bucket but below the 16-bit
    # bucket, so the draw's next byte decides, with no draw rebuilt
    assert drift_walk(monkeypatch, [R(149, 300), R(1, 2), R(1, 300)]) == []


def test_simulate_a_draw_equal_to_a_sum_takes_the_next_target(monkeypatch):
    # the top draw 1 - 2**-53 is the row's one sum exactly: bisect_right puts
    # it past the sum, on the second target, and so must the rebuilt draw
    monkeypatch.setattr(steady, "random", SimpleNamespace(Random=_TopDraw))
    m = StochasticMatrix.from_rows([[R(2**53 - 1, 2**53), R(1, 2**53)]] * 2)
    for steps in (1, 4097):
        assert simulate(m, steps, seed=0).visits == (0, steps)


def exact_thresholds(cells, den):
    """float(Fraction(s, den)) for each partial sum s of the row's cells."""
    return [float(R(s, den)) for s in accumulate(cells.values())]


def reference_path(m, steps, seed, start=0):
    """The plain walk, kept as the oracle: every row's thresholds built up
    front as the exact cumulative probabilities rounded to float, then one
    ``random()`` and one ``bisect_right`` on them per step; the state after
    each step."""
    targets = [list(cells) for cells in m.numerators]
    cumulative = [exact_thresholds(cells, m.den) for cells in m.numerators]
    draw = random.Random(seed).random
    path = []
    state = start
    for _ in range(steps):
        state = targets[state][bisect_right(cumulative[state], draw())]
        path.append(state)
    return path


def reference_simulate(m, steps, seed, start=0):
    """The plain walk's visit counts, as a ``SimulationResult``."""
    visits = [0] * m.n
    for state in reference_path(m, steps, seed, start):
        visits[state] += 1
    return SimulationResult(
        visits=tuple(visits), steps=steps, seed=seed, empirical=tuple(v / steps for v in visits)
    )


@pytest.mark.parametrize("seed", range(5))
def test_bulk_words_decode_to_the_random_draws(seed):
    count = 3000
    data = random.Random(seed).getrandbits(64 * count).to_bytes(8 * count, "little")
    draw = random.Random(seed).random
    draws = [draw() for _ in range(count)]
    words = [int.from_bytes(data[k : k + 8], "little") for k in range(0, 8 * count, 8)]
    assert [steady._unit_float(w) for w in words] == draws
    # byte 8k + 3 is the bucket of draw k
    assert list(data[3::8]) == [int(256 * u) for u in draws]


# one more than a chunk, a chunk, one less, and a run into a fourth chunk
CHUNK_STEPS = [1, 4095, 4096, 4097, 3 * 4096 + 5]


@st.composite
def rows_over(draw, den):
    """Stochastic rows whose cells are ints over ``den``: cut points in
    [0, den], equal cuts giving zero cells."""
    n = draw(st.integers(1, 8))
    cut = st.one_of(st.integers(0, den), st.sampled_from([0, den // 2, den]))
    rows = []
    for _ in range(n):
        cuts = sorted(draw(st.lists(cut, min_size=n - 1, max_size=n - 1)))
        rows.append([R(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])])
    return StochasticMatrix.from_rows(rows)


def random_row(rng, n, den):
    """n positive cells over den, from n - 1 distinct cuts of (0, den)."""
    cuts = sorted({rng.randrange(1, den) for _ in range(n - 1)})
    assert len(cuts) == n - 1
    return [R(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])]


_rows = random.Random(25)
# one sum, 1/2: K = 2 classes, 8 draws a key
ONE_SUM = StochasticMatrix.from_rows([[R(1, 2), R(1, 2)]] * 2)
# 19 sums in every row over 10**30, the start row's too: past 16 classes
# from the first step, so the walk steps one draw at a time
MANY_SUMS = StochasticMatrix.from_rows([random_row(_rows, 20, 10**30) for _ in range(20)])
# the start row has one sum, and rows 1 and 2 each add sums when the walk
# first leaves them, refining the classes
REFINED = StochasticMatrix.from_rows(
    [[R(5, 6), R(1, 6), 0], [R(1, 2), R(1, 3), R(1, 6)], [R(1, 7), R(2, 7), R(4, 7)]]
)
# rows over 6 up to state 3, which takes three 1/6 steps to reach; rows 3 on
# have 19 sums over 10**30, so the walk turns to one draw at a time mid-walk
SWITCHED = StochasticMatrix.from_rows(
    [[R(5, 6)] + [0] * i + [R(1, 6)] + [0] * (18 - i) for i in range(3)]
    + [random_row(_rows, 20, 10**30) for _ in range(17)]
)


def class_count(m, states):
    """K: one more than the distinct float thresholds below 1.0 of the rows."""
    sums = {c for s in states for c in steady._float_row(m.numerators[s], m.den)[1] if c < 1.0}
    return len(sums) + 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([256, 7, 10**30]).flatmap(rows_over))
def test_float_row_thresholds_are_the_rounded_exact_sums(m):
    for cells in m.numerators:
        targets, cumulative = steady._float_row(cells, m.den)
        assert targets == list(cells)
        assert cumulative == exact_thresholds(cells, m.den)
        assert cumulative[-1] == 1.0
        assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))


def test_the_classes_are_the_distinct_exact_sums_on_every_kind():
    # equal exact sums reached along different rows are one float, one class
    for family in every_kind_at_every_q(range(3, 41)):
        m = build(family)
        exact = {R(s, m.den) for cells in m.numerators for s in accumulate(cells.values())}
        assert class_count(m, range(m.n)) == len(exact - {1}) + 1, family.label


KEY_WIDTHS = [
    build(f)
    for f in (
        balancing_chain(12),
        balancing_chain_q(12, R(1, 7)),
        lucas_chain(12),
        lucas_cobalancing_chain(12),
    )
]


def test_the_branch_cases_reach_each_key_width():
    # the examples below step 8, 5, 4, 3, 2 and 1 draws a key
    assert steady._KEY_DIGITS[class_count(ONE_SUM, [0])] == 8
    assert [steady._KEY_DIGITS[class_count(m, range(m.n))] for m in KEY_WIDTHS] == [5, 4, 3, 2]
    assert class_count(MANY_SUMS, [0]) > 16
    # one sum at the start, more after, and past 16 only from state 3 on
    assert class_count(REFINED, [0]) == 2 < class_count(REFINED, [0, 1]) < class_count(REFINED, [0, 1, 2])
    assert class_count(SWITCHED, [0, 1, 2]) == 2 and class_count(SWITCHED, [3]) > 16


# over 256 every threshold sits on a bucket edge; over 10**30 most fall
# inside a bucket, and a cell can be far below 2**-53.  The examples reach
# each branch of the walk; 4097 and 3 * 4096 + 5 steps leave draws past
# the last whole key
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([256, 7, 10**30]).flatmap(rows_over),
    st.sampled_from(CHUNK_STEPS),
    st.integers(0, 2**64),
)
@example(ONE_SUM, 4097, 1)
@example(KEY_WIDTHS[0], 4097, 2)
@example(KEY_WIDTHS[1], 4097, 8)
@example(KEY_WIDTHS[2], 3 * 4096 + 5, 3)
@example(KEY_WIDTHS[3], 4097, 4)
@example(MANY_SUMS, 4097, 5)
@example(REFINED, 3 * 4096 + 5, 6)
@example(SWITCHED, 3 * 4096 + 5, 7)
def test_simulate_equals_the_per_draw_walk(m, steps, seed):
    for start in range(m.n):
        assert simulate(m, steps, seed, start) == reference_simulate(m, steps, seed, start)


def test_simulate_equals_the_per_draw_walk_on_every_kind():
    for k, family in enumerate(every_kind_at_every_q()):
        m = build(family)
        for start in {0, m.n // 2, m.n - 1}:
            expected = reference_simulate(m, 3 * 4096 + 5, k, start)
            assert simulate(m, 3 * 4096 + 5, k, start) == expected, family.label


@pytest.mark.parametrize("steps", CHUNK_STEPS)
@pytest.mark.parametrize("seed", [5, 7])
@pytest.mark.parametrize("m", [MANY_SUMS, SWITCHED], ids=["many-sums", "switched"])
def test_simulate_joins_the_chunk_bytes_to_random_at_every_chunk_edge(m, seed, steps):
    # past 16 classes the walk steps through the chunk's draws left, decoded
    # from their bytes, and then calls random() on the same generator
    for start in range(m.n):
        assert simulate(m, steps, seed, start) == reference_simulate(m, steps, seed, start)


def dense_many_sums():
    """100 states, every cell nonzero: 99 sums a row over 10**30."""
    rng = random.Random(33)
    return StochasticMatrix.from_rows([random_row(rng, 100, 10**30) for _ in range(100)])


@pytest.mark.parametrize(
    "make, steps",
    [(lambda: build(balancing_chain(20000)), 300), (dense_many_sums, 30)],
    ids=["keyed-family", "dense-many-sums"],
)
def test_a_short_run_builds_rows_only_for_the_states_it_leaves(monkeypatch, make, steps):
    m = make()
    built = []
    float_row = steady._float_row
    monkeypatch.setattr(
        steady, "_float_row", lambda cells, den: built.append(cells) or float_row(cells, den)
    )
    seed = 3
    path = reference_path(m, steps, seed)
    assert simulate(m, steps, seed) == reference_simulate(m, steps, seed)
    # each row once, the first time the walk leaves its state
    left = dict.fromkeys([0, *path[:-1]])
    assert [id(cells) for cells in built] == [id(m.numerators[s]) for s in left]
    assert len(left) < m.n // 3


def test_simulate_refuses_a_negative_seed():
    # random.Random(-5) runs seed 5's stream, which the result would report as -5
    with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
        simulate(build(balancing_chain(4)), 10, -5)

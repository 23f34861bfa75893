import re
from fractions import Fraction
from math import inf, nextafter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from balchain import quadratic
from balchain.chains import build, truncated_infinite_chain
from balchain.quadratic import (
    BETA,
    ONE,
    QuadInt,
    abs_bound,
    beta_power_identity,
    enclosure,
    float_upper,
    gap_bound,
    infinite_steady_state,
    silver_ratio_gap,
    sqrt2_bounds,
)
from balchain.sequences import BALANCING, LUCAS_BALANCING, sequence, term
from balchain.steady import solve_exact
from oracles import abs_enclosure, assert_tight

quadints = st.builds(
    QuadInt,
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=-(10**6), max_value=10**6),
)


def test_qmul_examples():
    assert QuadInt(1, 1) * QuadInt(1, -1) == QuadInt(-1, 0)
    assert BETA * BETA.conjugate() == ONE  # norm of a unit
    assert BETA * BETA == QuadInt(17, -12)


def test_qpow_examples():
    assert BETA**0 == ONE
    assert BETA**2 == QuadInt(17, -12)
    assert BETA**3 == QuadInt(99, -70)
    # before, a negative exponent raised a bare TypeError, and a bool one
    # was taken as 0 or 1
    for exponent, message in [
        (-1, "exponent must be >= 0, got -1"),
        (True, "exponent must be an integer, got True"),
        (False, "exponent must be an integer, got False"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            BETA**exponent


@pytest.mark.parametrize(
    "operation,at_one",
    [
        (lambda b: BETA * b, BETA),
        (lambda b: b * BETA, BETA),
        (lambda b: BETA + b, QuadInt(4, -2)),
        (lambda b: b + BETA, QuadInt(4, -2)),
        (lambda b: BETA - b, QuadInt(2, -2)),
        (lambda b: b - BETA, QuadInt(-2, 2)),
    ],
    ids=["mul", "rmul", "add", "radd", "sub", "rsub"],
)
def test_ring_operations_refuse_bools(operation, at_one):
    # the int rule of ``**``: before, BETA * True == BETA and
    # BETA + True == 4-2√2
    for b in (True, False):
        with pytest.raises(TypeError, match="unsupported operand"):
            operation(b)
    assert operation(1) == at_one


def test_arithmetic_with_ints():
    assert BETA * 2 == QuadInt(6, -4)
    assert 2 * BETA == QuadInt(6, -4)
    assert BETA + 1 == QuadInt(4, -2)
    assert 1 - BETA == QuadInt(-2, 2)
    assert -BETA == QuadInt(-3, 2)


@given(quadints, quadints)
def test_norm_is_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(quadints, quadints, quadints)
def test_ring_laws(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x


def test_beta_is_a_norm_one_unit():
    assert BETA.norm() == 1
    for n in range(31):
        assert (BETA**n).norm() == 1


def test_beta_powers_carry_sequence_terms():
    # brute-force product chain, independent of the fast squaring in **
    power = ONE
    for n in range(31):
        assert power.a == term(LUCAS_BALANCING, n)
        assert power.b == -2 * term(BALANCING, n)
        assert BETA**n == power
        power = power * BETA


def test_beta_power_identity_range():
    assert all(beta_power_identity(n) for n in range(1, 101))
    with pytest.raises(ValueError):
        beta_power_identity(0)


def test_beta_power_identity_holds_at_zero_too():
    # the n >= 1 guard is the documented domain; the identity itself is
    # also true one step earlier since B[0] == 0
    assert BETA**1 == BETA * term(BALANCING, 1) - term(BALANCING, 0)


def test_infinite_steady_state_entries():
    entries = infinite_steady_state(2)
    assert entries[0] == QuadInt(-2, 2)  # 1 - BETA
    assert entries[1] == QuadInt(-14, 10)  # BETA - BETA**2
    with pytest.raises(ValueError):
        infinite_steady_state(0)


def test_infinite_steady_state_telescopes():
    for count in (1, 5, 20):
        entries = infinite_steady_state(count)
        total = ONE
        for e in entries:
            total = total - e
        assert total == BETA**count


def test_infinite_steady_state_is_positive():
    for e in infinite_steady_state(20):
        lo, _ = enclosure(e)
        assert lo > 0


def test_sqrt2_bounds():
    for digits in (5, 50):
        lo, hi = sqrt2_bounds(digits)
        assert lo * lo < 2 < hi * hi
        assert hi - lo == Fraction(1, 10**digits)
    with pytest.raises(ValueError):
        sqrt2_bounds(0)


@pytest.mark.parametrize(
    "call",
    [
        sqrt2_bounds,
        lambda digits: enclosure(BETA, digits),
        lambda digits: abs_bound(Fraction(1, 6), -1, digits),
        lambda digits: gap_bound(Fraction(1, 6), BETA, digits),
        lambda digits: silver_ratio_gap(5, digits),
    ],
    ids=["sqrt2_bounds", "enclosure", "abs_bound", "gap_bound", "silver_ratio_gap"],
)
@pytest.mark.parametrize(
    "digits, message",
    [
        (0, "digits must be >= 1, got 0"),
        (-3, "digits must be >= 1, got -3"),
        (1.5, "digits must be an integer, got 1.5"),
        (True, "digits must be an integer, got True"),
        (None, "digits must be an integer, got None"),
    ],
)
def test_digits_must_be_a_positive_int(call, digits, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(digits)


def test_enclosure_brackets_the_value():
    lo, hi = enclosure(BETA)
    assert lo < hi
    assert hi - lo <= Fraction(2, 10**50)
    assert enclosure(QuadInt(7, 0)) == (Fraction(7), Fraction(7))
    # negative sqrt2 coefficient flips which bound is used
    neg_lo, neg_hi = enclosure(QuadInt(0, -1))
    pos_lo, pos_hi = enclosure(QuadInt(0, 1))
    assert neg_lo == -pos_hi and neg_hi == -pos_lo


def test_gap_bound_is_an_upper_bound():
    # the probes lo and hi lie within 10**-50 of BETA: tiny gaps, which even
    # a 5-digit bound must give to 5 significant digits
    lo, hi = enclosure(BETA)
    for probe in (lo, hi, Fraction(17, 100), Fraction(0)):
        for digits in (5, 50):
            assert_tight(gap_bound(probe, BETA, digits), probe - BETA.a, -BETA.b, digits)


def test_float_upper_rounds_toward_infinity():
    third = Fraction(1, 3)
    up = float_upper(third)
    assert Fraction(up) >= third
    assert float_upper(Fraction(1, 2)) == 0.5
    assert float_upper(3) == 3.0


@given(st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**340)))
def test_float_upper_is_the_smallest_float_at_or_above(value):
    # subnormals and values below 5e-324 included
    up = float_upper(value)
    assert Fraction(up) >= value > Fraction(nextafter(up, -inf))


@pytest.mark.parametrize(
    "call",
    [lambda v: abs_bound(v, 1), lambda v: gap_bound(v, BETA), float_upper],
    ids=["abs_bound", "gap_bound", "float_upper"],
)
@pytest.mark.parametrize("value", [0.5, 1.5, True, None, "1/2", 1j], ids=repr)
def test_rational_values_must_be_an_int_or_a_fraction(call, value):
    # before, gap_bound(0.5, BETA) returned the float 0.3284..., no
    # certified bound, and float_upper(None) raised a bare TypeError
    with pytest.raises(ValueError, match="^value must be an int or a Fraction, got "):
        call(value)


def test_gap_bound_takes_an_int_value():
    for value in (0, 1, -3, 6):
        bound = gap_bound(value, BETA, 5)
        assert bound == gap_bound(Fraction(value), BETA, 5)
        assert_tight(bound, Fraction(value - BETA.a), -BETA.b, 5)


# ring elements r + s*sqrt(2): plain ones, with r rational
plain_elements = st.tuples(
    st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**12),
    st.integers(-(10**12), 10**12),
)


@st.composite
def tiny_elements(draw):
    """r + s*sqrt(2) for x = +-y*BETA**k with y a small nonzero ring
    element, so r cancels s*sqrt(2) to up to ~150 digits; or x less a
    rational within about 10**-m of it, a gap of up to ~200 digits."""
    small = st.integers(-50, 50)
    y = draw(st.builds(QuadInt, small, small).filter(lambda y: y.a or y.b))
    sign = draw(st.sampled_from([1, -1]))
    m = draw(st.none() | st.integers(1, 200))
    if m is None:
        x = sign * y * BETA ** draw(st.integers(0, 200))
        return Fraction(x.a), x.b
    x = sign * y * BETA ** draw(st.integers(0, 100))
    sqrt2, _ = abs_enclosure(Fraction(0), 1, 300)
    value = Fraction(round((x.a + x.b * sqrt2) * 10**m), 10**m)
    return x.a - value, x.b


@given(plain_elements | tiny_elements(), st.integers(1, 60))
def test_abs_bound_is_certified_and_tight(element, digits):
    r, s = element
    assert_tight(abs_bound(r, s, digits), r, s, digits)
    assert abs_bound(-r, -s, digits) == abs_bound(r, s, digits)


@given(tiny_elements(), st.integers(1, 60))
def test_gap_bound_is_certified_and_tight(element, digits):
    r, s = element
    # |value - x| is |r + s*sqrt(2)| for x = -a - s*sqrt(2) and value = r - a
    a = r.numerator // r.denominator
    bound = gap_bound(r - a, QuadInt(-a, -s), digits)
    assert bound == abs_bound(r, s, digits)
    assert_tight(bound, r, s, digits)


def test_abs_bound_is_exact_at_zero_and_on_rationals():
    assert abs_bound(0, 0) == abs_bound(Fraction(0), 0, 1) == 0
    assert abs_bound(Fraction(-7, 3), 0, 1) == Fraction(7, 3)


def test_the_sqrt2_cache_stays_bounded_over_a_digits_sweep():
    for digits in range(1, 201):
        abs_bound(Fraction(1, 6), -1, digits)
    assert quadratic._sqrt2_floor.cache_info().currsize <= quadratic._SQRT2_CACHE


def test_head_entries_of_truncated_chains_are_bounded_tightly():
    limit = infinite_steady_state(8)
    for n in (3, 8, 30, 90, 200):
        for p, x in zip(solve_exact(build(truncated_infinite_chain(n))), limit):
            for digits in (1, 17, 40):
                assert_tight(gap_bound(p, x, digits), p - x.a, -x.b, digits)


def test_silver_ratio_gap_is_the_closed_form_and_tight():
    b = sequence(BALANCING, 122)
    for n in range(2, 121):
        ratio = Fraction(b[n - 1], b[n])
        for digits in (1, 12, 40):
            bound = silver_ratio_gap(n, digits)
            lo, _ = sqrt2_bounds(digits)
            assert bound == 1 / (b[n] * ((3 + 2 * lo) * b[n] - b[n - 1]))
            assert_tight(bound, ratio - 3, 2, digits)


@pytest.mark.parametrize("digits", [5, 40, 2000])
def test_the_ratio_table_walk_gives_each_silver_ratio_gap(digits):
    # limit --ratio's rows step the balancing recurrence once a row where
    # silver_ratio_gap runs a ladder to each n
    table = list(quadratic._ratio_gaps(120, digits))
    assert table == [(n, silver_ratio_gap(n, digits)) for n in range(2, 121)]
    assert list(quadratic._ratio_gaps(2, digits)) == [(2, silver_ratio_gap(2, digits))]
    assert list(quadratic._ratio_gaps(1, digits)) == []


@pytest.mark.parametrize(
    "call",
    [enclosure, lambda x: gap_bound(Fraction(1, 2), x)],
    ids=["enclosure", "gap_bound"],
)
@pytest.mark.parametrize("x", [None, 3, Fraction(1, 2), (3, -2)], ids=repr)
def test_ring_arguments_must_be_a_quadint(call, x):
    # before, enclosure(None) raised a bare AttributeError
    with pytest.raises(ValueError, match="^ring element must be a QuadInt, got "):
        call(x)


def test_silver_ratio_gap_values():
    gap2 = silver_ratio_gap(2)  # |1/6 - (3 - 2*sqrt(2))|
    assert Fraction(49, 10**4) < gap2 < Fraction(50, 10**4)
    assert silver_ratio_gap(5) < Fraction(1, 10**6)
    with pytest.raises(ValueError):
        silver_ratio_gap(1)


@pytest.mark.parametrize("bad", [2.5, 3.0, True, None], ids=repr)
def test_indices_must_be_ints(bad):
    for check in (beta_power_identity, silver_ratio_gap):
        with pytest.raises(ValueError, match="must be an integer"):
            check(bad)


def test_silver_ratio_gap_decreases():
    gaps = [silver_ratio_gap(n) for n in range(2, 41)]
    assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))

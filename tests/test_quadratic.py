import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from balchain.quadratic import (
    BETA,
    ONE,
    QuadInt,
    beta_power_identity,
    enclosure,
    float_upper,
    gap_bound,
    infinite_steady_state,
    silver_ratio_gap,
    sqrt2_bounds,
)
from balchain.sequences import BALANCING, LUCAS_BALANCING, term

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
        lambda digits: gap_bound(Fraction(1, 6), BETA, digits),
        lambda digits: silver_ratio_gap(5, digits),
    ],
    ids=["sqrt2_bounds", "enclosure", "gap_bound", "silver_ratio_gap"],
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
    lo, hi = enclosure(BETA)
    for probe in (lo, hi, Fraction(17, 100), Fraction(0)):
        bound = gap_bound(probe, BETA)
        assert bound >= abs(probe - lo)
        assert bound >= abs(probe - hi)


def test_float_upper_rounds_toward_infinity():
    third = Fraction(1, 3)
    up = float_upper(third)
    assert Fraction(up) >= third
    assert float_upper(Fraction(1, 2)) == 0.5
    assert float_upper(3) == 3.0


@pytest.mark.parametrize(
    "call",
    [lambda v: gap_bound(v, BETA), float_upper],
    ids=["gap_bound", "float_upper"],
)
@pytest.mark.parametrize("value", [0.5, 1.5, True, None, "1/2", 1j], ids=repr)
def test_rational_values_must_be_an_int_or_a_fraction(call, value):
    # before, gap_bound(0.5, BETA) returned the float 0.3284..., no
    # certified bound, and float_upper(None) raised a bare TypeError
    with pytest.raises(ValueError, match="^value must be an int or a Fraction, got "):
        call(value)


def test_gap_bound_takes_an_int_value():
    assert gap_bound(0, BETA, 5) == max(abs(x) for x in enclosure(BETA, 5))


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

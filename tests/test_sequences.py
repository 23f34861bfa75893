import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from balchain import sequences
from balchain.sequences import (
    BALANCING,
    COBALANCING,
    LUCAS_BALANCING,
    LUCAS_COBALANCING,
    NAMED_KINDS,
    PELL,
    RecurrenceSpec,
    SequenceKind,
    _decimal_terms,
    balancing_like,
    balancing_matrix_power,
    check_pell_links,
    check_sum_identity,
    integer_sqrt,
    is_balancing,
    is_cobalancing,
    sequence,
    term,
)

# frozen prefixes, obtained by iterating each recurrence by hand
BALANCING_TERMS = [0, 1, 6, 35, 204, 1189, 6930, 40391, 235416, 1372105]
LUCAS_BALANCING_TERMS = [1, 3, 17, 99, 577, 3363, 19601, 114243, 665857, 3880899]
COBALANCING_TERMS = [0, 0, 2, 14, 84, 492, 2870, 16730, 97512, 568344]
LUCAS_COBALANCING_TERMS = [1, 7, 41, 239, 1393, 8119, 47321, 275807, 1607521, 9369319]
PELL_TERMS = [0, 1, 2, 5, 12, 29, 70, 169, 408, 985, 2378, 5741]
EVEN_FIBONACCI = [0, 1, 3, 8, 21, 55, 144, 377]  # x[k+1] = 3x[k] - x[k-1]

ALL_KINDS = [
    BALANCING,
    LUCAS_BALANCING,
    COBALANCING,
    LUCAS_COBALANCING,
    PELL,
    balancing_like(2),
    balancing_like(3),
    balancing_like(10),
]


@pytest.mark.parametrize(
    "kind,expected",
    [
        (BALANCING, BALANCING_TERMS),
        (LUCAS_BALANCING, LUCAS_BALANCING_TERMS),
        (COBALANCING, COBALANCING_TERMS),
        (LUCAS_COBALANCING, LUCAS_COBALANCING_TERMS),
        (PELL, PELL_TERMS),
        (balancing_like(3), EVEN_FIBONACCI),
    ],
)
def test_sequence_matches_frozen_prefix(kind, expected):
    assert sequence(kind, len(expected)) == expected


def test_term_examples():
    assert term(BALANCING, 0) == 0
    assert term(BALANCING, 4) == 204
    assert term(LUCAS_COBALANCING, 2) == 41  # 6*7 - 1
    assert term(COBALANCING, 3) == 14  # 0, 0, 2, 14 with shift 2
    assert term(balancing_like(3), 4) == 21


def test_sequence_examples():
    assert sequence(PELL, 5) == [0, 1, 2, 5, 12]
    assert sequence(BALANCING, 1) == [0]
    assert sequence(LUCAS_BALANCING, 4) == [1, 3, 17, 99]
    assert sequence(BALANCING, 0) == []


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
def test_sequence_agrees_with_term(kind):
    assert sequence(kind, 12) == [term(kind, i) for i in range(12)]


small = st.integers(min_value=-4, max_value=4)


@given(
    st.builds(
        RecurrenceSpec,
        coeff=small,
        shift=small,
        x0=small,
        x1=small,
        back=st.sampled_from([-1, 1, 0, -2, 3]),
    ),
    st.integers(min_value=0, max_value=300),
)
# 1 - coeff - back == 0, so no constant offset removes the shift: at the
# double root (coeff 2, back -1) a multiple of j**2 does, and at coeff 3 a
# multiple of j, with the ladder dividing by 2 - coeff = -1
@example(RecurrenceSpec(2, 3, 5, -1, back=-1), 199)
@example(RecurrenceSpec(3, 2, 1, 4, back=-2), 257)
def test_term_matches_the_linear_sequence(spec, k):
    kind = SequenceKind("x", spec)
    assert term(kind, k) == sequence(kind, k + 1)[-1]


@pytest.mark.parametrize("kind", NAMED_KINDS.values(), ids=lambda k: k.name)
def test_term_far_out_matches_the_linear_sequence(kind):
    # an even and an odd last bit
    terms = sequence(kind, 5002)
    assert (term(kind, 5000), term(kind, 5001)) == (terms[5000], terms[5001])


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
def test_recurrence_holds(kind):
    r = kind.recurrence
    terms = sequence(kind, 52)
    for n in range(1, 51):
        assert terms[n + 1] == r.coeff * terms[n] + r.back * terms[n - 1] + r.shift


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
def test_strictly_increasing_from_index_one(kind):
    terms = sequence(kind, 50)
    assert all(terms[i + 1] > terms[i] for i in range(1, 49))


def test_balancing_like_two_is_the_naturals():
    assert sequence(balancing_like(2), 50) == list(range(50))


def test_balancing_like_rejects_small_multiplier():
    with pytest.raises(ValueError):
        balancing_like(1)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, False, None, "3"], ids=repr)
def test_sequence_layer_rejects_non_int_arguments(bad):
    # one rule: an int, bool excluded, or ValueError
    calls = [
        lambda: term(BALANCING, bad),
        lambda: sequence(BALANCING, bad),
        lambda: balancing_matrix_power(bad),
        lambda: balancing_like(bad),
        lambda: check_sum_identity(bad),
        lambda: check_pell_links(bad),
        lambda: is_balancing(bad),
        lambda: is_cobalancing(bad),
        lambda: integer_sqrt(bad),
        lambda: RecurrenceSpec(bad, 0, 0, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="must be an integer"):
            call()


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        term(BALANCING, -1)
    with pytest.raises(ValueError):
        sequence(BALANCING, -1)
    with pytest.raises(ValueError):
        _decimal_terms(BALANCING, -1)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
@pytest.mark.parametrize("kind", [*NAMED_KINDS.values(), balancing_like(3)], ids=lambda k: k.name)
def test_decimal_terms_past_the_limit_formats_no_term(monkeypatch, kind):
    # the one str call of a run that raises is the interpreter's own, on an int
    limit = 640
    bound = 10**limit
    first = next(i for i, x in enumerate(sequence(kind, 4000)) if abs(x) >= bound)
    seen = []

    def spy(x):
        seen.append(type(x))
        return str(x)

    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert len(_decimal_terms(kind, first)) == first
        monkeypatch.setattr(sequences, "str", spy, raising=False)
        with pytest.raises(ValueError, match="Exceeds the limit"):
            _decimal_terms(kind, first + 1)
    finally:
        sys.set_int_max_str_digits(saved)
    assert seen == [int]


def test_named_kind_registry():
    assert set(NAMED_KINDS) == {
        "balancing",
        "lucas-balancing",
        "cobalancing",
        "lucas-cobalancing",
        "pell",
    }


def test_integer_sqrt_examples():
    assert integer_sqrt(0) == (0, True)
    assert integer_sqrt(289) == (17, True)
    assert integer_sqrt(290) == (17, False)
    with pytest.raises(ValueError):
        integer_sqrt(-1)


@given(st.integers(min_value=0, max_value=10**40))
def test_integer_sqrt_postcondition(n):
    root, exact = integer_sqrt(n)
    assert root * root <= n < (root + 1) * (root + 1)
    assert exact == (root * root == n)


def test_is_balancing_examples():
    assert is_balancing(6) == (True, 17)  # 8*36 + 1 = 289
    assert is_balancing(2) == (False, None)  # 33 is not a square
    assert is_balancing(1) == (True, 3)
    with pytest.raises(ValueError):
        is_balancing(0)


def test_is_cobalancing_examples():
    assert is_cobalancing(0) == (True, 1)
    assert is_cobalancing(2) == (True, 7)  # 32 + 16 + 1 = 49
    assert is_cobalancing(3) == (False, None)  # 97 is not a square
    with pytest.raises(ValueError):
        is_cobalancing(-1)


def test_balancing_witness_is_lucas_balancing():
    for n in range(1, 51):
        assert is_balancing(term(BALANCING, n)) == (True, term(LUCAS_BALANCING, n))


def test_cobalancing_witness_pairing():
    # empirical pairing: the witness of b[n] is c[n-1], one index behind,
    # and both b[0] and b[1] (= 0) produce witness 1 == c[0]
    assert is_cobalancing(term(COBALANCING, 0)) == (True, 1)
    for n in range(1, 51):
        flag, witness = is_cobalancing(term(COBALANCING, n))
        assert flag
        assert witness == term(LUCAS_COBALANCING, n - 1)


@given(st.integers(min_value=2, max_value=10**6))
def test_non_balancing_numbers_are_detected(n):
    flag, witness = is_balancing(n)
    root, exact = integer_sqrt(8 * n * n + 1)
    assert flag == exact
    assert witness == (root if exact else None)


def test_check_sum_identity():
    assert check_sum_identity(1)  # empty sum, b[1] == 0
    assert check_sum_identity(3)  # 2*(1+6) == 14
    assert check_sum_identity(5)  # 2*(1+6+35+204) == 492
    assert all(check_sum_identity(n) for n in range(1, 51))
    with pytest.raises(ValueError):
        check_sum_identity(0)


def test_check_pell_links():
    assert check_pell_links(0) == (True, True)
    assert check_pell_links(2) == (True, True)  # P4 = 12 = 2*6, P5 = 29 = 35 - 6
    assert check_pell_links(3) == (True, True)
    assert all(check_pell_links(n) == (True, True) for n in range(51))


def test_balancing_matrix_power_base():
    assert balancing_matrix_power(1) == ((6, 1), (-1, 0))
    with pytest.raises(ValueError):
        balancing_matrix_power(0)


def test_balancing_matrix_power_small():
    # squaring/cubing ((6,1),(-1,0)) flips the sign of the trailing term
    assert balancing_matrix_power(2) == ((35, 6), (-6, -1))
    assert balancing_matrix_power(3) == ((204, 35), (-35, -6))


def test_balancing_matrix_power_structure():
    b = sequence(BALANCING, 3002)
    for n in range(1, 3001):
        assert balancing_matrix_power(n) == ((b[n + 1], b[n]), (-b[n], -b[n - 1]))


def test_balancing_matrix_power_is_unimodular():
    for n in range(1, 3001):
        (p, q), (r, s) = balancing_matrix_power(n)
        assert p * s - q * r == 1


# the doubling engine behind term: indices at and next to each power of two
# take every path through its bit loop (a lone top bit, all bits set, ...)
ENGINE_INDICES = sorted({0, 1} | {2**j + d for j in range(1, 13) for d in (-1, 0, 1)})

ENGINE_SPECS = [
    RecurrenceSpec(coeff, shift, x0, x1, back)
    for back in (-2, 0, 3)
    for coeff, shift, x0, x1 in ((2, 0, 0, 1), (-3, 1, 2, -1), (5, -4, 1, 3))
] + [
    RecurrenceSpec(2, 3, 5, -1, back=-1),  # 1 - coeff - back == 0, a double root
    RecurrenceSpec(0, 2, 1, 1, back=1),  # 1 - coeff - back == 0, coeff 0
    RecurrenceSpec(1, -1, 0, 0, back=0),  # 1 - coeff - back == 0, back 0
    RecurrenceSpec(3, 2, 1, 4, back=-2),  # 1 - coeff - back == 0, 2 - coeff == -1
    RecurrenceSpec(-2, 1, 0, 1, back=3),  # 1 - coeff - back == 0, 2 - coeff == 4
]

ENGINE_KINDS = (
    list(NAMED_KINDS.values())
    + [balancing_like(a) for a in range(2, 10)]
    + [SequenceKind(f"spec{i}", spec) for i, spec in enumerate(ENGINE_SPECS)]
)


@pytest.mark.parametrize("kind", ENGINE_KINDS, ids=lambda k: k.name)
def test_term_matches_the_linear_sequence_at_powers_of_two(kind):
    terms = sequence(kind, ENGINE_INDICES[-1] + 1)
    for k in ENGINE_INDICES:
        assert term(kind, k) == terms[k], k


@pytest.mark.parametrize("kind", ENGINE_KINDS, ids=lambda k: k.name)
def test_decimal_terms_are_the_str_of_the_int_terms(kind):
    # back -1 and +1 take the fused multiply-add, every other back the plain step
    assert _decimal_terms(kind, 300) == [str(t) for t in sequence(kind, 300)]

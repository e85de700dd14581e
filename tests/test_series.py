from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotoidal.errors import (
    CapsMismatch,
    DegreeOutOfRange,
    ExpDomain,
    InvalidArgument,
    KnotoidalError,
    NotInvertible,
    SqrtDomain,
)
from knotoidal.series import Caps, ScalarSeries, q_factorial, q_integer

CAPS = Caps(2, 5)


def series(coeffs, caps=CAPS):
    return ScalarSeries(caps, {k: Fraction(v) for k, v in coeffs.items()})


def brute_mul(a: ScalarSeries, b: ScalarSeries) -> ScalarSeries:
    """Independent convolution oracle."""
    out = {}
    for (ea, ha), va in a.coeffs.items():
        for (eb, hb), vb in b.coeffs.items():
            e, h = ea + eb, ha + hb
            if a.caps.admits(e, h):
                out[(e, h)] = out.get((e, h), Fraction(0)) + va * vb
    return ScalarSeries(a.caps, out)


def test_geometric_series_inverse():
    one_minus_h = series({(0, 0): 1, (0, 1): -1})
    inv = one_minus_h.invert()
    expected = series({(0, h): 1 for h in range(6)})
    assert inv == expected
    assert one_minus_h * inv == ScalarSeries.one(CAPS)


def test_exp_of_eps_hbar():
    s = series({(1, 1): 1})
    e = s.exp()
    assert e.coefficient(0, 0) == 1
    assert e.coefficient(1, 1) == 1
    assert e.coefficient(2, 2) == Fraction(1, 2)
    # truncated at both caps: nothing beyond eps^2
    assert all(k[0] <= 2 and k[1] <= 5 for k in e.coeffs)


def test_exp_requires_zero_constant_term():
    with pytest.raises(ExpDomain):
        ScalarSeries.one(CAPS).exp()


def test_invert_requires_unit_constant():
    with pytest.raises(NotInvertible):
        series({(0, 1): 1}).invert()


def test_sqrt_squares_back():
    s = series({(0, 0): 1, (0, 1): 3, (1, 2): Fraction(-2, 7)})
    r = s.sqrt()
    assert r * r == s


def test_sqrt_domain():
    with pytest.raises(SqrtDomain):
        series({(0, 0): 2}).sqrt()


def test_caps_mismatch_raises():
    with pytest.raises(CapsMismatch):
        ScalarSeries.one(CAPS) + ScalarSeries.one(Caps(1, 5))


@pytest.mark.parametrize("degree", [(0, 9), (3, 0), (-1, 0)])
def test_degree_outside_the_caps_is_out_of_range(degree):
    with pytest.raises(DegreeOutOfRange):
        ScalarSeries(CAPS, {degree: 1})


def test_caps_validation():
    with pytest.raises(ValueError):
        Caps(-1, 2)
    with pytest.raises(ValueError):
        Caps(1, -2)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Caps(-1, 2),
        lambda: Caps(1, -2),
        lambda: Caps(1.5, 2),
        lambda: Caps(1, "2"),
        lambda: Caps(True, 2),
        lambda: q_factorial(-1, CAPS),
    ],
    ids=["negative-eps", "negative-hbar", "float-cap", "string-cap", "bool-cap", "q-factorial"],
)
def test_bad_arguments_are_typed_and_still_value_errors(make):
    with pytest.raises(InvalidArgument) as info:
        make()
    assert isinstance(info.value, ValueError) and isinstance(info.value, KnotoidalError)


def test_caps_json_round_trip():
    assert Caps(**CAPS.to_json()) == CAPS
    assert CAPS.to_json() == {"eps_order": 2, "hbar_order": 5}


@pytest.mark.parametrize(
    "eps_order, hbar_order",
    [(None, None), (1, None), (1, -1), (1.0, 2), ([1, 2], 2), (None, 2)],
    ids=["empty", "no-hbar", "negative", "float", "list", "null"],
)
def test_caps_json_errors_are_typed(eps_order, hbar_order):
    # the values decoded JSON hands the constructor, None for a missing key
    with pytest.raises(InvalidArgument):
        Caps(eps_order, hbar_order)


def test_q_factorial_base_cases():
    assert q_factorial(0, CAPS) == ScalarSeries.one(CAPS)
    assert q_factorial(1, CAPS) == ScalarSeries.one(CAPS)


def test_q_factorial_two_is_one_plus_q():
    qf = q_factorial(2, CAPS)
    q = series({(1, 1): 1}).exp()
    assert qf == ScalarSeries.one(CAPS) + q
    assert qf.coefficient(0, 0) == 2
    assert qf.coefficient(1, 1) == 1
    assert qf.coefficient(2, 2) == Fraction(1, 2)


def test_q_factorial_times_inverse_is_one():
    qf = q_factorial(3, CAPS)
    assert brute_mul(qf, qf.invert()) == ScalarSeries.one(CAPS)


def test_q_integer_constant_term():
    for k in range(5):
        assert q_integer(k, CAPS).coefficient(0, 0) == k


def test_q_integer_closed_form_is_a_sum_of_powers_of_q():
    for caps in (Caps(0, 3), Caps(1, 0), Caps(2, 5), Caps(4, 3)):
        for k in range(-1, 6):
            powers = [ScalarSeries.term(caps, j, 1, 1).exp() for j in range(k)]
            assert q_integer(k, caps) == sum(powers, ScalarSeries.zero(caps)), (caps, k)


coeff_st = st.fractions(
    min_value=-3, max_value=3, max_denominator=6
)
key_st = st.tuples(st.integers(0, 2), st.integers(0, 5))


@st.composite
def series_st(draw):
    entries = draw(st.dictionaries(key_st, coeff_st, max_size=5))
    return ScalarSeries(CAPS, entries)


@settings(max_examples=60, deadline=None)
@given(series_st(), series_st())
def test_mul_matches_brute_force(a, b):
    assert a * b == brute_mul(a, b)


@settings(max_examples=40, deadline=None)
@given(series_st(), series_st(), series_st())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(series_st(), series_st())
def test_invert_sqrt_exp_identities(a, b):
    one = ScalarSeries.one(CAPS)
    if a.constant_term:
        assert a * a.invert() == one
    a0 = a - ScalarSeries.term(CAPS, a.constant_term)
    b0 = b - ScalarSeries.term(CAPS, b.constant_term)
    unit = one + a0
    assert unit.sqrt() * unit.sqrt() == unit
    assert (a0 + b0).exp() == a0.exp() * b0.exp()


def test_render_and_json_round_trip():
    s = series({(0, 0): 1, (1, 2): Fraction(-3, 4)})
    assert s.render() == "1 + -3/4*eps*hbar^2"


@pytest.mark.parametrize(
    "data",
    [
        {"\u0661,0": 1},
        {" 0 , 1": 1},
        {"0,1_0": 1},
        {"0": 1},
        {(0, 0): True},
        {(0, 0): 1.5},
        {(0, 0): None},
        {(0, 0): "x"},
        ["0,0"],
        "0,0",
    ],
    ids=[
        "key-arabic-indic-digit",
        "key-spaces",
        "key-underscore",
        "key-one-degree",
        "coeff-bool",
        "coeff-float",
        "coeff-null",
        "coeff-not-a-number",
        "list",
        "string",
    ],
)
def test_series_json_errors_are_typed(data):
    # decoded JSON has string keys, and floats and bools among its numbers;
    # a series takes only (int, int) degrees and int or Fraction coefficients
    with pytest.raises(InvalidArgument):
        ScalarSeries(CAPS, data)

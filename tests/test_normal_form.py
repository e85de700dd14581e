"""Every element the exact layer returns is already in normal form.

``algebra._Terms`` builds every ``DElement`` and ``DTensor`` through one
normalising loop.  These properties check what the package hands back: its
terms hold only nonzero ``Fraction`` coefficients at degrees the caps admit,
and rebuilding it through the constructor gives an equal value.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_element
from decomp_strategies import small_decomposition_st
from knotoidal.algebra import DElement, DTensor, antipode, r_inverse, r_matrix, rotation_element
from knotoidal.invariant import evaluate_Z
from knotoidal.series import Caps, ScalarSeries

caps_st = st.builds(Caps, st.integers(0, 2), st.integers(0, 4))


def assert_normal(value):
    caps = value.caps
    for sd in value.raw().values():
        assert sd
        for (e, h), v in sd.items():
            assert type(v) is Fraction and v
            assert caps.admits(e, h)
    assert type(value)(caps, value.raw()) == value


@settings(max_examples=15, deadline=None)
@given(caps=caps_st)
def test_named_elements_are_normal(caps):
    rmat, rinv = r_matrix(caps), r_inverse(caps)
    for value in (rmat, rinv, rotation_element(1, caps), rotation_element(-1, caps)):
        assert_normal(value)
    # a product that cancels to 1 (x) 1, and a difference that cancels to 0
    assert_normal(rmat * rinv)
    assert_normal(rmat - rmat)
    assert (rmat - rmat).is_zero()


@settings(max_examples=30, deadline=None)
@given(caps=caps_st, seed=st.integers(0, 2**32 - 1))
def test_arithmetic_results_are_normal(caps, seed):
    rng = random.Random(seed)
    u, v = random_element(rng, caps), random_element(rng, caps)
    series = ScalarSeries(
        caps,
        {
            (e, h): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for e in range(caps.eps_order + 1)
            for h in range(caps.hbar_order + 1)
        },
    )
    number = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    values = [u + v, u - v, u - u, u * v, u.scale(number), u.scale(series), antipode(u)]
    values += [u.epsilon_part(k) for k in range(caps.eps_order + 1)]
    for value in values:
        assert_normal(value)


@settings(max_examples=20, deadline=None)
@given(d=small_decomposition_st())
def test_evaluated_invariants_are_normal(d):
    assert_normal(evaluate_Z(d, Caps(1, 2)).element)


@pytest.mark.parametrize("cls", [DElement, DTensor])
def test_scaling_by_zero_gives_the_zero_element(caps14, cls):
    value = r_matrix(caps14) if cls is DTensor else rotation_element(1, caps14)
    for zero in (0, Fraction(0), ScalarSeries.zero(caps14)):
        scaled = value.scale(zero)
        assert scaled.is_zero() and scaled.raw() == {}
        assert scaled == cls(caps14)

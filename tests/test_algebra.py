import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algebra_reference import reference_context, reference_r_inverse, yang_baxter_holds
from conftest import random_element
from knotoidal.algebra import (
    UNIT_MON,
    DElement,
    DTensor,
    _Context,
    _poly_mul,
    _relation_tail,
    antipode,
    get_context,
    r_inverse,
    r_matrix,
    rotation_element,
)
from knotoidal.errors import CapsMismatch, DegreeOutOfRange, InvalidArgument
from knotoidal.series import Caps, ScalarSeries


def gens(caps):
    return {name: DElement.generator(caps, name) for name in "ybax"}


def q_series(caps):
    return ScalarSeries.term(caps, 1, 1, 1).exp()


def eps_series(caps):
    return ScalarSeries.eps(caps)


def test_defining_relations(caps14):
    g = gens(caps14)
    y, b, a, x = g["y"], g["b"], g["a"], g["x"]
    tail = DElement(caps14, _relation_tail(caps14.eps_order, caps14.hbar_order))
    assert x * y == (y * x).scale(q_series(caps14)) + tail
    assert a * x - x * a == x
    assert b * x - x * b == x.scale(eps_series(caps14))
    assert a * y - y * a == y.scale(-1)
    assert b * y - y * b == y.scale(eps_series(caps14)).scale(-1)
    assert (a * b - b * a).is_zero()


def test_relation_tail_leading_terms(caps14):
    # (eps*a + b) - hbar*(eps*a + b)^2/2 + ...
    tail = _relation_tail(caps14.eps_order, caps14.hbar_order)
    assert tail[(0, 1, 0, 0)][(0, 0)] == 1  # b
    assert tail[(0, 0, 1, 0)][(1, 0)] == 1  # eps*a
    assert tail[(0, 2, 0, 0)][(0, 1)] == Fraction(-1, 2)  # -hbar*b^2/2
    assert tail[(0, 1, 1, 0)][(1, 1)] == -1  # cross term of the square


def test_unit_laws(caps14):
    one = DElement.unit(caps14)
    rng = random.Random(3)
    for _ in range(10):
        u = random_element(rng, caps14)
        assert one * u == u
        assert u * one == u


def test_associativity_random(caps14):
    rng = random.Random(11)
    for _ in range(30):
        u, v, w = (random_element(rng, caps14) for _ in range(3))
        assert (u * v) * w == u * (v * w)


def test_caps_mismatch(caps14):
    with pytest.raises(CapsMismatch):
        DElement.unit(caps14) * DElement.unit(Caps(0, 4))
    with pytest.raises(CapsMismatch):
        DElement.monomial(Caps(1, 2), (1, 0, 0, 0), ScalarSeries.term(caps14, 1, 0, 3))
    # a series at other caps used to scale to the zero element unchecked
    with pytest.raises(CapsMismatch):
        DElement.generator(Caps(1, 2), "x").scale(ScalarSeries.term(Caps(0, 5), 3, 0, 4))


def test_r_matrix_low_caps():
    assert r_matrix(Caps(1, 0)) == DTensor.unit(Caps(1, 0))
    caps = Caps(1, 1)
    rmat = r_matrix(caps).raw()
    assert rmat[((0, 0, 0, 0), (0, 0, 0, 0))] == {(0, 0): Fraction(1)}
    assert rmat[((1, 0, 0, 0), (0, 0, 0, 1))] == {(0, 1): Fraction(1)}
    assert rmat[((0, 1, 0, 0), (0, 0, 1, 0))] == {(0, 1): Fraction(1)}
    assert len(rmat) == 3


def test_r_inverse_low_caps():
    caps = Caps(1, 1)
    rinv = r_inverse(caps).raw()
    assert rinv[((0, 0, 0, 0), (0, 0, 0, 0))] == {(0, 0): Fraction(1)}
    assert rinv[((1, 0, 0, 0), (0, 0, 0, 1))] == {(0, 1): Fraction(-1)}
    assert rinv[((0, 1, 0, 0), (0, 0, 1, 0))] == {(0, 1): Fraction(-1)}


def test_r_times_r_inverse(caps14):
    rmat, rinv = r_matrix(caps14), r_inverse(caps14)
    assert rmat * rinv == DTensor.unit(caps14)
    assert rinv * rmat == DTensor.unit(caps14)


def test_antipode_inverts_r(caps14):
    # r_inverse is (S x id)(R) by construction; (id x S) of it is R again
    assert r_matrix(caps14).map_slot(antipode, 0) == r_inverse(caps14)
    assert r_inverse(caps14).map_slot(antipode, 1) == r_matrix(caps14)


def test_yang_baxter():
    assert yang_baxter_holds(Caps(1, 3))


def test_rotation_elements_mutually_inverse(caps14):
    rp = rotation_element(1, caps14)
    rm = rotation_element(-1, caps14)
    one = DElement.unit(caps14)
    assert rp * rm == one
    assert rm * rp == one
    assert rotation_element(1, Caps(1, 0)) == DElement.unit(Caps(1, 0))


def test_rotation_element_low_order_expansion():
    # series expansion oracle at hbar cap 1: 1 + (sign/2)*hbar*(eps*a + b)
    caps = Caps(1, 1)
    half = Fraction(1, 2)
    expected_plus = DElement(
        caps,
        {
            (0, 0, 0, 0): {(0, 0): Fraction(1)},
            (0, 1, 0, 0): {(0, 1): half},
            (0, 0, 1, 0): {(1, 1): half},
        },
    )
    expected_minus = DElement(
        caps,
        {
            (0, 0, 0, 0): {(0, 0): Fraction(1)},
            (0, 1, 0, 0): {(0, 1): -half},
            (0, 0, 1, 0): {(1, 1): -half},
        },
    )
    assert rotation_element(1, caps) == expected_plus
    assert rotation_element(-1, caps) == expected_minus


def test_rotation_conjugation_scales_x_and_y(caps14):
    # The rotation element is group-like but not central: conjugation scales
    # x by q and y by 1/q (it implements the squared antipode), so the
    # commutators with x and y vanish only in the eps-degree-0 quotient.
    g = gens(caps14)
    rp = rotation_element(1, caps14)
    q = q_series(caps14)
    assert rp * g["x"] == (g["x"] * rp).scale(q)
    assert rp * g["y"] == (g["y"] * rp).scale(q.invert())
    assert rp * g["a"] == g["a"] * rp
    assert rp * g["b"] == g["b"] * rp
    caps0 = Caps(0, 4)
    rp0 = rotation_element(1, caps0)
    for name in "ybax":
        gen = DElement.generator(caps0, name)
        assert rp0 * gen == gen * rp0


def test_whole_crossing_rotation_commutes(caps14):
    # rot (x) rot commutes with the quasitriangular structure and its
    # inverse: rotating a crossing as a whole never changes evaluations
    from knotoidal.series import _smul

    for tensor in (r_matrix(caps14), r_inverse(caps14)):
        for rsign in (1, -1):
            rot = rotation_element(rsign, caps14).raw()
            terms = {}
            for m1, s1 in rot.items():
                for m2, s2 in rot.items():
                    scal = _smul(s1, s2, caps14.eps_order, caps14.hbar_order)
                    if scal:
                        terms[(m1, m2)] = scal
            pair = DTensor(caps14, terms)
            assert pair * tensor == tensor * pair


def _weight(mon) -> int:
    """The y exponent minus the x exponent; rotations scale a monomial by q^(-s w)."""
    return mon[0] - mon[3]


def test_deposit_terms_are_weight_balanced():
    # w(over) + w(under) = 0 on every crossing term, so every term of a walk
    # state has the weight minus that of the state's pending monomials
    for K in range(3):
        for N in range(7):
            caps = Caps(K, N)
            for tensor in (r_matrix(caps), r_inverse(caps)):
                for m1, m2 in tensor.raw():
                    assert _weight(m1) + _weight(m2) == 0, (caps, m1, m2)


@pytest.mark.parametrize("caps", [Caps(1, 4), Caps(2, 4)], ids=str)
def test_rotation_passes_a_monomial_as_a_power_of_q(caps):
    # rot_s * M = q^(-s w(M)) * M * rot_s: the strand walk leaves each
    # rotation behind as a scalar and deposits them all once, at the end
    monomials = [mon for mon in product(range(4), repeat=4) if sum(mon) <= 3]
    for sign in (1, -1):
        rot = rotation_element(sign, caps)
        for mon in monomials:
            m = DElement.monomial(caps, mon)
            q_power = ScalarSeries.term(caps, -sign * _weight(mon), 1, 1).exp()
            assert rot * m == (m * rot).scale(q_power), (sign, mon)


def test_tensor_constructor_cleans_like_an_element(caps14):
    pair = ((1, 0, 0, 0), (0, 0, 0, 1))
    clean = DTensor(caps14, {pair: {(0, 1): Fraction(2)}})
    padded = DTensor(
        caps14,
        {
            pair: {(0, 1): 2, (1, 2): 0, (0, caps14.hbar_order + 1): 5},
            (pair[1], pair[0]): {(caps14.eps_order + 1, 0): 1},
        },
    )
    assert padded == clean
    assert hash(padded) == hash(clean)
    assert all(isinstance(v, Fraction) for sd in padded.raw().values() for v in sd.values())


def test_trusted_is_keyword_only(caps14):
    # one construction path: a stray third argument is refused, not taken as a
    # switch past the checks
    too_high = {UNIT_MON: {(0, caps14.hbar_order + 1): 1}}
    for cls, terms in ((DElement, too_high), (DTensor, {(UNIT_MON, UNIT_MON): too_high[UNIT_MON]})):
        with pytest.raises(TypeError):
            cls(caps14, terms, True)
        assert cls(caps14, terms).is_zero()


def test_antipode_unit(caps14):
    one = DElement.unit(caps14)
    assert antipode(one) == one


def test_antipode_anti_homomorphism(caps14):
    rng = random.Random(5)
    for _ in range(20):
        u, v = random_element(rng, caps14), random_element(rng, caps14)
        assert antipode(u * v) == antipode(v) * antipode(u)


def test_antipode_squared_scales_generators(caps14):
    g = gens(caps14)
    q = q_series(caps14)
    assert antipode(antipode(g["y"])) == g["y"].scale(q)
    assert antipode(antipode(g["x"])) == g["x"].scale(q.invert())
    assert antipode(antipode(g["a"])) == g["a"]
    assert antipode(antipode(g["b"])) == g["b"]


def test_antipode_respects_relations(caps14):
    # S applied to the defining relation must hold again
    g = gens(caps14)
    y, x = g["y"], g["x"]
    tail = DElement(caps14, _relation_tail(caps14.eps_order, caps14.hbar_order))
    lhs = antipode(y) * antipode(x)
    rhs = (antipode(x) * antipode(y)).scale(q_series(caps14)) + antipode(tail)
    assert lhs == rhs


def test_element_rendering_canonical(caps14):
    g = gens(caps14)
    e = g["x"] * g["y"]
    text = e.render()
    lines = text.splitlines()
    assert lines[0].endswith("b") or lines[0].endswith("a")



@pytest.mark.parametrize(
    "make",
    [
        lambda c: DElement.monomial(c, (0, 0, 1, 1), ScalarSeries(c, {(0, 0): "x"})),
        lambda c: DElement.monomial(c, None),
        lambda c: DElement.monomial(c, (1, 0, 0)),
        lambda c: DElement.monomial(c, (1, 0, 0, "x")),
        lambda c: DElement.monomial(c, (1, 0, 0, 0.5)),
        lambda c: DElement.monomial(c, (0, 0, 1, 1), ScalarSeries(c, {("0", 0): 1})),
        lambda c: DElement.monomial(c, (0, 0, 1, 1), ScalarSeries(c, {(0, 0.0): 1})),
        lambda c: DElement.monomial(c, (-1, 0, 0, 0)),
        lambda c: DElement.monomial(Caps(1.5, c.hbar_order), (0, 0, 1, 1)),
        lambda c: DElement.monomial(c, (0, 0, 1, 1), ScalarSeries(c, {(0, 0): True})),
        lambda c: DElement.monomial(c, (0, 0, 1, 1), ScalarSeries(c, {(0, 0): 1.5})),
    ],
    ids=[
        "coeff",
        "no-terms",
        "three-exponents",
        "string-exponent",
        "float-exponent",
        "string-degree",
        "float-degree",
        "negative-exponent",
        "float-cap",
        "bool-coeff",
        "float-coeff",
    ],
)
def test_element_json_errors_are_typed(caps14, make):
    # each bad value of a decoded JSON term, None for a missing key, given to
    # the constructors that build a term
    with pytest.raises(InvalidArgument):
        make(caps14)


@pytest.mark.parametrize("degree", [(0, 9), (2, 0)], ids=["hbar-past-cap", "eps-past-cap"])
def test_element_json_takes_each_term_once_and_within_caps(degree):
    # a term outside the caps raises rather than load as nothing
    caps = Caps(1, 2)
    with pytest.raises(DegreeOutOfRange):
        DElement.monomial(caps, (0, 0, 0, 0), ScalarSeries(caps, {degree: 1}))

@pytest.mark.parametrize("sign", [0, 2, "+"])
def test_bad_rotation_sign_is_an_invalid_argument(caps14, sign):
    with pytest.raises(InvalidArgument):
        rotation_element(sign, caps14)


@pytest.mark.parametrize(
    "mon",
    [(-1, 0, 0, 2), (1, 0, 0), (1, 0, 0, 0, 0), (1, 0, 0, 0.5), (1, 0, 0, True), (1, 0, 0, "1"), "1000", 7],
    ids=["negative", "three", "five", "float", "bool", "string-exponent", "string", "int"],
)
def test_bad_monomial_is_an_invalid_argument(mon):
    # a negative exponent used to build, render as y^-1, and fail its square
    # with a bare IndexError
    with pytest.raises(InvalidArgument):
        DElement.monomial(Caps(1, 2), mon)


@pytest.mark.parametrize("coeff", [3, Fraction(1, 2), "1"])
def test_monomial_coefficient_not_a_series_is_an_invalid_argument(coeff):
    # a plain number used to fail with a bare AttributeError
    with pytest.raises(InvalidArgument):
        DElement.monomial(Caps(1, 2), (0, 0, 0, 1), coeff)


@pytest.mark.parametrize("name, power", [("z", 1), ("", 1), (None, 1), ("y", -1), ("x", 1.0)])
def test_bad_generator_is_an_invalid_argument(caps14, name, power):
    with pytest.raises(InvalidArgument):
        DElement.generator(caps14, name, power)


def test_scale_and_epsilon_part(caps14):
    g = gens(caps14)
    mixed = g["a"] + g["b"].scale(eps_series(caps14))
    assert mixed.epsilon_part(0) == g["a"]
    assert mixed.epsilon_part(1) == g["b"].scale(eps_series(caps14))


# ---------------------------------------------------------------------------
# the integer rewriting tables against the Fraction oracle

monomial_st = st.tuples(*[st.integers(0, 4)] * 4)


def _all_ints(ctx) -> bool:
    """Every value of every integer table the context holds is an ``int``."""
    entries = [*ctx.left_x.values(), *ctx.left_factors.values()]
    polys = [ctx.tail, ctx.q, *ctx.tail_sums, *(p for entry in entries for p in entry)]
    return all(type(c) is int for p in polys for c in p.values())


def test_q_power_closed_form_matches_repeated_products():
    for K, N in product(range(3), range(7)):
        ctx = get_context(Caps(K, N))
        power = {(0, 0, 0, 0): 1}
        for m in range(7):
            assert ctx.q_power(m) == power, (K, N, m)
            power = _poly_mul(power, ctx.q, K, N)


@settings(max_examples=60, deadline=None)
@given(m1=monomial_st, m2=monomial_st, K=st.integers(0, 2), N=st.integers(0, 6))
def test_integer_tables_match_fraction_oracle(m1, m2, K, N):
    caps = Caps(K, N)
    ctx, ref = get_context(caps), reference_context(caps)
    assert ctx.mon_mul(m1, m2) == ref.mon_mul(m1, m2)
    assert ctx.left_x_mon(m1) == ref.left_x_mon(m1)
    assert _all_ints(ctx)


@settings(max_examples=60, deadline=None)
@given(
    m1=st.tuples(*[st.integers(0, 3)] * 3, st.integers(0, 6)),
    m2=st.tuples(st.integers(0, 6), *[st.integers(0, 3)] * 3),
    K=st.integers(0, 2),
    N=st.integers(0, 6),
)
def test_closed_normal_ordering_matches_fraction_oracle(m1, m2, K, N):
    # x^l1 y^i2 from the (l, i) table, against the oracle's left_x recursion
    ctx, ref = _Context(K, N), reference_context(Caps(K, N))
    expected = ref.mon_mul(m1, m2)
    assert ctx.unscaled(ctx.product(m1, m2)) == expected
    assert ctx.mon_mul(m1, m2) == expected
    assert ctx.left_x and _all_ints(ctx)


def _truncated(product: dict, n: int) -> dict:
    """``product`` without its terms past ``hbar^n``."""
    truncated = {mon: {(e, h): c for (e, h), c in sd.items() if h <= n} for mon, sd in product.items()}
    return {mon: sd for mon, sd in truncated.items() if sd}


@settings(max_examples=60, deadline=None)
@given(m1=monomial_st, m2=monomial_st, K=st.integers(0, 2), N=st.integers(0, 6))
def test_product_to_a_budget_is_the_truncated_product(m1, m2, K, N):
    # the walk fills its rows to a budget below the cap; the (l, i) table stays at the cap
    ctx, full = _Context(K, N), reference_context(Caps(K, N)).mon_mul(m1, m2)
    for n in range(N + 1):
        assert ctx.unscaled(ctx.product(m1, m2, n)) == _truncated(full, n)


small_monomial_st = st.tuples(*[st.integers(0, 2)] * 4)


@settings(max_examples=60, deadline=None)
@given(
    products=st.lists(
        st.tuples(small_monomial_st, small_monomial_st, st.integers(0, 4)), min_size=1, max_size=20
    ),
    K=st.integers(0, 2),
)
@example(
    products=[
        ((0, 0, 0, 1), (1, 0, 0, 0), 4),  # x * y
        ((1, 0, 0, 1), (1, 1, 1, 1), 4),  # its left factors, for another y power of D and b, a, x of M
        ((0, 0, 0, 1), (1, 0, 0, 0), 1),  # x * y to a lower budget
        ((0, 0, 0, 2), (1, 0, 0, 0), 4),  # another x power of D
    ],
    K=1,
)
def test_products_on_one_context_are_the_truncated_products(products, K):
    # one context serves every product, so that later products read the
    # memoized left factors of earlier ones
    N = 4
    ctx, ref = _Context(K, N), reference_context(Caps(K, N))
    for m1, m2, n in products:
        assert ctx.unscaled(ctx.product(m1, m2, n)) == _truncated(ref.mon_mul(m1, m2), n), (m1, m2, n)
    assert _all_ints(ctx)


# The degree bounds by which invariant._Deposit sizes its walk rows; deg is
# the total exponent of a monomial.

@settings(max_examples=60, deadline=None)
@given(m1=monomial_st, m2=monomial_st, K=st.integers(0, 2), N=st.integers(0, 6))
def test_product_terms_keep_the_degree_bound(m1, m2, K, N):
    for mon, sd in _Context(K, N).product(m1, m2).items():
        assert all(sum(mon) + e <= sum(m1) + sum(m2) + 2 * h for e, h in sd), mon


def _folded_row_reaches_every_read(deg_d: int, d: int, N: int) -> bool:
    """A folded row of a scalar from hbar^d on a monomial of degree deg_d is
    exact to hbar^(d + N - ceil((deg_d + deg M) / 2)) at a main monomial M;
    the shallowest state term on M, at hbar^ceil(deg M / 2), reads it to
    hbar^(N - ceil(deg M / 2))."""
    return all(N - (m + 1) // 2 <= d + N - (deg_d + m + 1) // 2 for m in range(2 * N + 1))


def test_deposit_terms_keep_the_degree_bound():
    for K in range(3):
        for N in range(7):
            caps = Caps(K, N)
            for tensor in (r_matrix(caps), r_inverse(caps)):
                for (m1, m2), sd in tensor.raw().items():
                    assert all(sum(m1) + sum(m2) + e <= 2 * h for e, h in sd), (caps, m1, m2)
                    assert max(sum(m1), sum(m2)) <= min(h for _, h in sd), (caps, m1, m2)
                    for mon in (m1, m2):
                        assert _folded_row_reaches_every_read(sum(mon), min(h for _, h in sd), N)
            for sign in (1, -1):
                for mon, sd in rotation_element(sign, caps).raw().items():
                    assert all(sum(mon) + e <= 2 * h for e, h in sd), (caps, mon)
                    assert _folded_row_reaches_every_read(sum(mon), min(h for _, h in sd), N)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), N=st.integers(0, 4))
def test_element_products_match_fraction_oracle(seed, N):
    # exact products on the memo of exact monomial products, against the oracle
    caps = Caps(1, N)
    rng = random.Random(seed)
    u, v = random_element(rng, caps), random_element(rng, caps)
    assert (u * v).raw() == reference_context(caps).elem_mul(u.raw(), v.raw())


@pytest.mark.parametrize(
    "caps",
    [Caps(0, 0), Caps(1, 0), Caps(1, 1), Caps(0, 3), Caps(3, 2), Caps(2, 3), Caps(1, 4), Caps(2, 5), Caps(1, 6), Caps(0, 7)],
    ids=str,
)
def test_r_inverse_matches_fraction_oracle(caps):
    # the geometric series in R - 1 (x) 1, an independent route to (S x id)(R)
    assert r_inverse(caps).raw() == reference_r_inverse(caps)

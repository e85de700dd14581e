import random
from functools import cache
from fractions import Fraction
from itertools import permutations, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotoidal.algebra import rotation_element
from knotoidal.diagram import (
    TRIVIAL_DECOMP,
    Crossing,
    Rotation,
    chain_decompositions,
    fixtures,
    insert_r2_pair,
    parse_decomposition,
)
from knotoidal.errors import (
    CapsMismatch,
    DegreeOutOfRange,
    DimensionMismatch,
    InvalidArgument,
    KnotoidalError,
    NotInvertible,
)
from knotoidal.rt import (
    EndpointVectors,
    RepData,
    derive_rep,
    matrix_identity,
    matrix_inverse,
    matrix_mul,
    matrix_of_element,
    recovery_check,
    rt_evaluate,
)
from knotoidal.series import Caps, ScalarSeries

from decomp_strategies import small_decomposition_st
from rt_reference import reference_rt_evaluate

CAPS = Caps(1, 3)

# the worked two-crossing knotoid: up through two positive crossings, a
# clockwise turnaround, and back through both
EXAMPLE = parse_decomposition("labels 5; R+ 1 4; R+ 5 2; C- 3")


def one(v=1):
    return ScalarSeries.term(CAPS, v)


def rho_dim2(caps=CAPS):
    """Generator matrices of a two-dimensional representation."""
    zero, one_ = ScalarSeries.zero(caps), ScalarSeries.one(caps)
    w = (one_ - ScalarSeries.term(caps, -1, 1, 1).exp()).shift(0, -1)
    return {
        "a": [[one_, zero], [zero, zero]],
        "b": [[zero, zero], [zero, ScalarSeries.term(caps, -1, 1, 0)]],
        "x": [[zero, one_], [zero, zero]],
        "y": [[zero, zero], [w, zero]],
    }


def rho_dim1(caps=CAPS):
    return {
        "a": [[ScalarSeries.one(caps)]],
        "b": [[ScalarSeries.term(caps, -1, 1, 0)]],
        "x": [[ScalarSeries.zero(caps)]],
        "y": [[ScalarSeries.zero(caps)]],
    }


def test_dim2_generator_matrices_satisfy_relations():
    rho = rho_dim2()
    q = ScalarSeries.term(CAPS, 1, 1, 1).exp()
    xy = matrix_mul(rho["x"], rho["y"])
    yx = matrix_mul(rho["y"], rho["x"])
    lhs = [[xy[r][c] - q * yx[r][c] for c in range(2)] for r in range(2)]
    # (1 - exp(-eps*hbar*a - hbar*b)) / hbar is diagonal here
    w = (ScalarSeries.one(CAPS) - ScalarSeries.term(CAPS, -1, 1, 1).exp()).shift(0, -1)
    w2 = (ScalarSeries.one(CAPS) - ScalarSeries.term(CAPS, 1, 1, 1).exp()).shift(0, -1)
    assert lhs[0][0] == w and lhs[1][1] == w2
    assert lhs[0][1].is_zero() and lhs[1][0].is_zero()
    for name, factor in (("x", 1), ("y", -1)):
        commut_a = matrix_mul(rho["a"], rho[name])
        commut_a = [
            [commut_a[r][c] - matrix_mul(rho[name], rho["a"])[r][c] for c in range(2)]
            for r in range(2)
        ]
        assert commut_a == [[rho[name][r][c] * factor for c in range(2)] for r in range(2)]


def test_trivial_decomposition_contracts_endpoints():
    rep = derive_rep(CAPS, rho_dim2())
    ev = EndpointVectors([one(2), one(3)], [one(5), one(7)])
    value = rt_evaluate(TRIVIAL_DECOMP, rep, ev)
    assert value == one(2 * 5 + 3 * 7)


def test_dim1_monomial_formula():
    r = ScalarSeries.one(CAPS) + ScalarSeries.hbar(CAPS)
    t = ScalarSeries.one(CAPS) + ScalarSeries.term(CAPS, 1, 1, 1)
    rep = RepData([[r]], [[t]])
    ev = EndpointVectors([one(3)], [one(2)])
    # two positive crossings, one negative, two clockwise and one
    # counter-clockwise rotation
    d = parse_decomposition(
        "labels 9; R+ 1 4; R+ 5 2; R- 6 8; C- 3; C- 7; C+ 9"
    )
    value = rt_evaluate(d, rep, ev)
    assert value == one(6) * r.pow(2) * r.invert() * t.pow(2) * t.invert()


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: RepData([], []), DimensionMismatch),
        (lambda: RepData(1, 1), InvalidArgument),
        (lambda: RepData([[None]], 5), InvalidArgument),
        (lambda: RepData([[one()]], [one()]), InvalidArgument),
        (lambda: RepData(None, [[one()]]), InvalidArgument),
        (lambda: RepData([[1]], [[1]]), InvalidArgument),
        (lambda: RepData([[one()]], [["1"]]), InvalidArgument),
        (lambda: RepData([[ScalarSeries.one(Caps(1, 2))]], [[one()]]), CapsMismatch),
        (
            lambda: RepData(
                matrix_identity(CAPS, 4), [[one(), one()], [one(), ScalarSeries.one(Caps(1, 2))]]
            ),
            CapsMismatch,
        ),
        (lambda: RepData([[one()]], [[ScalarSeries.hbar(CAPS)]]), NotInvertible),
        (
            lambda: rt_evaluate(EXAMPLE, derive_rep(CAPS, rho_dim2()), EndpointVectors([one()], [one(), one()])),
            DimensionMismatch,
        ),
        (
            lambda: rt_evaluate(EXAMPLE, derive_rep(CAPS, rho_dim2()), EndpointVectors([one(), one()], [one()] * 3)),
            DimensionMismatch,
        ),
        (
            lambda: rt_evaluate(EXAMPLE, derive_rep(CAPS, rho_dim2()), EndpointVectors([1, 2], [one(), one()])),
            InvalidArgument,
        ),
        (
            lambda: rt_evaluate(
                EXAMPLE,
                derive_rep(CAPS, rho_dim2()),
                EndpointVectors([one(), one()], [ScalarSeries.one(Caps(1, 2))] * 2),
            ),
            CapsMismatch,
        ),
    ],
    ids=[
        "dim-0", "int-matrices", "int-h", "series-row", "none-R", "int-entries", "str-in-h", "mixed-caps", "mixed-caps-in-h", "singular-h",
        "short-eta", "long-eps", "int-eta", "eps-other-caps",
    ],
)
def test_rep_errors_are_typed(make, error):
    with pytest.raises(error):
        make()


def test_multilinearity_in_endpoints():
    rep = derive_rep(CAPS, rho_dim2())
    ev = EndpointVectors([one(1), one(2)], [one(3), one(4)])
    scaled = EndpointVectors([v * 5 for v in ev.eta], ev.eps_)
    assert rt_evaluate(EXAMPLE, rep, scaled) == rt_evaluate(EXAMPLE, rep, ev) * 5


def test_example_matches_composition_formula():
    """State sum equals the explicit cap/cup/crossing composition."""
    rep = derive_rep(CAPS, rho_dim2())
    dim = rep.dim
    eta = [one(1), one(2)]
    eps_ = [one(3), one(5)]
    oracle = ScalarSeries.zero(CAPS)
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                for e in range(dim):
                    for f in range(dim):
                        for g in range(dim):
                            term = (
                                rep.R[e * dim + a][b * dim + f]
                                * rep.R[b * dim + f][g * dim + c]
                                * rep.h[c][e]
                                * eps_[a]
                                * eta[g]
                            )
                            oracle = oracle + term
    value = rt_evaluate(EXAMPLE, rep, EndpointVectors(eta, eps_))
    assert value == oracle


def test_r2_insertion_invariance():
    rep = derive_rep(CAPS, rho_dim2())
    ev = EndpointVectors([one(1), one(2)], [one(3), one(4)])
    base = rt_evaluate(EXAMPLE, rep, ev)
    for sign in (1, -1):
        modified = insert_r2_pair(EXAMPLE, 1, 5, sign)
        assert rt_evaluate(modified, rep, ev) == base


def test_recovery_dim1():
    rho = rho_dim1()
    rep = derive_rep(CAPS, rho)
    ev = EndpointVectors([one(2)], [one(3)])
    assert recovery_check(EXAMPLE, rep, rho, ev).passed
    assert recovery_check(TRIVIAL_DECOMP, rep, rho, ev).passed


def test_recovery_dim2():
    rho = rho_dim2()
    rep = derive_rep(CAPS, rho)
    ev = EndpointVectors([one(1), one(2)], [one(3), one(4)])
    assert recovery_check(EXAMPLE, rep, rho, ev).passed


@cache
def _dim2_rep():
    rho = rho_dim2()
    return rho, derive_rep(CAPS, rho)


_VECTOR_ST = st.lists(st.integers(-5, 5), min_size=2, max_size=2)


@settings(max_examples=20, deadline=None)
@given(d=small_decomposition_st(), eta=_VECTOR_ST, eps_=_VECTOR_ST)
def test_recovery_on_random_decompositions(d, eta, eps_):
    rho, rep = _dim2_rep()
    ev = EndpointVectors([one(v) for v in eta], [one(v) for v in eps_])
    result = recovery_check(d, rep, rho, ev)
    assert result.passed, result.details


def brute_force_state_sum(d, rep: RepData, ev: EndpointVectors) -> ScalarSeries:
    """The state sum over every labeling of the strand edges, term by term.

    Edge ``k`` leaves label ``k`` (edge 0 enters label 1).  A pass runs from
    its bottom to its top edge; on a positive crossing the over-pass runs
    bottom-left to top-right and the under-pass bottom-right to top-left,
    and a negative crossing (weights ``R^-1``) has them the other way round.
    """
    dim = rep.dim
    tok_at = {}
    for tok in d.tokens:
        for lab in (tok.over, tok.under) if isinstance(tok, Crossing) else (tok.label,):
            tok_at[lab] = tok
    total = ScalarSeries.zero(rep.caps)
    for idx in product(range(dim), repeat=d.labels + 1):
        amp = ev.eta[idx[0]] * ev.eps_[idx[-1]]
        for lab in range(1, d.labels + 1):
            tok = tok_at.get(lab)
            if tok is None:
                w = ScalarSeries.one(rep.caps) if idx[lab] == idx[lab - 1] else None
            elif isinstance(tok, Rotation):
                w = (rep.h_inv if tok.sign > 0 else rep.h)[idx[lab]][idx[lab - 1]]
            elif lab == tok.over:
                M = rep.R if tok.sign > 0 else rep.r_inverse()
                over = (idx[tok.over - 1], idx[tok.over])
                under = (idx[tok.under - 1], idx[tok.under])
                # (bottom-left, top-right) and (bottom-right, top-left)
                bl_tr, br_tl = (over, under) if tok.sign > 0 else (under, over)
                w = M[br_tl[1] * dim + bl_tr[1]][bl_tr[0] * dim + br_tl[0]]
            else:
                continue  # the weight of a crossing is taken at its over-pass
            if w is None or w.is_zero():
                amp = None
                break
            amp = amp * w
        if amp is not None:
            total = total + amp
    return total


@cache
def _generic_rep() -> RepData:
    """A 2-dimensional rep with no structure: every index choice shows."""
    caps = Caps(0, 1)
    rng = random.Random(7)

    def entry(diag):
        return ScalarSeries.term(caps, rng.randint(-3, 3) + diag) + ScalarSeries.term(
            caps, rng.randint(-3, 3), 0, 1
        )

    R = [[entry(6 if r == c else 0) for c in range(4)] for r in range(4)]
    t = ScalarSeries.term(caps, 1, 0, 1)
    one_, zero = ScalarSeries.one(caps), ScalarSeries.zero(caps)
    h = [[one_ + t, one_], [zero, one_]]
    return RepData(R, h)


@settings(max_examples=30, deadline=None)
@given(d=small_decomposition_st(), eta=_VECTOR_ST, eps_=_VECTOR_ST)
def test_state_sum_matches_brute_force(d, eta, eps_):
    rep = _generic_rep()
    ev = EndpointVectors(
        [ScalarSeries.term(rep.caps, v) for v in eta],
        [ScalarSeries.term(rep.caps, v) for v in eps_],
    )
    assert rt_evaluate(d, rep, ev) == brute_force_state_sum(d, rep, ev)


def _rational(caps, *values):
    """A series with ``values`` at hbar^0, hbar^1, ... as Fractions."""
    return ScalarSeries(caps, {(0, h): Fraction(v) for h, v in enumerate(values)})


@cache
def _rational_rep() -> tuple[RepData, EndpointVectors]:
    """A 2-dimensional rep and endpoint vectors over Q: every entry of ``R``
    and ``h`` has denominators 3, 5 or 7 at hbar^0 and hbar^1, so that the
    state sum's common denominator grows at every open and every rotation."""
    caps = Caps(1, 1)
    rng = random.Random(11)

    def entry(diag):
        c0, c1 = (Fraction(rng.choice((1, 2, -1, -2)), rng.choice((3, 5, 7))) for _ in range(2))
        return _rational(caps, c0 + diag, c1)

    R = [[entry(6 if r == c else 0) for c in range(4)] for r in range(4)]
    h = [
        [_rational(caps, "2/3", "1/5"), _rational(caps, "1/7", "2/3")],
        [_rational(caps), _rational(caps, "3/5", "-1/7")],
    ]
    ev = EndpointVectors(
        [_rational(caps, "1/3", "2/5"), _rational(caps, "-2/7", "1/3")],
        [_rational(caps, "2/5", "-1/7"), _rational(caps, "1/7", "2/3")],
    )
    return RepData(R, h), ev


def test_rational_rep_has_a_denominator_in_every_matrix():
    rep, ev = _rational_rep()
    for M in (rep.R, rep.r_inverse(), rep.h, rep.h_inv, [ev.eta], [ev.eps_]):
        assert any(c.denominator > 1 for row in M for entry in row for c in entry.coeffs.values())


@settings(max_examples=30, deadline=None)
@given(d=small_decomposition_st())
def test_rational_state_sum_matches_brute_force(d):
    rep, ev = _rational_rep()
    assert rt_evaluate(d, rep, ev) == brute_force_state_sum(d, rep, ev)


@settings(max_examples=40, deadline=None)
@given(d=small_decomposition_st(), eta=_VECTOR_ST, eps_=_VECTOR_ST, rational=st.booleans())
def test_state_sum_matches_the_series_state_sum(d, eta, eps_, rational):
    if rational:
        rep, ev = _rational_rep()
    else:
        rep = _dim2_rep()[1]
        ev = EndpointVectors([one(v) for v in eta], [one(v) for v in eps_])
    assert rt_evaluate(d, rep, ev) == reference_rt_evaluate(d, rep, ev)


def test_state_sum_matches_the_series_state_sum_on_the_chain():
    # the 5- to 40-crossing chain of 5_7 at caps (1,4) with the rep and
    # endpoint vectors of acceptance 8
    caps = Caps(1, 4)
    rep = derive_rep(caps, rho_dim2(caps))
    ev = EndpointVectors(
        [ScalarSeries.term(caps, v) for v in (2, 3)], [ScalarSeries.term(caps, v) for v in (3, 4)]
    )
    base = fixtures()["5_7"][1]
    chain = base
    for crossings in (5, 10, 20, 40):
        while len(chain.crossings()) < crossings:
            chain = chain_decompositions(chain, base)
        value = rt_evaluate(chain, rep, ev)
        assert not value.is_zero()
        assert value == reference_rt_evaluate(chain, rep, ev), crossings


def test_recovery_fails_with_corrupted_rotation_weight():
    rho = rho_dim2()
    rep = derive_rep(CAPS, rho)
    corrupted = RepData(rep.R, matrix_mul(rep.h, rep.h))
    ev = EndpointVectors([one(1), one(2)], [one(3), one(4)])
    result = recovery_check(EXAMPLE, corrupted, rho, ev)
    assert not result.passed
    assert "state sum" in result.details


def test_matrix_inverse_round_trip():
    rep = derive_rep(CAPS, rho_dim2())
    prod = matrix_mul(rep.R, rep.r_inverse())
    assert prod == matrix_identity(CAPS, rep.dim * rep.dim)


def _determinant(M) -> Fraction:
    """Leibniz expansion: independent of the elimination under test."""
    n = len(M)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(M[r][perm[r]] for r in range(n))
    return total


@st.composite
def square_matrix_st(draw):
    caps = Caps(draw(st.integers(0, 1)), draw(st.integers(0, 2)))
    n = draw(st.integers(1, 4))
    key_st = st.tuples(st.integers(0, caps.eps_order), st.integers(0, caps.hbar_order))
    entry_st = st.dictionaries(key_st, st.fractions(-3, 3, max_denominator=3), max_size=3)
    return [[ScalarSeries(caps, draw(entry_st)) for _ in range(n)] for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(square_matrix_st())
def test_matrix_inverse_is_two_sided_or_raises(A):
    identity = matrix_identity(A[0][0].caps, len(A))
    if _determinant([[entry.constant_term for entry in row] for row in A]):
        inverse = matrix_inverse(A)
        assert matrix_mul(A, inverse) == identity
        assert matrix_mul(inverse, A) == identity
    else:
        with pytest.raises(NotInvertible):
            matrix_inverse(A)


def test_rep_data_validation():
    # R must be d^2 x d^2 for the d of h
    t = ScalarSeries.one(CAPS) + ScalarSeries.hbar(CAPS)
    with pytest.raises(DimensionMismatch):
        RepData([[one()]], matrix_identity(CAPS, 2))
    with pytest.raises(DimensionMismatch):
        RepData(matrix_identity(CAPS, 4), [[t]])
    with pytest.raises(DimensionMismatch):
        RepData([[one()], [one()], [one()], [one()]], matrix_identity(CAPS, 2))
    rep = RepData([[one()]], [[t]])
    assert (rep.dim, rep.caps, rep.h_inv) == (1, CAPS, [[t.invert()]])


def test_rep_data_rejects_ragged_rotation_matrices():
    R = matrix_identity(CAPS, 4)
    ragged = [[one()], [one()]]
    for h in (ragged, [[one(), one()], [one()]], [[one(), one()]]):
        with pytest.raises(DimensionMismatch):
            RepData(R, h)
    with pytest.raises(DimensionMismatch):
        matrix_inverse(ragged)


def test_rep_json_empty_h_without_inverse_is_a_dimension_mismatch():
    # RepData derives h_inv from h; an empty h fails there (dim-0 above)
    # as it does in matrix_inverse
    with pytest.raises(DimensionMismatch):
        matrix_inverse([])


@pytest.mark.parametrize("caps", [Caps(1, 3), Caps(1, 4)], ids=["caps-1-3", "caps-1-4"])
@pytest.mark.parametrize("rho_of", [rho_dim1, rho_dim2], ids=["dim1", "dim2"])
def test_derived_h_inv_is_the_counterclockwise_rotation_element(rho_of, caps):
    # derive_rep's h is the image of rotation_element(-1); RepData inverts
    # it, so its h_inv must be the image of rotation_element(+1)
    rho = rho_of(caps)
    assert derive_rep(caps, rho).h_inv == matrix_of_element(rotation_element(1, caps), rho)


def test_rep_json_bad_series_entry_is_typed():
    # a bad matrix entry of decoded rep data fails where the entry is built
    for entry, error in (
        ({(0, 9): 1}, DegreeOutOfRange),
        ({("a", "b"): 1}, InvalidArgument),
        ({(0, 0): "x"}, InvalidArgument),
    ):
        with pytest.raises(error) as info:
            ScalarSeries(CAPS, entry)
        assert isinstance(info.value, KnotoidalError)

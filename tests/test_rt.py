import random
from functools import cache
from fractions import Fraction
from itertools import permutations, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotoidal.diagram import (
    TRIVIAL_DECOMP,
    Crossing,
    Rotation,
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
    matrix_eq,
    matrix_identity,
    matrix_inverse,
    matrix_mul,
    recovery_check,
    rt_evaluate,
)
from knotoidal.series import Caps, ScalarSeries

from decomp_strategies import small_decomposition_st

CAPS = Caps(1, 3)

# the worked two-crossing knotoid: up through two positive crossings, a
# clockwise turnaround, and back through both
EXAMPLE = parse_decomposition("labels 5; R+ 1 4; R+ 5 2; C- 3")


def one(v=1):
    return ScalarSeries.term(CAPS, v)


def series_eps(v=1):
    return ScalarSeries.term(CAPS, v, 1, 0)


def rho_dim2():
    """Generator matrices of a two-dimensional representation."""
    zero = ScalarSeries.zero(CAPS)
    w = (ScalarSeries.one(CAPS) - ScalarSeries.term(CAPS, -1, 1, 1).exp()).shift(0, -1)
    return {
        "a": [[one(), zero], [zero, zero]],
        "b": [[zero, zero], [zero, series_eps(-1)]],
        "x": [[zero, one()], [zero, zero]],
        "y": [[zero, zero], [w, zero]],
    }


def rho_dim1():
    return {
        "a": [[one()]],
        "b": [[series_eps(-1)]],
        "x": [[ScalarSeries.zero(CAPS)]],
        "y": [[ScalarSeries.zero(CAPS)]],
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
        assert matrix_eq(commut_a, [[rho[name][r][c] * factor for c in range(2)] for r in range(2)])


def test_trivial_decomposition_contracts_endpoints():
    rep = derive_rep(CAPS, rho_dim2())
    ev = EndpointVectors([one(2), one(3)], [one(5), one(7)])
    value = rt_evaluate(TRIVIAL_DECOMP, rep, ev)
    assert value == one(2 * 5 + 3 * 7)


def test_dim1_monomial_formula():
    r = ScalarSeries.one(CAPS) + ScalarSeries.hbar(CAPS)
    t = ScalarSeries.one(CAPS) + ScalarSeries.term(CAPS, 1, 1, 1)
    rep = RepData(1, [[r]], [[t]], [[t.invert()]])
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
        (lambda: RepData(0, [], [], []), DimensionMismatch),
        (lambda: RepData(1, [[ScalarSeries.one(Caps(1, 2))]], [[one()]], [[one()]]), CapsMismatch),
        (
            lambda: rt_evaluate(EXAMPLE, derive_rep(CAPS, rho_dim2()), EndpointVectors([one()], [one(), one()])),
            DimensionMismatch,
        ),
        (
            lambda: rt_evaluate(EXAMPLE, derive_rep(CAPS, rho_dim2()), EndpointVectors([one(), one()], [one()] * 3)),
            DimensionMismatch,
        ),
    ],
    ids=["dim-0", "mixed-caps", "short-eta", "long-eps"],
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
    return RepData(2, R, h, matrix_inverse(h))


@settings(max_examples=30, deadline=None)
@given(d=small_decomposition_st(), eta=_VECTOR_ST, eps_=_VECTOR_ST)
def test_state_sum_matches_brute_force(d, eta, eps_):
    rep = _generic_rep()
    ev = EndpointVectors(
        [ScalarSeries.term(rep.caps, v) for v in eta],
        [ScalarSeries.term(rep.caps, v) for v in eps_],
    )
    assert rt_evaluate(d, rep, ev) == brute_force_state_sum(d, rep, ev)


def test_recovery_fails_with_corrupted_rotation_weight():
    rho = rho_dim2()
    rep = derive_rep(CAPS, rho)
    bad_h = matrix_mul(rep.h, rep.h)
    bad_h_inv = matrix_mul(rep.h_inv, rep.h_inv)
    corrupted = RepData(rep.dim, rep.R, bad_h, bad_h_inv)
    ev = EndpointVectors([one(1), one(2)], [one(3), one(4)])
    result = recovery_check(EXAMPLE, corrupted, rho, ev)
    assert not result.passed
    assert "state sum" in result.details


def test_matrix_inverse_round_trip():
    rep = derive_rep(CAPS, rho_dim2())
    prod = matrix_mul(rep.R, rep.r_inverse())
    assert matrix_eq(prod, matrix_identity(CAPS, rep.dim * rep.dim))


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
        assert matrix_eq(matrix_mul(A, inverse), identity)
        assert matrix_eq(matrix_mul(inverse, A), identity)
    else:
        with pytest.raises(NotInvertible):
            matrix_inverse(A)


def test_rep_data_validation():
    r = [[one()]]
    t = ScalarSeries.one(CAPS) + ScalarSeries.hbar(CAPS)
    with pytest.raises(DimensionMismatch):
        RepData(1, r, [[t]], [[t]])  # h * h_inv != 1
    with pytest.raises(DimensionMismatch):
        RepData(2, r, [[one()]], [[one()]])


def test_rep_data_rejects_ragged_rotation_matrices():
    R = matrix_identity(CAPS, 4)
    square = matrix_identity(CAPS, 2)
    ragged = [[one()], [one()]]
    first_column = [[one()], [one(0)]]
    for h, h_inv in ((ragged, ragged), (ragged, square), (square, first_column)):
        with pytest.raises(DimensionMismatch):
            RepData(2, R, h, h_inv)
    with pytest.raises(DimensionMismatch):
        matrix_inverse(ragged)


def test_rep_json_empty_h_without_inverse_is_a_dimension_mismatch():
    # a caller with h but no h_inv inverts h before building RepData
    with pytest.raises(DimensionMismatch):
        matrix_inverse([])


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

"""The key reducer of ``zmean``: the two identities of the algebra it
rests on, and the value it keeps.

Write ``rho*(s, f) = -s if f else s`` for a crossing of sign s whose first
pass is its over-pass iff f.  A curl is a crossing whose two passes are
next to each other along the strand, rho its net rotation in between; its
segment element is the sum over the terms of R^s of the second pass's
factor times ``rot^rho`` times the first pass's factor.  A bigon is two
crossings of opposite signs and equal f whose opens are next to each other,
tA the rotation between them, and whose closes are next to each other, tB
the rotation between them.  ``invariant._reduce_key`` reads a walk's
``(code, rho, r)`` key, where these are rho_1 = tA + M and rho_2 = M + tB
in opening order, rho_1 = tA + M + tB and rho_2 = M in reverse order.  It
deletes a curl when rho = rho*, and a bigon when its closes come in opening
order with rho_1 = rho_2 (tA = tB) or in reverse order with rho_1 - rho_2 =
rho* of the first open (tA + tB = rho*).  The oracles below build the
elements from R, R^-1 and the rotation elements alone, with no walk, and pin
that these are exactly the rotations on a grid where the identities hold.
"""

from functools import cache
from itertools import product

import pytest
from hypothesis import example, given, settings

from knotoidal.algebra import DElement, DTensor, r_inverse, r_matrix, rotation_element
from knotoidal.diagram import RotDecomp, insert_r2_pair, parse_decomposition
from knotoidal.errors import DegenerateDirection
from knotoidal.invariant import _evaluate_key, _reduce_key, evaluate_Z
from knotoidal.measure import sample_direction
from knotoidal.series import Caps, _smul

from decomp_strategies import small_decomposition_st
from invariant_reference import reference_walk, reference_walk_key
from measure_reference import reference_decomposition
from test_measure import _walk
from test_z_digests import _trefoil_walks

GRID = range(-2, 3)
BIGON_CAPS = Caps(1, 2)
WALK_CAPS = [Caps(1, 2), Caps(2, 2)]
KINDS = list(product((1, -1), (True, False)))


def _star(s: int, f: bool) -> int:
    return -s if f else s


def _rot(t: int, caps: Caps) -> DElement:
    out = DElement.unit(caps)
    for _ in range(abs(t)):
        out = out * rotation_element(1 if t > 0 else -1, caps)
    return out


@cache
def _factors(s: int, f: bool, caps: Caps) -> list:
    """``(first, second)`` per term of R^s: the factors its first and its
    second pass deposit, the scalar on the first."""
    tensor = r_matrix(caps) if s > 0 else r_inverse(caps)
    out = []
    for (over, under), sd in tensor.raw().items():
        first, second = (over, under) if f else (under, over)
        out.append((DElement(caps, {first: sd}), DElement(caps, {second: {(0, 0): 1}})))
    return out


def _curl(s: int, f: bool, rho: int, caps: Caps) -> DElement:
    rot, out = _rot(rho, caps), DElement.zero(caps)
    for first, second in _factors(s, f, caps):
        out = out + second * rot * first
    return out


def _central(u: DElement, caps: Caps) -> bool:
    gens = [DElement.generator(caps, name) for name in "ybax"]
    return all(u * g == g * u for g in gens)


def _tensor(u: DElement, v: DElement) -> DTensor:
    caps = u.caps
    return DTensor(caps, {
        (m, n): _smul(su, sv, caps.eps_order, caps.hbar_order)
        for m, su in u.raw().items()
        for n, sv in v.raw().items()
    })


@cache
def _bigon_is_rotations(s: int, f: bool, in_order: bool, tA: int, tB: int) -> bool:
    """Whether the four deposits of a bigon whose first open has sign s are
    ``rot^tA (x) rot^tB``: the opens deposit ``N2 rot^tA N1``, the closes
    ``P2 rot^tB P1`` in opening order and ``P1 rot^tB P2`` in reverse."""
    caps = BIGON_CAPS
    ra, rb = _rot(tA, caps), _rot(tB, caps)
    out = DTensor(caps)
    for n1, p1 in _factors(s, f, caps):
        for n2, p2 in _factors(-s, f, caps):
            out = out + _tensor(n2 * ra * n1, p2 * rb * p1 if in_order else p1 * rb * p2)
    return out == _tensor(ra, rb)


def _bigon_walk(s: int, f: bool, in_order: bool, tA: int, tB: int, second: int | None = None) -> tuple:
    """Two opens with tA between them, then their closes with tB between
    them; the second open has sign ``second``, -s if None."""
    second = -s if second is None else second
    rot = lambda t: [("rot", 1 if t > 0 else -1)] * abs(t)
    closes = [("close", 0)] + rot(tB) + [("close", 0)] if in_order else [("close", 1)] + rot(tB) + [("close", 0)]
    return tuple([("open", s, f)] + rot(tA) + [("open", second, f)] + closes)


def _reduced(walk: tuple) -> tuple:
    return _reduce_key(reference_walk_key(walk))


def _opens(skeleton: tuple) -> int:
    return sum(step[0] == "open" for step in skeleton)


# -- the curl rule --------------------------------------------------------------

@pytest.mark.parametrize("caps", [Caps(1, 3), Caps(2, 2)], ids=str)
def test_a_curl_is_central_only_at_its_planar_rotation(caps):
    for s, f in KINDS:
        assert [rho for rho in GRID if _central(_curl(s, f, rho, caps), caps)] == [_star(s, f)], (s, f)


@pytest.mark.parametrize("caps", [Caps(1, 3), Caps(2, 2)], ids=str)
def test_a_curl_has_one_value_per_sign_and_the_two_are_inverse(caps):
    plus, minus = (_curl(s, True, _star(s, True), caps) for s in (1, -1))
    assert _curl(1, False, _star(1, False), caps) == plus
    assert _curl(-1, False, _star(-1, False), caps) == minus
    assert plus * minus == DElement.unit(caps) == minus * plus


def test_the_reducer_deletes_exactly_the_central_curls():
    for (s, f), rho in product(KINDS, GRID):
        walk = (("open", s, f),) + (("rot", 1 if rho > 0 else -1),) * abs(rho) + (("close", 0),)
        removed = rho == _star(s, f)
        canonical = (("open", s, True), ("rot", -s), ("close", 0))
        assert _reduced(walk) == reference_walk_key(canonical if removed else walk), (s, f, rho)


def test_a_curl_inside_a_span_takes_rho_star_off_the_span_and_r():
    # R+ 4 2 is a curl (s, f) = (+1, False), rho* = +1, inside the span of
    # R+ 1 5; both crossings and r have rho = 1 before.  Deleting the curl
    # takes rho* off the enclosing crossing and off r, and the canonical
    # curl at the front has rho = -1 and adds -1 to r
    d = parse_decomposition("labels 5; R+ 1 5; R+ 4 2; C+ 3")
    key = reference_walk_key(reference_walk(d))
    assert key == ((("open", 1, True), ("open", 1, False), ("close", 1), ("close", 0)), (1, 1), 1)
    assert _reduce_key(key) == ((("open", 1, True), ("close", 0), ("open", 1, True), ("close", 0)), (-1, 0), -1)


# -- the bigon rule -------------------------------------------------------------

@pytest.mark.parametrize("s, f", KINDS)
@pytest.mark.parametrize("in_order", [True, False], ids=["in_order", "reversed"])
def test_a_bigon_is_its_rotations_exactly_on_the_two_conditions(s, f, in_order):
    holds = [(tA, tB) for tA, tB in product(GRID, GRID) if _bigon_is_rotations(s, f, in_order, tA, tB)]
    want = [(tA, tB) for tA, tB in product(GRID, GRID) if (tA == tB if in_order else tA + tB == _star(s, f))]
    assert holds == want


@pytest.mark.parametrize("s, f", KINDS)
@pytest.mark.parametrize("in_order", [True, False], ids=["in_order", "reversed"])
def test_the_reducer_deletes_exactly_the_bigons_that_are_rotations(s, f, in_order):
    for tA, tB in product(GRID, GRID):
        walk = _bigon_walk(s, f, in_order, tA, tB)
        rotations = (("rot", 1 if tA + tB > 0 else -1),) * abs(tA + tB)
        want = rotations if _bigon_is_rotations(s, f, in_order, tA, tB) else walk
        assert _reduced(walk) == reference_walk_key(want), (tA, tB)


@pytest.mark.parametrize("s, f", KINDS)
def test_the_reducer_keeps_bigons_of_one_sign_or_of_mixed_passes(s, f):
    for in_order, tA, tB in product((True, False), GRID, GRID):
        same_sign = _bigon_walk(s, f, in_order, tA, tB, second=s)
        assert _reduced(same_sign) == reference_walk_key(same_sign)
        mixed = list(_bigon_walk(s, f, in_order, tA, tB))
        at = mixed.index(("open", -s, f))
        mixed[at] = ("open", -s, not f)
        assert _opens(_reduced(tuple(mixed))[0]) == 2


# -- the reduced key keeps the value --------------------------------------------

def _assert_reduced_value(d: RotDecomp) -> tuple:
    key = reference_walk_key(reference_walk(d))
    reduced = _reduce_key(key)
    assert _reduce_key(reduced) == reduced
    assert _opens(reduced[0]) <= _opens(key[0])
    for caps in WALK_CAPS:
        assert evaluate_Z(d, caps).element == _evaluate_key(reduced, caps), caps
    return reduced


@settings(max_examples=80, deadline=None)
@given(small_decomposition_st(max_slots=12))
# a curl inside another crossing's span, with rho* = +1
@example(parse_decomposition("labels 5; R+ 1 5; R+ 4 2; C+ 3"))
# bigons in opening order (tA = tB = 1) and in reverse (tA + tB = rho* = -1)
@example(parse_decomposition("labels 7; R+ 1 5; R- 3 7; C+ 2; C+ 6; C- 4"))
@example(parse_decomposition("labels 5; R+ 1 5; R- 3 4; C- 2"))
def test_reducing_keeps_the_value(d):
    _assert_reduced_value(d)


def test_reducing_keeps_the_value_of_each_trefoil_walk():
    walks = _trefoil_walks()
    keys = {_assert_reduced_value(d) for d in walks}
    assert (len(walks), len(keys)) == (126, 49)


@pytest.mark.parametrize("points", [24, 36, 48])
def test_reducing_keeps_the_value_of_random_walk_projections(points):
    curve, kept, removed = _walk(points, 1, False), 0, 0
    for i in range(6):
        try:
            d = reference_decomposition(curve, sample_direction(0, i), 1e-9)[1]
        except DegenerateDirection:
            continue
        removed += _opens(d.walk()) - _opens(_assert_reduced_value(d)[0])
        kept += 1
    assert kept >= 3 and removed > 0


def test_inserted_bigons_are_deleted():
    d = parse_decomposition("labels 5; R- 1 4; R+ 3 5; C+ 2")
    key = _reduced(d.walk())
    for sign in (1, -1):
        for first, second in [(1, 3), (2, 5), (1, 5)]:
            assert _reduced(insert_r2_pair(d, first, second, sign).walk()) == key

import ast
import hashlib
import inspect
import math
import os
import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations, product
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotoidal.diagram import (
    Crossing,
    OrientedGaussCode,
    RotDecomp,
    Rotation,
    fixtures,
    parse_gauss_code,
    reverse_code,
    walk_key,
    writhe,
)
from knotoidal.errors import (
    AllSamplesDegenerate,
    ArcOutOfRange,
    DegenerateDirection,
    DuplicateConsecutivePoint,
    EmptyEstimate,
    InvalidArgument,
    ParseError,
    TooFewPoints,
)
from knotoidal.measure import (
    MeasureEstimate,
    OpenCurve3D,
    TRIVIAL_CLASS,
    ZMEAN_CAPS,
    _check_triple_points,
    _estimate_with_directions,
    _plane_basis,
    builtin_curve_path,
    class_label,
    dominant_knotoid,
    estimate_measure,
    knot_to_knotoid,
    load_curve,
    project,
    sample_direction,
    sample_directions,
    simplify_gauss,
)
from knotoidal.series import Caps
from bracket_reference import normalized_bracket
from cells_reference import Cells
from decomp_strategies import small_decomposition_st
from invariant_reference import marked_passes, reference_walk, reference_walk_key
from measure_reference import (
    all_pairs_triple_points,
    perturbed,
    reference_decomposition,
    reference_plane_basis,
    reference_project,
    reference_simplify_gauss,
    reference_zmean_mean,
)

TOL = 1e-9


@pytest.fixture(scope="module")
def trefoil():
    return load_curve(builtin_curve_path("open_trefoil"))


# -- loading -------------------------------------------------------------------

def test_load_builtin_curve(trefoil):
    assert len(trefoil.points) == 32


def test_unknown_builtin_curve_names_the_bundled_ones():
    with pytest.raises(InvalidArgument, match="open_trefoil"):
        builtin_curve_path("open_trefoil_")


def test_load_two_point_file(tmp_path):
    path = tmp_path / "segment.xyz"
    path.write_text("0 0 0\n1.5 -2 0.25\n")
    curve = load_curve(path)
    assert len(curve.points) == 2


def test_load_rejects_repeated_point(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("0 0 0\n0 0 0\n1 1 1\n")
    with pytest.raises(DuplicateConsecutivePoint):
        load_curve(path)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("0 0\n")
    with pytest.raises(ParseError):
        load_curve(path)
    path.write_text("0 0 zebra\n1 1 1\n")
    with pytest.raises(ParseError):
        load_curve(path)


def test_too_few_points():
    with pytest.raises(TooFewPoints):
        OpenCurve3D(((0.0, 0.0, 0.0),))


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN"])
def test_load_rejects_non_finite(tmp_path, text):
    path = tmp_path / "bad.xyz"
    path.write_text(f"0 0 0\n1 {text} 2\n3 3 3\n")
    with pytest.raises(ParseError, match="point 1 has a non-finite coordinate"):
        load_curve(path)


def test_curve_rejects_non_finite():
    # a point that is not three reals used to build and then fail in
    # estimate_measure with a bare ValueError, or in the check with a TypeError
    for bad in ((1.0, 1.0, float("inf")), (1.0, 1.0), (1.0, 1.0, 2.0, 3.0), (1.0, "1", 2.0), 7):
        with pytest.raises(ParseError):
            OpenCurve3D(((0.0, 0.0, 0.0), bad, (2.0, 0.0, 0.0)))


# -- projection ----------------------------------------------------------------

def test_straight_segment_projects_trivially():
    segment = OpenCurve3D(((0.0, 0.0, 0.0), (1.0, 2.0, 3.0)))
    direction = sample_direction(7, 0)
    result = project(segment, direction, TOL)
    assert result.code.is_empty()
    assert result.key == ((), (), 0)


def test_planar_simple_arc_has_no_crossings():
    pts = [(math.cos(t), math.sin(t), 0.0) for t in
           [0.3 * k for k in range(12)]]
    arc = OpenCurve3D(tuple(pts))
    result = project(arc, (0.0, 0.0, 1.0), TOL)
    assert result.code.is_empty()


def test_trefoil_axis_projection(trefoil):
    result = project(trefoil, (0.0, 0.0, 1.0), TOL)
    assert len(result.code) == 3
    assert class_label(result.code) != TRIVIAL_CLASS
    assert writhe(result.code) == -3


def test_some_direction_gives_trivial_class(trefoil):
    labels = set()
    for i in range(60):
        try:
            labels.add(class_label(project(trefoil, sample_direction(0, i), TOL).code))
        except DegenerateDirection:
            pass
    assert TRIVIAL_CLASS in labels
    assert len(labels) > 1


def test_framing_equals_writhe_on_samples(trefoil):
    for i in range(25):
        try:
            result = project(trefoil, sample_direction(3, i), TOL)
        except DegenerateDirection:
            continue
        opens = [step for step in result.key[0] if step[0] == "open"]
        assert sum(sign for _, sign, _ in opens) == writhe(result.code)


def test_projection_translation_invariant(trefoil):
    moved = OpenCurve3D(tuple((x + 13.5, y - 7.25, z + 2.0) for x, y, z in trefoil.points))
    for i in range(15):
        direction = sample_direction(5, i)
        try:
            a = project(trefoil, direction, TOL)
            b = project(moved, direction, TOL)
        except DegenerateDirection:
            continue
        assert a.code == b.code
        assert a.key == b.key


def test_unit_vector_required(trefoil):
    with pytest.raises(ValueError):
        project(trefoil, (0.0, 0.0, 0.5), TOL)


def test_degenerate_overlap_rejected():
    # the vertical middle segment is rejected first, as parallel to the view
    # direction; test_degenerate_reason has a true overlap
    folded = OpenCurve3D(
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 1.0), (0.0, 0.0, 1.0))
    )
    with pytest.raises(DegenerateDirection):
        project(folded, (0.0, 0.0, 1.0), TOL)


def test_degenerate_endpoint_grazing_rejected():
    # the last segment crosses the first at its start vertex, which is
    # rejected before the endpoint check; test_degenerate_reason has a true
    # grazing
    grazing = OpenCurve3D(
        ((0.0, 0.0, 0.0), (3.0, 0.0, 1.0), (3.0, 3.0, 1.0), (-3.0, -3.0, 1.0))
    )
    with pytest.raises(DegenerateDirection):
        project(grazing, (0.0, 0.0, 1.0), TOL)


# One constructed curve per rejection reason, viewed along +z with TOL.
_FOLD = 1e-7  # below the angle guard ANGLE_GUARD (about 1e-6 radians), above TOL
DEGENERATE_CURVES = [
    ("segment parallel to view direction", ((0, 0, 0), (0, 0, 1), (1, 0, 1))),
    (
        "near-parallel segment overlap",
        ((0, 0, 0), (2, 0, 0), (3, 1, 1), (3, 0, 1), (1, 0, 1)),
    ),
    (
        "crossing within tol of a vertex",
        ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, -1, 1), (2, 1, 1)),
    ),
    ("depth tie at crossing", ((0, 0, 0), (2, 0, 0), (2, 2, 0), (1, -1, 0))),
    (
        "two crossings within tol (triple point)",
        ((-2, 0, 0), (1, 0, 0), (1, 1, 1), (-1, -1, 1), (-1, 1, 2), (1, -1, 2)),
    ),
    (
        # the leg sits half a tol above the last segment, and the first
        # segment leaves it at too shallow an angle to cross near its vertex
        "endpoint within tol of a strand",
        ((0, 5e-10, 0), (1, 0.1 + 5e-10, 0), (1, 2, 1), (-1, 2, 1), (-1, 0, 1), (2, 0, 1)),
    ),
    (
        "projection folds back (cusp)",
        ((0, 0, 0), (1, 0, 0), (1 - 0.5 * math.cos(_FOLD), 0.5 * math.sin(_FOLD), 1)),
    ),
    # the projected segment points straight down: half a turn from upward
    ("turning ambiguous at half rotation", ((0, 0, 0), (-1, 0, 0))),
]


def _reason_along_z(points) -> str:
    curve = OpenCurve3D(tuple(tuple(float(c) for c in p) for p in points))
    with pytest.raises(DegenerateDirection) as exc:
        project(curve, (0.0, 0.0, 1.0), TOL)
    return exc.value.reason


@pytest.mark.parametrize("reason, points", DEGENERATE_CURVES, ids=[r for r, _ in DEGENERATE_CURVES])
def test_degenerate_reason(reason, points):
    assert _reason_along_z(points) == reason


def test_two_crossings_within_tol_are_a_triple_point():
    # test_degenerate_reason's triple point has three crossings; here the
    # strands through the two crossings on the leg's segment, half a tol
    # apart, meet at a vertex 1e-4 above it, so there are only two
    assert _reason_along_z(
        ((-1, 0, 0), (1, 0, 0), (1, -2, 1), (0, -2, 1), (0, 1e-4, 1), (5e-6, -1, 1))
    ) == "two crossings within tol (triple point)"


def test_head_grazing_is_checked_after_the_legs_scan_stops():
    # the head grazes the first segment, as the leg grazes the last one in
    # test_degenerate_reason; the leg lies left of every other segment's box
    # in the projection plane, whose first axis is -y along +z, so its scan
    # of the sorted boxes stops at the second box
    assert _reason_along_z(
        ((0, 2, 1), (0, -1, 1), (2, -1, 1), (2, 1, 1), (0.1 + 5e-10, 1, 0), (5e-10, 0, 0))
    ) == "endpoint within tol of a strand"


def _bits(basis) -> list[str]:
    """Every coordinate of a basis in hex, which tells -0.0 from 0.0."""
    return [c.hex() for e in basis for c in e]


def _tie_directions():
    """Unit vectors on every tie of ``_plane_basis``'s axis choice: the
    axes, two or three equal magnitudes, in every order, with every sign,
    zeros as 0.0 and -0.0."""
    half, third = math.sqrt(0.5), math.sqrt(1.0 / 3.0)
    for magnitudes in ((1.0, 0.0, 0.0), (half, half, 0.0), (third, third, third), (0.6, 0.6, math.sqrt(0.28))):
        for ordered in set(permutations(magnitudes)):
            for signs in product((1.0, -1.0), repeat=3):
                yield tuple(s * m for s, m in zip(signs, ordered))


def test_plane_basis_is_the_reference_on_ties():
    directions = list(_tie_directions())
    assert len(directions) == 8 * (3 + 3 + 1 + 3)
    for v in directions:
        assert _bits(_plane_basis(v)) == _bits(reference_plane_basis(v)), v


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(*[st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 0.5, -0.5])) for _ in range(3)]),
    st.integers(0, 2**16),
)
def test_plane_basis_is_the_reference_on_unit_vectors(raw, index):
    norm = math.sqrt(sum(c * c for c in raw))
    for v in (sample_direction(index, index), tuple(c / norm for c in raw) if norm > 0.0 else (0.0, 0.0, 1.0)):
        assert _bits(_plane_basis(v)) == _bits(reference_plane_basis(v)), v


# -- oracles: the all-pairs searches and the rescanning simplifier ---------------

def _walk(points: int, seed: int, long_step: bool) -> OpenCurve3D:
    """Unit-step random walk; with ``long_step`` one step is 40 units long."""
    rng = random.Random(seed)
    long_at = rng.randrange(points - 1) if long_step else -1
    out = [(0.0, 0.0, 0.0)]
    for step in range(points - 1):
        dz = rng.uniform(-1.0, 1.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        r = math.sqrt(1.0 - dz * dz)
        size = 40.0 if step == long_at else 1.0
        x, y, z = out[-1]
        out.append((x + size * r * math.cos(theta), y + size * r * math.sin(theta), z + size * dz))
    return OpenCurve3D(tuple(out))


def _lattice_walk(points: int, seed: int) -> OpenCurve3D:
    """Walk of unit steps along the axes: most views of it are degenerate,
    for one reason or another."""
    rng = random.Random(seed)
    steps = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    out = [(0.0, 0.0, 0.0)]
    for _ in range(points - 1):
        x, y, z = out[-1]
        dx, dy, dz = rng.choice(steps)
        out.append((x + dx, y + dy, z + dz))
    return OpenCurve3D(tuple(out))


def _project_or_reason(fn, curve, direction, tol=TOL):
    try:
        return fn(curve, direction, tol)
    except DegenerateDirection as exc:
        return exc.reason


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 128),
    st.integers(0, 2**32),
    st.booleans(),
    st.integers(0, 2**16),
)
def test_project_matches_all_pairs(points, seed, long_step, direction_index):
    curve = _walk(points, seed, long_step)
    direction = sample_direction(seed, direction_index)
    assert _project_or_reason(project, curve, direction) == _project_or_reason(
        reference_project, curve, direction
    )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 64),
    st.integers(0, 2**32),
    st.sampled_from([(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1e-7, 0.0, 1.0), (0.6, 0.0, 0.8), (1.0, 2.0, 3.0)]),
)
def test_project_matches_all_pairs_on_lattice_walks(points, seed, direction):
    curve = _lattice_walk(points, seed)
    norm = math.sqrt(sum(c * c for c in direction))
    direction = tuple(c / norm for c in direction)
    assert _project_or_reason(project, curve, direction) == _project_or_reason(
        reference_project, curve, direction
    )


@settings(max_examples=120, deadline=None)
@given(
    st.integers(4, 40),
    st.integers(0, 2**32),
    st.sampled_from([1e-9, 1e-3]),
    st.booleans(),
    st.floats(0.5, 3.0),
    st.one_of(
        st.tuples(st.floats(0.0, 1.0), st.just(0.0)),
        st.tuples(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.5)),
    ),
    st.sampled_from([1.0, -1.0]),
    st.data(),
)
def test_project_matches_all_segments_on_grazing_endpoints(
    points, seed, tol, head, gap, place, side, data
):
    # The leg or the head moved to gap * tol from another segment's
    # projection, so that the endpoint check decides on both sides of tol:
    # beside the segment along its normal, or beyond one of its ends, tilted
    # outward from the normal by up to 1.5 radians, so that the endpoint
    # also lies outside the segment's box.
    curve = _walk(points, seed, False)
    direction = sample_direction(seed, 0)
    e1, e2 = _plane_basis(direction)
    pts = list(curve.points)
    seg = data.draw(st.integers(0, points - 3) if head else st.integers(1, points - 2))
    a, b = pts[seg], pts[seg + 1]
    u0, u1 = (sum((q - p) * e for q, p, e in zip(b, a, axis)) for axis in (e1, e2))
    length = math.hypot(u0, u1)
    if length == 0.0:
        return
    along, tilt = place
    normal = [side * (u0 * e2[k] - u1 * e1[k]) / length for k in range(3)]
    outward = [(1.0 if along else -1.0) * (u0 * e1[k] + u1 * e2[k]) / length for k in range(3)]
    offset = [math.cos(tilt) * n + math.sin(tilt) * o for n, o in zip(normal, outward)]
    pts[-1 if head else 0] = tuple(
        p + along * (q - p) + gap * tol * w + 0.5 * v
        for p, q, w, v in zip(a, b, offset, direction)
    )
    try:
        curve = OpenCurve3D(tuple(pts))
    except DuplicateConsecutivePoint:
        return
    assert _project_or_reason(project, curve, direction, tol) == _project_or_reason(
        reference_project, curve, direction, tol
    )


def test_project_matches_all_pairs_on_trefoil(trefoil):
    for i in range(40):
        direction = sample_direction(11, i)
        assert _project_or_reason(project, trefoil, direction) == _project_or_reason(
            reference_project, trefoil, direction
        )


def _raises_degenerate(check, points) -> bool:
    try:
        check(points, TOL)
    except DegenerateDirection:
        return True
    return False


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 3),
            st.floats(-2 * TOL, 2 * TOL),
            st.floats(-2 * TOL, 2 * TOL),
        ),
        max_size=12,
    )
)
def test_triple_point_sweep_matches_all_pairs(raw):
    # crossing points clustered on a coarse grid, some pairs about tol apart
    points = [(x + dx, y + dy) for x, y, dx, dy in raw]
    assert _raises_degenerate(_check_triple_points, points) == _raises_degenerate(
        all_pairs_triple_points, points
    )


@st.composite
def gauss_code_st(draw):
    crossings = draw(st.integers(0, 40))
    order = draw(st.permutations([c for c in range(1, crossings + 1) for _ in range(2)]))
    first_over = draw(st.lists(st.booleans(), min_size=crossings, max_size=crossings))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=crossings, max_size=crossings))
    seen = set()
    passes = []
    for cid in order:
        over = first_over[cid - 1] != (cid in seen)
        seen.add(cid)
        passes.append((cid, "over" if over else "under"))
    return OrientedGaussCode(passes, {cid: signs[cid - 1] for cid in range(1, crossings + 1)})


@settings(max_examples=150, deadline=None)
@given(gauss_code_st())
def test_simplify_matches_rescanning_reference(code):
    assert simplify_gauss(code) == reference_simplify_gauss(code)


@pytest.mark.parametrize("points", [64, 128, 256])
def test_simplify_matches_rescanning_reference_on_projected_walks(points):
    """Random permutation codes seldom hold an opposite-sign pair that meets
    twice; projected walks hold many, and kinks, so these codes exercise
    both kinds of junction that seed the simplifier's heap."""
    checked, removed = 0, 0
    for seed in (1, 2):
        curve = _walk(points, seed, False)
        for i in range(10):
            try:
                code = project(curve, sample_direction(seed, i), TOL).code
            except DegenerateDirection:
                continue
            simplified = simplify_gauss(code)
            assert simplified == reference_simplify_gauss(code), (seed, i)
            checked += 1
            removed += len(code) - len(simplified)
    assert checked >= 15 and removed >= 2 * points


# -- label assembly ---------------------------------------------------------------

def test_fixture_decompositions_read_their_codes_orientation():
    """Only 5_7's decomposition reads its pair's tabulated code; the other
    five read the code reversed."""
    for name, (code, decomp) in fixtures().items():
        expected = code if name == "5_7" else reverse_code(code).relabeled()
        assert decomp.gauss_code() == expected, name


def _accepted_references(curve, seed, n):
    """``(projection, decomposition)`` of ``reference_decomposition`` at each
    accepted direction of ``n``."""
    for i in range(n):
        try:
            yield reference_decomposition(curve, sample_direction(seed, i), TOL)
        except DegenerateDirection:
            continue


@pytest.mark.parametrize(
    "points, directions",
    [(None, 40), (32, 40), (128, 16), (512, 4)],
    ids=["trefoil", "walk32", "walk128", "walk512"],
)
def test_projected_key_is_the_reference_walk_key(trefoil, points, directions):
    """On the trefoil (``points`` None) and on random walks, the key that
    ``project`` returns is the walk key of the decomposition rebuilt from
    its turn marks, which reads back the projection's code."""
    curve = trefoil if points is None else _walk(points, 4, False)
    checked, turned, rhos = 0, 0, 0
    for proj, decomp in _accepted_references(curve, 2, directions):
        assert proj.key == reference_walk_key(reference_walk(decomp))
        assert decomp.gauss_code() == proj.code
        checked += 1
        turned += proj.key[2] != 0
        rhos += any(proj.key[1])
    # nonzero net rotations, so that a sign slip in rho or r would show
    assert checked >= directions // 2 and turned and rhos


@pytest.mark.parametrize("points", [None, 32, 128], ids=["trefoil", "walk32", "walk128"])
def test_walk_key_reads_back_projected_keys_marked_zero_and_rho(trefoil, points):
    """Each projected key, decoded into passes marked 0 at each crossing's
    first pass and rho at its second, is what ``walk_key`` makes of them."""
    curve = trefoil if points is None else _walk(points, 1, False)
    checked, rhos = 0, 0
    for i in range(40):
        try:
            key = project(curve, sample_direction(0, i), TOL).key
        except DegenerateDirection:
            continue
        assert walk_key(marked_passes(key), key[2]) == key
        checked += 1
        rhos += any(key[1])
    assert checked >= 20 and rhos


def test_project_snaps_only_inside_turns():
    # every rho and r comes from the one turn rule, turns(start, end); a
    # snap anywhere else in project would be a second copy of that rule
    callers, stack = [], [("project", ast.parse(inspect.getsource(project)).body[0])]
    while stack:
        scope, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            inner = f"{scope}.{child.name}" if isinstance(child, ast.FunctionDef) else scope
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "snap":
                callers.append(scope)
            stack.append((inner, child))
    assert callers == ["project.turns", "project.turns"]


# -- the trusted constructors -----------------------------------------------------

@contextmanager
def _trusted_builds():
    """Record every code built through ``_trusted=True``."""
    built, init = [], OrientedGaussCode.__init__

    def __init__(self, *args, _trusted=False):
        init(self, *args, _trusted=_trusted)
        if _trusted:
            built.append(self)

    OrientedGaussCode.__init__ = __init__
    try:
        yield built
    finally:
        OrientedGaussCode.__init__ = init


def _field_types(code) -> tuple:
    return (
        type(code.passes),
        [(type(p), *map(type, p)) for p in code.passes],
        type(code.signs),
        [(type(c), type(sign)) for c, sign in code.signs.items()],
    )


def _assert_rebuild_through_public_constructors(built) -> None:
    """Each trusted code equals its rebuild by the checking constructor,
    with the same hash and the same field types."""
    for code in built:
        again = OrientedGaussCode(code.passes, code.signs)
        assert again == code and hash(again) == hash(code), code
        assert _field_types(again) == _field_types(code), code


@pytest.mark.parametrize("points, directions", [(None, 300), (128, 24), (512, 6)])
def test_trusted_projections_pass_the_public_checks(trefoil, points, directions):
    """On the trefoil (``points`` None) and on random walks."""
    curve = trefoil if points is None else _walk(points, 7, False)
    accepted = 0
    with _trusted_builds() as built:
        for proj, decomp in _accepted_references(curve, 5, directions):
            assert decomp.gauss_code() == proj.code
            class_label(proj.code)
            accepted += 1
    assert accepted >= directions // 2
    assert {type(obj) for obj in built} == {OrientedGaussCode}
    _assert_rebuild_through_public_constructors(built)


@settings(max_examples=100, deadline=None)
@given(gauss_code_st())
def test_trusted_simplification_passes_the_public_checks(code):
    with _trusted_builds() as built:
        simplify_gauss(code)
    assert len(built) == 2  # the remaining passes, then their relabeling
    _assert_rebuild_through_public_constructors(built)


def _projection_digest(curve, directions) -> str:
    """sha256 over each projection's code and decomposition, or over its
    rejection reason.  The decomposition is the one ``project`` built
    before it returned a key, and the key must be its walk key."""
    lines = []
    for direction in directions:
        try:
            proj, decomp = reference_decomposition(curve, direction, TOL)
        except DegenerateDirection as exc:
            lines.append(f"rejected: {exc.reason}")
            continue
        assert proj.key == reference_walk_key(reference_walk(decomp))
        decomp = decomp.render().replace("\n", "; ")
        lines.append(f"{proj.code.render()} | {decomp}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# they pin the rotation-token labels, which the all-pairs oracle shares with
# project and so cannot check
PROJECT_DIGESTS = {
    "trefoil": "7e97312665743e85b8d8d5ba51f8fff196a4bfcf32fe5fafd9113d64630f8be3",
    "walk128": "ba2e3bd772111c93eac691a73b0433b02af89eb05e9d09d705a0c71148f79cad",
}


def test_project_output_pinned(trefoil):
    directions = sample_directions(0, 200)
    assert _projection_digest(trefoil, directions) == PROJECT_DIGESTS["trefoil"]
    walk = _walk(128, 4, False)
    assert _projection_digest(walk, directions) == PROJECT_DIGESTS["walk128"]


# -- simplification --------------------------------------------------------------

def test_simplify_single_kink():
    assert simplify_gauss(parse_gauss_code("-1 1 -")).is_empty()


def test_simplify_empty():
    assert simplify_gauss(parse_gauss_code("")).is_empty()


def test_simplify_bigon():
    assert simplify_gauss(parse_gauss_code("1 2 -1 -2 + -")).is_empty()


def test_simplify_keeps_trefoil():
    code = parse_gauss_code("1 -2 3 -1 2 -3 - - -")
    assert simplify_gauss(code) == code


def test_simplify_never_grows():
    code = parse_gauss_code("-1 1 2 -3 -2 3 - + -")
    out = simplify_gauss(code)
    assert len(out) <= len(code)
    # result is a valid code (constructor re-validates)
    assert out == simplify_gauss(out)


def test_simplify_same_sign_bigon_is_kept():
    # adjacent in both strands but equal signs: not a bigon
    code = parse_gauss_code("1 2 -1 -2 + +")
    assert len(simplify_gauss(code)) == 2


# -- the normalized bracket: simplification keeps the knotoid --------------------

def test_normalized_bracket_of_the_empty_code_and_the_trefoil():
    assert normalized_bracket(parse_gauss_code("")) == {0: 1}
    # the left-handed trefoil: t^-1 + t^-3 - t^-4 under t = A^-4
    assert normalized_bracket(parse_gauss_code("1 -2 3 -1 2 -3 - - -")) == {4: 1, 12: 1, 16: -1}


def test_simplify_keeps_the_normalized_bracket_on_trefoil_directions(trefoil):
    values = {}
    for direction in sample_directions(0, 300):
        code = project(trefoil, direction, TOL).code
        f = normalized_bracket(code)
        assert normalized_bracket(simplify_gauss(code)) == f
        key = tuple(sorted(f.items()))
        values[key] = values.get(key, 0) + 1
    # trivial, the trefoil knot, and a proper knotoid with odd powers of A^2
    assert values == {
        ((0, 1),): 168,
        ((4, 1), (12, 1), (16, -1)): 96,
        ((4, 1), (6, 1), (10, -1)): 36,
    }


def test_an_inserted_r1_kink_keeps_the_normalized_bracket(trefoil):
    # every arc of the distinct trefoil codes of at most 8 crossings, both
    # signs of the kink's crossing and both orders of its two passes
    codes = dict.fromkeys(project(trefoil, direction, TOL).code for direction in sample_directions(0, 300))
    checked = 0
    for code in codes:
        if len(code) > 8:
            continue
        f, new = normalized_bracket(code), max(code.signs, default=0) + 1
        for arc in range(len(code.passes) + 1):
            for sign in (1, -1):
                for kink in (((new, "over"), (new, "under")), ((new, "under"), (new, "over"))):
                    passes = code.passes[:arc] + kink + code.passes[arc:]
                    kinked = OrientedGaussCode(passes, {**code.signs, new: sign})
                    assert normalized_bracket(kinked) == f, (code, arc, sign, kink)
                    checked += 1
    assert checked >= 1000


def test_simplify_keeps_the_normalized_bracket_on_a_walk():
    # 2^n smoothings: only codes of at most 14 crossings, 9 to 14 here
    curve, checked = _walk(32, 1, False), 0
    for direction in sample_directions(0, 40):
        code = project(curve, direction, TOL).code
        if len(code) <= 14:
            assert normalized_bracket(simplify_gauss(code)) == normalized_bracket(code)
            checked += 1
    assert checked >= 10


# -- exact cells: each cell of view directions holds one knotoid ----------------

CELL_DIRECTIONS = 2000  # seed 0's directions, as estimate_measure samples them
BRACKET_CROSSINGS = 8  # simplified codes with more are not bracketed


def _bracket_class(code):
    """The normalized bracket of a code's simplification as a sorted tuple,
    or None past BRACKET_CROSSINGS crossings."""
    simplified = simplify_gauss(code)
    if len(simplified) > BRACKET_CROSSINGS:
        return None
    return tuple(sorted(normalized_bracket(simplified).items()))


def _bracket_classifier(curve):
    """The bracket class of ``curve`` along a direction, each code's
    computed once; raises DegenerateDirection as ``project`` does."""
    classes = {}

    def bracket_class(direction):
        code = project(curve, direction, TOL).code
        if code not in classes:
            classes[code] = _bracket_class(code)
        return classes[code]

    return bracket_class


def _cell_classes(cells, bracket_class) -> list:
    """Each cell's bracket class, from the first of its interior directions
    that has one (None if none has)."""
    cell_classes = []
    for index in range(len(cells.faces)):
        found = None
        for direction in cells.interior_directions(index):
            try:
                found = bracket_class(direction)
            except DegenerateDirection:
                continue
            if found is not None:
                break
        cell_classes.append(found)
    return cell_classes


def _class_areas(cell_classes, areas) -> Counter:
    """Each bracket class's share of the sphere, from its cells' areas."""
    shares = Counter()
    for cell_class, area in zip(cell_classes, areas):
        shares[cell_class] += area / (4.0 * math.pi)
    return shares


def _exact_class_areas(curve) -> Counter:
    """The exact bracket measure of ``curve``: each class's share of the
    sphere of view directions, on the curve's cells."""
    cells = Cells(curve.points)
    return _class_areas(_cell_classes(cells, _bracket_classifier(curve)), cells.areas)


@pytest.fixture(scope="module", params=["trefoil", "walk32"])
def sampled_cells(request, trefoil):
    """A curve's cells with each cell's bracket class, from the first of its
    interior directions that has one (None if none has), and for each
    accepted direction of seed 0 the cells that hold it and its own bracket
    class."""
    curve = trefoil if request.param == "trefoil" else _walk(32, 1, False)
    cells, bracket_class = Cells(curve.points), _bracket_classifier(curve)
    cell_classes = _cell_classes(cells, bracket_class)
    rows = []
    for direction in sample_directions(0, CELL_DIRECTIONS):
        try:
            found = bracket_class(direction)
        except DegenerateDirection:
            continue
        rows.append((cells.locate(direction), found))
    return SimpleNamespace(cells=cells, cell_classes=cell_classes, rows=rows)


def test_cells_tile_the_sphere(sampled_cells):
    cells = sampled_cells.cells
    vertices, edges, faces = cells.counts
    assert vertices - edges + faces == 2
    assert min(cells.areas) > 0.0
    assert math.isclose(sum(cells.areas), 4.0 * math.pi, rel_tol=1e-9)


def test_each_accepted_direction_lies_in_one_cell_of_its_bracket(sampled_cells):
    compared = 0
    for located, found in sampled_cells.rows:
        assert len(located) == 1
        cell_class = sampled_cells.cell_classes[located[0]]
        if found is not None and cell_class is not None:
            assert found == cell_class
            compared += 1
    # the rest keep more than BRACKET_CROSSINGS crossings, on the walk
    assert compared >= 0.85 * len(sampled_cells.rows)


def test_bracket_frequencies_are_within_four_sigma_of_cell_areas(sampled_cells):
    # a direction whose code is too large to bracket counts in its cell's
    # class, which the test above finds equal to its own wherever both are
    # known; sigma is that of a frequency over the accepted directions, from
    # the class's area
    areas = _class_areas(sampled_cells.cell_classes, sampled_cells.cells.areas)
    cell_classes = sampled_cells.cell_classes
    counts = Counter(cell_classes[located[0]] if found is None else found for located, found in sampled_cells.rows)
    accepted = len(sampled_cells.rows)
    for cell_class in areas.keys() | counts.keys():
        p = areas[cell_class]
        sigma = math.sqrt(p * (1.0 - p) / accepted)
        assert abs(counts[cell_class] / accepted - p) <= 4.0 * sigma, cell_class


# -- the paper's measure claims, on the exact cells ------------------------------

KNOT_TREFOIL = ((4, 1), (12, 1), (16, -1))  # the class A^4 + A^12 - A^16
CLOSURE_SLOPE = 0.6  # 1 - P(knot type) <= this times the endpoint distance


def _closure_trefoil(gap: float) -> OpenCurve3D:
    """The trefoil (sin t + 2 sin 2t, cos t - 2 cos 2t, -sin 3t) at 96
    points for t in [gap/2, 2 pi - gap/2]: its ends close up as gap shrinks."""
    ts = [gap / 2 + k * (2.0 * math.pi - gap) / 95 for k in range(96)]
    return OpenCurve3D(
        tuple((math.sin(t) + 2 * math.sin(2 * t), math.cos(t) - 2 * math.cos(2 * t), -math.sin(3 * t)) for t in ts)
    )


@pytest.fixture(scope="module")
def trefoil_class_areas(trefoil):
    return _exact_class_areas(trefoil)


def test_the_knot_type_class_fills_the_sphere_as_the_ends_close():
    # the ends lie 2.77, 0.73 and 0.18 apart, and the knot type covers
    # 0.319, 0.681 and 0.903 of the sphere: 1 - P is at most 0.53 times
    # the distance (the gaps 0.25 and 0.0625 between them read 0.538 and
    # 0.815, and are left out for time)
    distances, shares = [], []
    for gap in (0.5, 0.125, 0.03125):
        curve = _closure_trefoil(gap)
        distances.append(math.dist(curve.points[0], curve.points[-1]))
        shares.append(_exact_class_areas(curve)[KNOT_TREFOIL])
    assert distances == sorted(distances, reverse=True)
    assert shares[0] < shares[1] < shares[2]
    for distance, share in zip(distances, shares):
        assert 1.0 - share <= CLOSURE_SLOPE * distance, distance


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4])
def test_class_areas_move_at_most_eps_when_the_curve_moves_eps(trefoil, trefoil_class_areas, eps):
    # each coordinate moves uniformly within +-eps; the largest change of a
    # class area over three draws was about 0.28 eps at every eps
    for seed in range(3):
        rng = random.Random(seed)
        moved = OpenCurve3D(tuple(tuple(c + rng.uniform(-eps, eps) for c in p) for p in trefoil.points))
        areas = _exact_class_areas(moved)
        for cell_class in areas.keys() | trefoil_class_areas.keys():
            assert abs(areas[cell_class] - trefoil_class_areas[cell_class]) <= eps, (seed, cell_class)


def _rotated(p):
    x, y, z = p
    c, s = math.cos(0.7), math.sin(0.7)
    y, z = c * y - s * z, s * y + c * z
    c, s = math.cos(1.9), math.sin(1.9)
    return (c * x - s * y, s * x + c * y, z)


SYMMETRIES = {
    "rotation": lambda points: tuple(map(_rotated, points)),
    "scale-and-shift": lambda points: tuple((3 * x + 1.5, 3 * y - 2.0, 3 * z + 0.25) for x, y, z in points),
    "reversal": lambda points: points[::-1],
    "mirror": lambda points: tuple((x, y, -z) for x, y, z in points),
}


@pytest.mark.parametrize("name", SYMMETRIES)
def test_class_areas_keep_the_curve_symmetries(trefoil, trefoil_class_areas, name):
    areas = _exact_class_areas(OpenCurve3D(SYMMETRIES[name](trefoil.points)))
    if name == "mirror":  # a mirror maps the bracket's A to 1/A
        areas = {tuple(sorted((-e, c) for e, c in cell_class)): share for cell_class, share in areas.items()}
    assert None not in areas and areas.keys() == trefoil_class_areas.keys()
    for cell_class, share in areas.items():
        assert abs(share - trefoil_class_areas[cell_class]) <= 1e-12, cell_class


# -- estimation -------------------------------------------------------------------

def test_segment_estimate_is_all_trivial():
    segment = OpenCurve3D(((0.0, 0.0, 0.0), (1.0, 2.0, 3.0)))
    estimate = estimate_measure(segment, 50, seed=0, tol=TOL)
    assert estimate.class_freq == {TRIVIAL_CLASS: Fraction(1)}
    assert estimate.rejected == 0
    assert dominant_knotoid(estimate) == TRIVIAL_CLASS


def test_estimate_deterministic(trefoil):
    a = estimate_measure(trefoil, 120, seed=9, tol=TOL)
    b = estimate_measure(trefoil, 120, seed=9, tol=TOL)
    assert a.to_json_str() == b.to_json_str()
    assert a.to_csv() == b.to_csv()


def test_estimate_frequencies_sum_to_one(trefoil):
    estimate = estimate_measure(trefoil, 150, seed=0, tol=TOL)
    assert sum(estimate.class_freq.values()) == 1
    assert len(estimate.class_freq) >= 2


def test_estimate_golden_counts(trefoil):
    # frozen from the first seeded run; guards cross-platform determinism
    estimate = estimate_measure(trefoil, 2000, seed=0, tol=TOL)
    assert estimate.rejected == 0
    assert estimate.class_freq[TRIVIAL_CLASS] == Fraction(1101, 2000)
    assert estimate.class_freq["1 -2 3 -1 2 -3 - - -"] == Fraction(27, 200)
    assert estimate.class_freq["-1 2 -3 1 -2 3 - - -"] == Fraction(259, 2000)
    assert dominant_knotoid(estimate) == TRIVIAL_CLASS


def test_estimate_rotation_invariance(trefoil):
    angle = 0.7

    def rot(p):
        c, s = math.cos(angle), math.sin(angle)
        return (c * p[0] - s * p[1], s * p[0] + c * p[1], p[2])

    rotated = OpenCurve3D(tuple(rot(p) for p in trefoil.points))
    dirs = sample_directions(0, 150)
    rotated_dirs = []
    for v in dirs:
        w = rot(v)
        norm = math.sqrt(sum(c * c for c in w))
        rotated_dirs.append(tuple(c / norm for c in w))
    tallies_a, _, _, rej_a = _estimate_with_directions(trefoil, dirs, TOL, "classes", None)
    tallies_b, _, _, rej_b = _estimate_with_directions(rotated, rotated_dirs, TOL, "classes", None)
    assert tallies_a == tallies_b
    assert rej_a == rej_b


def test_estimate_zmean(trefoil):
    from knotoidal.series import Caps

    estimate = estimate_measure(trefoil, 20, seed=1, tol=TOL, phi="zmean", caps=Caps(1, 2))
    mean = estimate.invariant_mean
    assert mean is not None
    assert mean["eps_degree"] == 1
    assert mean["components"]
    for comp in mean["components"]:
        Fraction(comp["mean"])  # exact rationals throughout
    # frozen from the first seeded run
    values = {(tuple(c["monomial"]), c["hbar"]): c["mean"] for c in mean["components"]}
    assert values[((0, 0, 1, 0), 1)] == "-41/40"
    assert values[((1, 0, 0, 1), 2)] == "-13/5"


@pytest.mark.parametrize("phi", ["classes", "zmean"])
def test_only_zmean_reads_the_key(trefoil, monkeypatch, phi):
    # every key, the estimator's and ProjectionResult.key, is built by one
    # helper, which classes mode never calls
    from knotoidal import measure
    from knotoidal.series import Caps

    def unread(code, marks, r):
        raise AssertionError("the estimator read a key")

    monkeypatch.setattr(measure, "_projection_key", unread)
    with pytest.raises(AssertionError, match="read a key"):
        project(trefoil, sample_direction(0, 0), TOL).key
    if phi == "classes":
        # the pinned counts of test_estimate_golden_counts
        estimate = estimate_measure(trefoil, 2000, seed=0, tol=TOL)
        assert estimate.class_freq[TRIVIAL_CLASS] == Fraction(1101, 2000)
        assert estimate.class_freq["1 -2 3 -1 2 -3 - - -"] == Fraction(27, 200)
        assert estimate.class_freq["-1 2 -3 1 -2 3 - - -"] == Fraction(259, 2000)
    else:
        with pytest.raises(AssertionError, match="read a key"):
            estimate_measure(trefoil, 20, seed=1, tol=TOL, phi="zmean", caps=Caps(1, 2))


def test_zmean_checks_the_caps_cost_before_projecting(trefoil, monkeypatch):
    from knotoidal import measure
    from knotoidal.errors import CapsTooCostly
    from knotoidal.series import Caps

    def fail(*args):
        raise AssertionError("projected a direction before checking the caps")

    monkeypatch.setattr(measure, "project", fail)
    with pytest.raises(CapsTooCostly):
        estimate_measure(trefoil, 4000, phi="zmean", caps=Caps(1, 40))


def test_zmean_checks_the_eps_order_before_projecting(trefoil, monkeypatch):
    # eps order 0 holds no eps^1 part to average
    from knotoidal import measure
    from knotoidal.errors import DegreeOutOfRange
    from knotoidal.series import Caps

    def fail(*args):
        raise AssertionError("projected a direction before checking the eps order")

    monkeypatch.setattr(measure, "project", fail)
    with pytest.raises(DegreeOutOfRange) as info:
        estimate_measure(trefoil, 4000, phi="zmean", caps=Caps(0, 6))
    assert str(info.value) == "eps degree 1 outside caps Caps(eps_order=0, hbar_order=6)"


def test_zmean_evaluates_each_decomposition_once(trefoil, monkeypatch):
    from knotoidal import invariant
    from knotoidal.series import Caps

    caps, directions = Caps(1, 2), sample_directions(1, 200)
    original, walk, calls = invariant.evaluate_Z, invariant._scaled_walk, []

    def counted(key, caps):
        calls.append(key)
        return walk(key, caps)

    monkeypatch.setattr(invariant, "_scaled_walk", counted)
    _, _, mean, rejected = _estimate_with_directions(trefoil, directions, TOL, "zmean", caps)
    monkeypatch.undo()
    decomps = []
    for direction in directions:
        try:
            decomps.append(reference_decomposition(trefoil, direction, TOL)[1])
        except DegenerateDirection:
            pass
    # each (code, rho, r) key, reduced; each reduced key is walked once, in
    # the order the estimator counts: codes in first-seen order, and a
    # code's keys in first-seen order among its own.  A key's skeleton
    # names its code.  91 decompositions here have 88 walks, 66 keys and
    # 40 reduced keys
    distinct = dict.fromkeys(reference_walk_key(reference_walk(d)) for d in decomps)
    skeletons = list(dict.fromkeys(key[0] for key in distinct))
    by_code = sorted(distinct, key=lambda key: skeletons.index(key[0]))
    reduced = dict.fromkeys(invariant._reduce_key(key) for key in by_code)
    assert calls == list(reduced) and by_code != list(distinct)
    walks = {d.walk() for d in decomps}
    assert len(reduced) < len(distinct) < len(walks) < len(set(decomps)) < len(decomps) == 200 - rejected
    # the same mean as one evaluation per accepted direction
    sums: dict = {}
    for d in decomps:
        for mon, sd in original(d, caps).element.epsilon_part(1).raw().items():
            for (_, h), coeff in sd.items():
                sums[(mon, h)] = sums.get((mon, h), 0) + coeff
    assert [(tuple(c["monomial"]), c["hbar"], c["mean"]) for c in mean["components"]] == [
        (mon, h, str(total / len(decomps))) for (mon, h), total in sorted(sums.items())
    ]


def _projection_of_key(key):
    """A projection whose key reads back as ``key``: the code, marks and r
    of the key's passes, crossings numbered from 1 in opening order."""
    from knotoidal import measure

    seen, passes, signs, marks = set(), [], {}, []
    for c, sign, over, mark in marked_passes(key):
        passes.append((c + 1, "over" if over != (c in seen) else "under"))
        seen.add(c)
        signs[c + 1] = sign
        marks.append(mark)
    proj = measure.ProjectionResult(OrientedGaussCode(passes, signs), tuple(marks), key[2])
    assert proj.key == key
    return proj


def _zmean_of_keys(keys, caps) -> dict:
    """The ``zmean`` mean of the estimator with ``project`` patched to
    return one projection of each key of ``keys``, in order."""
    from knotoidal import measure

    projections = iter([_projection_of_key(key) for key in keys])
    with mock.patch.object(measure, "project", lambda curve, direction, tol: next(projections)):
        return _estimate_with_directions(None, keys, TOL, "zmean", caps)[2]


@pytest.mark.parametrize("caps", [Caps(1, 2), Caps(2, 3)], ids=["caps12", "caps23"])
@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(small_decomposition_st(6), st.integers(1, 3)), min_size=1, max_size=5), st.randoms())
def test_zmean_mean_is_the_fraction_sum_of_its_keys(caps, drawn, rnd):
    # the estimator sums the integer eps^1 terms of each reduced key's walk,
    # times its count, and unscales once; the reference sums the exact
    # elements of the unreduced keys as Fractions
    keys = [d.key() for d, count in drawn for _ in range(count)]
    rnd.shuffle(keys)
    assert _zmean_of_keys(keys, caps) == reference_zmean_mean(Counter(keys), caps)


def test_zmean_keeps_a_component_whose_total_cancels():
    # a lone C+ rotation counted twice and a lone R- crossing once: their
    # eps^1 parts at the monomial a, hbar^1, are 1/2 and -1, so that
    # component totals 0, and the mean prints it as "0"
    caps = Caps(1, 2)
    turn, crossing = ((), (), 1), ((("open", -1, True), ("close", 0)), (0,), 0)
    mean = _zmean_of_keys([turn, crossing, turn], caps)
    assert mean == reference_zmean_mean({turn: 2, crossing: 1}, caps)
    assert mean["components"] == [
        {"monomial": [0, 0, 1, 0], "hbar": 1, "mean": "0"},
        {"monomial": [0, 1, 0, 0], "hbar": 2, "mean": "-1/3"},
        {"monomial": [0, 1, 1, 0], "hbar": 2, "mean": "1/2"},
        {"monomial": [0, 1, 2, 0], "hbar": 2, "mean": "1/3"},
        {"monomial": [1, 0, 0, 1], "hbar": 2, "mean": "-2/3"},
    ]


def test_zmean_evaluates_decompositions_of_one_walk_once(monkeypatch):
    # two decompositions that differ only in token order have one walk, and
    # a third, with a C+ C- pair between two passes, has another walk with
    # the same (code, rho, r) key; all three count as one evaluation, of
    # the reduced key, and give the mean of any one alone.  Two more add a
    # curl with rho = rho* to the first: one inside a span, over first, and
    # one at the end, under first; both reduce to one key.  A curl with
    # rho = -rho* is not central and stays
    from knotoidal import invariant
    from knotoidal.series import Caps

    caps = Caps(1, 2)
    first = RotDecomp(8, [Crossing(1, 2, 4), Crossing(-1, 1, 8), Rotation(1, 3)])
    second = RotDecomp(8, [Rotation(1, 3), Crossing(-1, 1, 8), Crossing(1, 2, 4)])
    third = RotDecomp(8, [Crossing(1, 2, 4), Crossing(-1, 1, 8), Rotation(1, 3), Rotation(1, 5), Rotation(-1, 6)])
    curl_inside = RotDecomp(8, [*first.tokens, Crossing(1, 5, 7), Rotation(-1, 6)])
    curl_at_end = RotDecomp(11, [*first.tokens, Crossing(1, 11, 9), Rotation(1, 10)])
    unreduced = RotDecomp(8, [*first.tokens, Crossing(1, 5, 7), Rotation(1, 6)])
    assert first != second and first.walk() == second.walk()
    assert first.walk() != third.walk()
    assert reference_walk_key(first.walk()) == reference_walk_key(third.walk())
    assert reference_walk_key(curl_inside.walk()) != reference_walk_key(curl_at_end.walk())
    walk, calls = invariant._scaled_walk, []

    def counted(key, caps):
        calls.append(key)
        return walk(key, caps)

    def means(decomps):
        return _zmean_of_keys([reference_walk_key(d.walk()) for d in decomps], caps)

    def reduced(d):
        return invariant._reduce_key(reference_walk_key(d.walk()))

    monkeypatch.setattr(invariant, "_scaled_walk", counted)
    assert means([first, second, third, first]) == means([first] * 4)
    assert means([third, first]) == means([third] * 2)
    assert calls == [reduced(first)] * 4
    del calls[:]
    assert means([curl_inside, curl_at_end]) == means([curl_at_end] * 2)
    assert calls == [reduced(curl_inside)] * 2 and reduced(curl_inside) == reduced(curl_at_end)
    del calls[:]
    assert means([curl_inside, unreduced]) != means([curl_inside] * 2)
    assert calls == [reduced(curl_inside), reduced(unreduced), reduced(curl_inside)]
    assert reduced(unreduced) == reference_walk_key(unreduced.walk())


@pytest.mark.parametrize("phi", ["classes", "zmean"])
def test_the_measure_path_builds_no_decomposition(trefoil, monkeypatch, phi):
    # project returns each direction's (code, rho, r) key, which zmean
    # reduces and evaluates; no RotDecomp is built on the way
    built, init = [], RotDecomp.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RotDecomp, "__init__", counted)
    estimate = estimate_measure(trefoil, 60, phi=phi)
    assert built == [] and estimate.accepted > 0
    assert (estimate.invariant_mean is not None) == (phi == "zmean")


@pytest.mark.parametrize("phi", ["classes", "zmean"])
def test_classes_label_each_code_once(trefoil, monkeypatch, phi):
    from knotoidal import measure

    n, seed = 200, 1
    original, calls = measure.simplify_gauss, []

    def counted(code):
        calls.append(code)
        return original(code)

    monkeypatch.setattr(measure, "simplify_gauss", counted)
    estimate = estimate_measure(trefoil, n, seed=seed, phi=phi)
    codes = []
    for direction in sample_directions(seed, n):
        try:
            codes.append(project(trefoil, direction, TOL).code)
        except DegenerateDirection:
            pass
    # one simplification per distinct code, in first-seen order
    assert calls == list(dict.fromkeys(codes))
    assert len(calls) < len(codes) == estimate.accepted
    # the same estimate as labelling every accepted direction
    tallies: dict = {}
    for code in codes:
        label = class_label(code)
        tallies[label] = tallies.get(label, 0) + 1
    freq = {label: Fraction(count, len(codes)) for label, count in tallies.items()}
    expected = MeasureEstimate(n, seed, freq, estimate.invariant_mean, n - len(codes))
    assert estimate.to_json_str() == expected.to_json_str()


def test_estimate_validation(trefoil):
    with pytest.raises(ValueError):
        estimate_measure(trefoil, 0)
    with pytest.raises(ValueError):
        estimate_measure(trefoil, 10, phi="banana")


@pytest.mark.parametrize(
    "call",
    [
        lambda curve: estimate_measure(curve, 0),
        lambda curve: estimate_measure(curve, 10, phi="banana"),
        lambda curve: project(curve, (0.0, 0.0, 1.0), 0.0),
        lambda curve: project(curve, (0.0, 0.0, 1.0), -TOL),
        lambda curve: project(curve, (0.0, 0.0, 0.5), TOL),
        lambda curve: estimate_measure(curve, 2.5),
        lambda curve: estimate_measure(curve, True),
        lambda curve: estimate_measure(curve, 10, tol=math.nan),
        lambda curve: estimate_measure(curve, 10, tol=math.inf),
        lambda curve: project(curve, (0.0, 0.0, 1.0), math.nan),
        lambda curve: project(curve, (math.nan, 0.0, 0.0), TOL),
        lambda curve: estimate_measure(curve, 5, seed=1.5),
        lambda curve: estimate_measure(curve, 5, seed="1"),
        lambda curve: estimate_measure(curve, 5, seed=None),
        lambda curve: estimate_measure(curve, 5, seed=True),
        lambda curve: estimate_measure(curve, 5, seed=-1),
        lambda curve: estimate_measure(curve, 5, seed=2**64),
        lambda curve: estimate_measure(curve, 5, phi="zmean", caps=(1, 2)),
        lambda curve: estimate_measure(curve, 5, caps=ZMEAN_CAPS),
        lambda curve: perturbed(curve, 0.1, 1.5),
        lambda curve: perturbed(curve, 0.1, -1),
        lambda curve: perturbed(curve, 0.1, 2**64),
        lambda curve: perturbed(curve, -1.0, 0),
        lambda curve: perturbed(curve, math.nan, 0),
        lambda curve: perturbed(curve, math.inf, 0),
        lambda curve: perturbed(curve, "0.1", 0),
        lambda curve: project(curve, (1.0, 0.0), TOL),
        lambda curve: project(curve, "abc", TOL),
        lambda curve: project(curve, (0.0, 0.0, 1.0), "1e-9"),
        lambda curve: estimate_measure(curve, 3, tol="1e-9"),
        # a bool is an int, and True would read as tol 1.0
        lambda curve: estimate_measure(curve, 5, tol=True),
        lambda curve: project(curve, (0.0, 0.0, 1.0), True),
        # an int path would be read, and then closed, as a file descriptor
        lambda curve: load_curve(0),
        lambda curve: load_curve(True),
        lambda curve: load_curve(None),
        # open would raise a bare ValueError for an embedded NUL
        lambda curve: load_curve("a\0b"),
        lambda curve: load_curve(b"a\0b"),
        lambda curve: OpenCurve3D(5),
        lambda curve: OpenCurve3D(None),
        # it used to fail inside project with a bare AttributeError
        lambda curve: estimate_measure([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)], 10),
        lambda curve: project([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)], (0.0, 0.0, 1.0), TOL),
    ],
    ids=[
        "no-samples",
        "unknown-phi",
        "zero-tol",
        "negative-tol",
        "non-unit-direction",
        "float-samples",
        "bool-samples",
        "nan-tol",
        "inf-tol",
        "project-nan-tol",
        "nan-direction",
        "float-seed",
        "str-seed",
        "none-seed",
        "bool-seed",
        "negative-seed",
        "seed-2**64",
        "tuple-caps",
        "caps-without-zmean",
        "perturbed-float-seed",
        "perturbed-negative-seed",
        "perturbed-seed-2**64",
        "negative-radius",
        "nan-radius",
        "inf-radius",
        "str-radius",
        "two-coordinate-direction",
        "str-direction",
        "project-str-tol",
        "str-tol",
        "bool-tol",
        "project-bool-tol",
        "fd-path",
        "bool-path",
        "none-path",
        "nul-path",
        "nul-bytes-path",
        "int-points",
        "none-points",
        "list-curve",
        "project-list-curve",
    ],
)
def test_bad_arguments_are_invalid_arguments(trefoil, call):
    with pytest.raises(InvalidArgument):
        call(trefoil)


def test_load_curve_leaves_a_file_descriptor_open():
    fd = os.open(os.devnull, os.O_RDONLY)
    try:
        with pytest.raises(InvalidArgument):
            load_curve(fd)
        os.fstat(fd)
    finally:
        os.close(fd)


def test_largest_seed_is_accepted(trefoil):
    # rand64 reads a seed mod 2**64, so -1 would alias this seed under another name
    seed = 2**64 - 1
    assert estimate_measure(trefoil, 5, seed=seed).seed == seed
    assert perturbed(trefoil, 0.0, seed) == trefoil


def test_all_samples_degenerate():
    segment = OpenCurve3D(((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 1.0)))
    with pytest.raises(AllSamplesDegenerate):
        # a tolerance above the curve's extent: every segment projects
        # shorter than tol, so every direction is rejected
        estimate_measure(segment, 5, seed=0, tol=2.0)


def test_coordinate_sized_tol_keeps_directions(trefoil):
    # the angle guard is a fixed number of radians, so a tol sized to
    # coordinates given to three decimals rejects only near-degenerate views
    reasons = []
    for direction in sample_directions(0, 200):
        try:
            project(trefoil, direction, 1e-3)
        except DegenerateDirection as exc:
            reasons.append(exc.reason)
    assert len(reasons) <= 5
    assert "projection folds back (cusp)" not in reasons
    assert "turning ambiguous at half rotation" not in reasons


def test_dominant_tie_break():
    estimate = MeasureEstimate(
        samples=4,
        seed=0,
        class_freq={"b": Fraction(1, 2), "a": Fraction(1, 2)},
        invariant_mean=None,
        rejected=0,
    )
    assert dominant_knotoid(estimate) == "a"
    empty = MeasureEstimate(5, 0, {}, None, 5)
    with pytest.raises(EmptyEstimate):
        dominant_knotoid(empty)


def test_perturbed_stays_close(trefoil):
    noisy = perturbed(trefoil, 1e-4, seed=5)
    deltas = [
        math.dist(p, q) for p, q in zip(trefoil.points, noisy.points)
    ]
    assert all(d <= 1e-4 + 1e-12 for d in deltas)
    assert any(d > 0 for d in deltas)


# -- isotopy invariance of the extracted invariant --------------------------------

def _axis_z_projection_value(curve, caps):
    from knotoidal.invariant import _evaluate_key

    return _evaluate_key(project(curve, (0.0, 0.0, 1.0), TOL).key, caps)


def test_extracted_invariant_under_in_plane_rotation(trefoil):
    # rotating the curve about the view axis is an ambient isotopy of the
    # diagram; the evaluated invariant of the extracted decomposition must not
    # move even when the turn-mark rounding flips
    from knotoidal.series import Caps

    caps = Caps(1, 2)
    base = _axis_z_projection_value(trefoil, caps)
    for theta in (1.0, 2.0, 4.5):
        c, s = math.cos(theta), math.sin(theta)
        rotated = OpenCurve3D(
            tuple((c * x - s * y, s * x + c * y, z) for x, y, z in trefoil.points)
        )
        assert _axis_z_projection_value(rotated, caps) == base, theta


def test_extracted_invariant_under_subdivision(trefoil):
    from knotoidal.invariant import _evaluate_key
    from knotoidal.series import Caps

    caps = Caps(1, 2)
    points = [trefoil.points[0]]
    for p, q in zip(trefoil.points, trefoil.points[1:]):
        points.append(tuple((a + b) / 2 for a, b in zip(p, q)))
        points.append(q)
    fine = OpenCurve3D(tuple(points))
    checked = 0
    for i in range(10):
        direction = sample_direction(21, i)
        try:
            coarse_proj = project(trefoil, direction, TOL)
            fine_proj = project(fine, direction, TOL)
        except DegenerateDirection:
            continue
        assert coarse_proj.code == fine_proj.code
        assert _evaluate_key(coarse_proj.key, caps) == _evaluate_key(fine_proj.key, caps)
        checked += 1
    assert checked >= 5


def test_extracted_invariant_under_direction_wiggle(trefoil):
    from knotoidal.series import Caps

    caps = Caps(1, 2)
    base = _axis_z_projection_value(trefoil, caps)
    wiggle = (1e-6, -2e-6, 1.0)
    norm = math.sqrt(sum(c * c for c in wiggle))
    direction = tuple(c / norm for c in wiggle)
    from knotoidal.invariant import _evaluate_key

    value = _evaluate_key(project(trefoil, direction, TOL).key, caps)
    assert value == base


# -- knots to knotoids ---------------------------------------------------------

TREFOIL_CLOSED = "1 -2 3 -1 2 -3 - - -"


def test_unknot_any_arc_gives_trivial():
    empty = parse_gauss_code("")
    for arc in (0, 3, 17):
        assert knot_to_knotoid(empty, arc).is_empty()


def test_trefoil_openings_stay_nontrivial():
    closed = parse_gauss_code(TREFOIL_CLOSED)
    first = knot_to_knotoid(closed, 0)
    second = knot_to_knotoid(closed, 3)
    assert not simplify_gauss(first).is_empty()
    assert not simplify_gauss(second).is_empty()
    assert len(first) == len(second) == 3


def test_trefoil_opens_at_the_gap_after_pass_arc():
    # arc 0 opens between the first and second pass; a code opened before
    # pass arc would swap the two mirror renders.  Every opening is the
    # trefoil knotoid, whose normalized bracket is A^4 + A^12 - A^16
    closed = parse_gauss_code(TREFOIL_CLOSED)
    renders = ["-1 2 -3 1 -2 3 - - -", "1 -2 3 -1 2 -3 - - -"] * 3
    for arc, render in enumerate(renders):
        opened = knot_to_knotoid(closed, arc)
        assert opened.render() == render, arc
        assert normalized_bracket(opened) == {4: 1, 12: 1, 16: -1}, arc


# the closure of the braid s1 s2^-1 s1 s2^-1, a diagram of the figure-eight
FIGURE_EIGHT_CLOSED = "1 -2 3 -1 4 -3 2 -4 + - - +"


def _substituted(jones: dict, power: int) -> dict:
    """A Laurent polynomial in t, ``{exponent: coefficient}``, at t = A**power."""
    return {power * e: c for e, c in jones.items()}


@pytest.mark.parametrize(
    "closed, jones, chiral",
    [
        # the left-handed trefoil, t^-1 + t^-3 - t^-4
        (TREFOIL_CLOSED, {-1: 1, -3: 1, -4: -1}, True),
        # the figure-eight, t^-2 - t^-1 + 1 - t + t^2, its own mirror image
        (FIGURE_EIGHT_CLOSED, {-2: 1, -1: -1, 0: 1, 1: -1, 2: 1}, False),
    ],
    ids=["trefoil", "figure_eight"],
)
def test_knot_type_knotoids_have_the_knots_jones_polynomial(closed, jones, chiral):
    # a knotoid opened from a knot diagram at any arc has the knot's
    # normalized bracket, which is its Jones polynomial at t = A^-4; the
    # other substitution, t = A^4, is the mirror image's, a different
    # polynomial for the chiral trefoil
    code = parse_gauss_code(closed)
    expected = _substituted(jones, -4)
    assert (expected != _substituted(jones, 4)) == chiral
    for arc in range(len(code.passes)):
        assert normalized_bracket(knot_to_knotoid(code, arc)) == expected, arc


def test_fixture_codes_normalized_brackets_pinned():
    # each fixture decomposition's gauss_code(), read along its strand; a
    # pair with one code has one value, and 5_7 and 5_421 agree as well
    pinned = {
        "5_7": {-2: 1, 0: 2, 2: -1, 4: -2, 6: -1, 8: 1, 10: 1},
        "5_421": {-2: 1, 0: 2, 2: -1, 4: -2, 6: -1, 8: 1, 10: 1},
        "5_9": {-6: -1, -2: 2, 0: 2, 2: -2, 4: -2, 6: 1, 8: 2, 12: -1},
        "5_561": {-6: -1, -2: 2, 0: 2, 2: -2, 4: -2, 6: 1, 8: 2, 12: -1},
        "5_12": {8: 1, 10: 1, 14: -2, 18: 2, 20: 1, 22: -1, 24: -1},
        "5_593": {8: 1, 10: 1, 14: -2, 18: 2, 20: 1, 22: -1, 24: -1},
    }
    brackets = {name: normalized_bracket(d.gauss_code()) for name, (_, d) in fixtures().items()}
    assert brackets == pinned


def test_arc_out_of_range():
    closed = parse_gauss_code(TREFOIL_CLOSED)
    with pytest.raises(ArcOutOfRange):
        knot_to_knotoid(closed, 6)
    with pytest.raises(ArcOutOfRange):
        knot_to_knotoid(closed, -1)
    for arc in (1.5, True):
        with pytest.raises(InvalidArgument):
            knot_to_knotoid(closed, arc)

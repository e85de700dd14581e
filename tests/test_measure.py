import hashlib
import math
import random
from contextlib import contextmanager
from fractions import Fraction

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
    perturbed,
    project,
    sample_direction,
    sample_directions,
    simplify_gauss,
)
from measure_reference import (
    all_pairs_triple_points,
    reference_project,
    reference_simplify_gauss,
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
    assert result.biframing.framing == 0
    assert result.biframing.coframing == 0
    assert result.decomp.labels == 1 and not result.decomp.tokens


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
    assert result.biframing.framing == writhe(result.code) == -3


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
        assert result.biframing.framing == writhe(result.code)
        crossings = result.decomp.crossings()
        assert sum(c.sign for c in crossings) == result.biframing.framing


def test_coframing_translation_invariant(trefoil):
    moved = trefoil.translated((13.5, -7.25, 2.0))
    for i in range(15):
        direction = sample_direction(5, i)
        try:
            a = project(trefoil, direction, TOL)
            b = project(moved, direction, TOL)
        except DegenerateDirection:
            continue
        assert a.biframing == b.biframing
        assert a.code == b.code


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


# One constructed curve per rejection reason, viewed along +z with TOL.  The
# remaining reason, "winding center on the path", is not reachable: a vertex
# projecting exactly onto the leg (or head) ends a segment of zero projected
# length or lies on a segment other than the endpoint's own, so the
# parallel-segment check or the endpoint check rejects first.
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


@pytest.mark.parametrize("reason, points", DEGENERATE_CURVES, ids=[r for r, _ in DEGENERATE_CURVES])
def test_degenerate_reason(reason, points):
    curve = OpenCurve3D(tuple(tuple(float(c) for c in p) for p in points))
    with pytest.raises(DegenerateDirection) as exc:
        project(curve, (0.0, 0.0, 1.0), TOL)
    assert exc.value.reason == reason


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


# -- label assembly ---------------------------------------------------------------

def test_fixture_decompositions_read_their_codes_orientation():
    """Only 5_7's decomposition reads its pair's tabulated code; the other
    five read the code reversed."""
    for name, (code, decomp) in fixtures().items():
        expected = code if name == "5_7" else reverse_code(code).relabeled()
        assert decomp.gauss_code() == expected, name


def _accepted_projections(curve, seed, n):
    for i in range(n):
        try:
            yield project(curve, sample_direction(seed, i), TOL)
        except DegenerateDirection:
            continue


def test_decomposition_reads_back_the_code(trefoil):
    walk = _walk(128, 4, False)
    checked = 0
    for curve in (trefoil, walk):
        for proj in _accepted_projections(curve, 2, 12):
            assert proj.decomp.gauss_code() == proj.code
            checked += 1
    assert checked >= 20


# -- the trusted constructors -----------------------------------------------------

@contextmanager
def _trusted_builds():
    """Record every code and decomposition built through ``_trusted=True``."""
    built = []
    originals = [(cls, cls.__init__) for cls in (OrientedGaussCode, RotDecomp)]

    def recording(init):
        def __init__(self, *args, _trusted=False):
            init(self, *args, _trusted=_trusted)
            if _trusted:
                built.append(self)

        return __init__

    for cls, init in originals:
        cls.__init__ = recording(init)
    try:
        yield built
    finally:
        for cls, init in originals:
            cls.__init__ = init


def _field_types(obj) -> tuple:
    if isinstance(obj, OrientedGaussCode):
        return (
            type(obj.passes),
            [(type(p), *map(type, p)) for p in obj.passes],
            type(obj.signs),
            [(type(c), type(sign)) for c, sign in obj.signs.items()],
        )
    return (type(obj.labels), type(obj.tokens), [type(tok) for tok in obj.tokens])


def _assert_rebuild_through_public_constructors(built) -> None:
    """Each trusted object equals its rebuild by the checking constructor,
    with the same hash and the same field types."""
    for obj in built:
        if isinstance(obj, OrientedGaussCode):
            again = OrientedGaussCode(obj.passes, obj.signs)
        else:
            again = RotDecomp(obj.labels, obj.tokens)
        assert again == obj and hash(again) == hash(obj), obj
        assert _field_types(again) == _field_types(obj), obj


@pytest.mark.parametrize("points, directions", [(None, 300), (128, 24), (512, 6)])
def test_trusted_projections_pass_the_public_checks(trefoil, points, directions):
    """On the trefoil (``points`` None) and on random walks."""
    curve = trefoil if points is None else _walk(points, 7, False)
    accepted = 0
    with _trusted_builds() as built:
        for proj in _accepted_projections(curve, 5, directions):
            assert proj.decomp.gauss_code() == proj.code
            class_label(proj.code)
            accepted += 1
    assert accepted >= directions // 2
    assert {type(obj) for obj in built} == {OrientedGaussCode, RotDecomp}
    _assert_rebuild_through_public_constructors(built)


@settings(max_examples=100, deadline=None)
@given(gauss_code_st())
def test_trusted_simplification_passes_the_public_checks(code):
    with _trusted_builds() as built:
        simplify_gauss(code)
    assert len(built) == 2  # the remaining passes, then their relabeling
    _assert_rebuild_through_public_constructors(built)


def _projection_digest(curve, directions) -> str:
    """sha256 over each projection's code, decomposition and biframing, or
    over its rejection reason."""
    lines = []
    for direction in directions:
        try:
            proj = project(curve, direction, TOL)
        except DegenerateDirection as exc:
            lines.append(f"rejected: {exc.reason}")
            continue
        decomp = proj.decomp.render().replace("\n", "; ")
        framing = f"{proj.biframing.framing} {proj.biframing.coframing}"
        lines.append(f"{proj.code.render()} | {decomp} | {framing}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# recorded before the decomposition assembly in project was rewritten; they
# pin the rotation-token labels and the coframing, which the all-pairs
# oracle shares with project and so cannot check
PROJECT_DIGESTS = {
    "trefoil": "5e84541c2f24d386624552ca1416ff48b3b586eca8f8cf77cdba67301b65803c",
    "walk128": "9ccadb462cda417b8f394e6cc9d790e29544b956376fe5616139e562740692cc",
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


def test_zmean_checks_the_caps_cost_before_projecting(trefoil, monkeypatch):
    from knotoidal import measure
    from knotoidal.errors import CapsTooCostly
    from knotoidal.series import Caps

    def fail(*args):
        raise AssertionError("projected a direction before checking the caps")

    monkeypatch.setattr(measure, "project", fail)
    with pytest.raises(CapsTooCostly):
        estimate_measure(trefoil, 4000, phi="zmean", caps=Caps(1, 40))


def test_zmean_evaluates_each_decomposition_once(trefoil, monkeypatch):
    from knotoidal import invariant
    from knotoidal.series import Caps

    caps, directions = Caps(1, 2), sample_directions(1, 200)
    original, calls = invariant.evaluate_Z, []

    def counted(d, caps):
        calls.append(d)
        return original(d, caps)

    monkeypatch.setattr(invariant, "evaluate_Z", counted)
    _, _, mean, rejected = _estimate_with_directions(trefoil, directions, TOL, "zmean", caps)
    decomps = []
    for direction in directions:
        try:
            decomps.append(project(trefoil, direction, TOL).decomp)
        except DegenerateDirection:
            pass
    # the first decomposition of each distinct walk; 91 decompositions here
    # have 88 walks
    distinct: dict = {}
    for d in decomps:
        distinct.setdefault(d.walk(), d)
    assert calls == list(distinct.values())
    assert len(distinct) < len(set(decomps)) < len(decomps) == 200 - rejected
    # the same mean as one evaluation per accepted direction
    sums: dict = {}
    for d in decomps:
        for mon, sd in original(d, caps).element.epsilon_part(1).raw().items():
            for (_, h), coeff in sd.items():
                sums[(mon, h)] = sums.get((mon, h), 0) + coeff
    assert [(tuple(c["monomial"]), c["hbar"], c["mean"]) for c in mean["components"]] == [
        (mon, h, str(total / len(decomps))) for (mon, h), total in sorted(sums.items())
    ]


def test_zmean_evaluates_decompositions_of_one_walk_once(monkeypatch):
    # two decompositions that differ only in token order have one walk, so
    # they count as one evaluation and give the mean of either alone
    from knotoidal import invariant, measure
    from knotoidal.diagram import Biframing
    from knotoidal.series import Caps

    caps, code = Caps(1, 2), parse_gauss_code("1 -2 -1 2 + -")
    first = RotDecomp(8, [Crossing(1, 2, 4), Crossing(-1, 1, 8), Rotation(1, 3)])
    second = RotDecomp(8, [Rotation(1, 3), Crossing(-1, 1, 8), Crossing(1, 2, 4)])
    assert first != second and first.walk() == second.walk()
    original, calls = invariant.evaluate_Z, []

    def counted(d, caps):
        calls.append(d)
        return original(d, caps)

    def means(decomps):
        projections = iter([measure.ProjectionResult(code, d, Biframing(0, 0)) for d in decomps])
        monkeypatch.setattr(measure, "project", lambda curve, direction, tol: next(projections))
        return _estimate_with_directions(None, decomps, TOL, "zmean", caps)[2]

    monkeypatch.setattr(invariant, "evaluate_Z", counted)
    assert means([first, second, first]) == means([first] * 3)
    assert calls == [first, first]


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
    ],
)
def test_bad_arguments_are_invalid_arguments(trefoil, call):
    with pytest.raises(InvalidArgument):
        call(trefoil)


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
    from knotoidal.invariant import evaluate_Z

    return evaluate_Z(project(curve, (0.0, 0.0, 1.0), TOL).decomp, caps).element


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
    from knotoidal.invariant import evaluate_Z
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
        assert evaluate_Z(coarse_proj.decomp, caps).element == evaluate_Z(
            fine_proj.decomp, caps
        ).element
        checked += 1
    assert checked >= 5


def test_extracted_invariant_under_direction_wiggle(trefoil):
    from knotoidal.series import Caps

    caps = Caps(1, 2)
    base = _axis_z_projection_value(trefoil, caps)
    wiggle = (1e-6, -2e-6, 1.0)
    norm = math.sqrt(sum(c * c for c in wiggle))
    direction = tuple(c / norm for c in wiggle)
    from knotoidal.invariant import evaluate_Z

    value = evaluate_Z(project(trefoil, direction, TOL).decomp, caps).element
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


def test_arc_out_of_range():
    closed = parse_gauss_code(TREFOIL_CLOSED)
    with pytest.raises(ArcOutOfRange):
        knot_to_knotoid(closed, 6)
    with pytest.raises(ArcOutOfRange):
        knot_to_knotoid(closed, -1)
    for arc in (1.5, True):
        with pytest.raises(InvalidArgument):
            knot_to_knotoid(closed, arc)

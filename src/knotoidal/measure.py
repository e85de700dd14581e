"""Knottedness statistics of open 3D curves by randomized projection.

A polygonal open curve is projected along a direction drawn uniformly from the
sphere; the projection yields a knotoid diagram (an oriented Gauss code plus
its ``(code, rho, r)`` key of turning numbers), which is greedily simplified
and tallied.  Directions whose projection hits one of the measure-zero bad
configurations (near-parallel overlaps, endpoint grazing, triple points,
crossings near vertices, ambiguous turning) are rejected and counted.

Geometry runs in double precision with explicit tolerances; class tallies and
invariant averages use exact rational arithmetic, so estimates are bit-stable
from run to run on one platform.  Direction sampling uses a counter-based
64-bit mixer, so sample ``i`` depends only on ``(seed, i)``.  Sampling and
projection call libm's ``cos``, ``sin`` and ``atan2``, whose last-bit rounding
may differ between platforms, and so may an estimate.
"""

from __future__ import annotations

import heapq
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import sub

from .diagram import Biframing, OrientedGaussCode, walk_key, writhe
from .errors import (
    AllSamplesDegenerate,
    ArcOutOfRange,
    DegenerateDirection,
    DegreeOutOfRange,
    DuplicateConsecutivePoint,
    EmptyEstimate,
    InvalidArgument,
    ParseError,
    TooFewPoints,
)
from .series import Caps, _ascii_number, _read_text

Vec3 = tuple[float, float, float]
Vec2 = tuple[float, float]

TRIVIAL_CLASS = "trivial"

# default caps of the zmean invariant average
ZMEAN_CAPS = Caps(1, 2)

# rounding guard for turning angles, in radians, whatever the coordinate
# tolerance; it is the double 1e3 * 1e-9, one ulp above 1e-6, with which the
# pinned projection outputs of the tests and the benchmark were recorded
ANGLE_GUARD = 1.0000000000000002e-06

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# curves

@dataclass(frozen=True)
class OpenCurve3D:
    points: tuple[Vec3, ...]

    def __post_init__(self):
        if not isinstance(self.points, (tuple, list)):
            raise InvalidArgument(f"curve points must be a tuple or a list, got {self.points!r}")
        if len(self.points) < 2:
            raise TooFewPoints("a curve needs at least two points")
        for index, p in enumerate(self.points):
            if not _is_vec3(p):
                raise ParseError(f"point {index} is not three real coordinates: {p!r}")
            if not all(map(math.isfinite, p)):
                raise ParseError(f"point {index} has a non-finite coordinate: {p}")
        for p, q in zip(self.points, self.points[1:]):
            if p == q:
                raise DuplicateConsecutivePoint(f"repeated consecutive point {p}")


def _is_vec3(v) -> bool:
    """Whether ``v`` is a tuple or list of three ints or floats."""
    return isinstance(v, (tuple, list)) and len(v) == 3 and all(isinstance(c, (int, float)) for c in v)


def builtin_curve_path(name: str = "open_trefoil") -> str:
    """Filesystem path of a bundled example curve."""
    from importlib.resources import files

    data = files("knotoidal").joinpath("data")
    resource = data.joinpath(f"{name}.xyz")
    if not resource.is_file():
        bundled = sorted(p.name[:-4] for p in data.iterdir() if p.name.endswith(".xyz"))
        raise InvalidArgument(f"no bundled curve {name!r}; the bundled curves: {', '.join(bundled)}")
    return str(resource)


def load_curve(path) -> OpenCurve3D:
    """Load an ``x y z`` per-line text file; blank lines and # comments allowed."""
    points = []
    for lineno, line in enumerate(_read_text(path).split("\n"), 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected three coordinates")
        try:
            points.append(tuple(_ascii_number(p, float) for p in parts))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad float") from None
    if len(points) < 2:
        raise TooFewPoints(f"{path}: a curve needs at least two points")
    return OpenCurve3D(tuple(points))


# ---------------------------------------------------------------------------
# deterministic direction sampling

_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def rand64(seed: int, index: int) -> int:
    """Counter-based stream: value depends only on (seed, index)."""
    return _mix64((seed & _MASK64) + (index + 1) * 0x9E3779B97F4A7C15 & _MASK64)


def _unit_float(word: int) -> float:
    return (word >> 11) * (1.0 / (1 << 53))


def sample_direction(seed: int, index: int) -> Vec3:
    """Uniform direction on the sphere: z uniform in [-1, 1], angle uniform."""
    z = 2.0 * _unit_float(rand64(seed, 2 * index)) - 1.0
    theta = 2.0 * math.pi * _unit_float(rand64(seed, 2 * index + 1))
    r = math.sqrt(max(0.0, 1.0 - z * z))
    return (r * math.cos(theta), r * math.sin(theta), z)


def sample_directions(seed: int, n: int) -> list[Vec3]:
    return [sample_direction(seed, i) for i in range(n)]


# ---------------------------------------------------------------------------
# projection

@dataclass(frozen=True)
class ProjectionResult:
    """A projection's Gauss code, the turn marks and net rotation ``r`` from
    which :attr:`key` is built, and its projected points, from which
    :attr:`biframing` is computed.  Both are built on first access, so an
    estimate that reads neither (``classes`` mode) builds neither.

    ``marks`` holds one int per pass of ``code``, in strand order: 0 at each
    crossing's first pass and the crossing's rho at its second.
    """

    code: OrientedGaussCode
    marks: tuple[int, ...]
    r: int
    points: tuple[Vec2, ...]

    @cached_property
    def key(self) -> tuple:
        """The ``(code, rho, r)`` key built by :func:`knotoidal.diagram.walk_key`."""
        signs = self.code.signs
        return walk_key(
            ((c, signs[c], role == "over", mark) for (c, role), mark in zip(self.code.passes, self.marks)),
            self.r,
        )

    @cached_property
    def biframing(self) -> Biframing:
        """The writhe, and the coframing from winding numbers around the
        projected endpoints.  No vertex projects onto an endpoint: it would
        end a segment shorter than tol, or lie within tol of the endpoint on
        a segment other than the endpoint's own, and :func:`project` rejects
        both."""
        pts = self.points
        return Biframing(writhe(self.code), _winding(pts[0], pts[1:]) - _winding(pts[-1], pts[:-1]))


def _winding(center: Vec2, pts) -> int:
    """Winding number of the polyline ``pts`` around ``center``."""
    cx, cy = center
    angs = [math.atan2(y - cy, x - cx) for x, y in pts]
    # sum() rounds a float total with compensation on Python >= 3.12, so
    # a hand-written loop could round the winding differently there
    total = sum(
        d + _TWO_PI if d <= -math.pi else d - _TWO_PI if d > math.pi else d
        for d in map(sub, angs[1:], angs)
    )
    return int(round(total / (2.0 * math.pi)))


def _cross3(u: Vec3, v: Vec3) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _plane_basis(v: Vec3) -> tuple[Vec3, Vec3]:
    axes = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    helper = min(axes, key=lambda ax: abs(ax[0] * v[0] + ax[1] * v[1] + ax[2] * v[2]))
    e1 = _cross3(helper, v)
    norm = math.sqrt(sum(c * c for c in e1))
    e1 = tuple(c / norm for c in e1)
    e2 = _cross3(v, e1)
    return e1, e2


def _point_segment_distance(p: Vec2, a: Vec2, b: Vec2) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    length2 = dx * dx + dy * dy
    if length2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / length2))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _segment_crossings(pts2, depth, tol, dirs, lengths, boxes) -> list[tuple]:
    """Crossings ``(i, t, j, s, over_first, sign, point)`` of the projected
    polyline, in ascending ``(i, j)`` segment-pair order; raises for the
    first degenerate pair in that order.  Segment ``i`` passes at parameter
    ``t`` and segment ``j`` at ``s``; ``over_first`` is true when segment
    ``i`` is the over-strand, and ``sign`` is +1 when the cross product of
    the over-strand's direction with the under-strand's is positive.
    ``dirs``, ``lengths`` and ``boxes`` are the segment table of
    :func:`project`.

    Broad phase: sort the segments' boxes, inflated by ``2 * tol``, in place
    by their left edge and sweep.  A pair whose inflated boxes are disjoint
    is more than ``4 * tol`` apart, so the narrow phase could neither record
    nor reject it: an overlap needs a gap below ``tol``, and a crossing's point
    lies within ``tol`` of both segments (its parameters may overshoot each
    segment by ``tol`` of length).  The margin beyond that absorbs rounding.
    Adjacent pairs are never candidates: they meet at their shared vertex,
    and a fold-back between them is the cusp guard's case.  The candidates
    then run through the narrow phase in ascending ``(i, j)`` order, so the
    records and the first rejection are those of testing every pair.
    """
    boxes.sort()
    lefts = [box[0] for box in boxes]
    candidates = []
    for rank, (_, i, right, low, high) in enumerate(boxes):
        end = bisect_right(lefts, right, rank + 1)
        for _, j, _, bottom, top in boxes[rank + 1 : end]:
            if bottom <= high and low <= top and (j > i + 1 or i > j + 1):
                candidates.append((i, j) if i < j else (j, i))
    candidates.sort()

    crossings = []
    for i, j in candidates:
        a1x, a1y = a1 = pts2[i]
        b1x, b1y = b1 = pts2[j]
        dax, day = dirs[i]
        dbx, dby = dirs[j]
        la, lb = lengths[i], lengths[j]
        denom = dax * dby - day * dbx
        if abs(denom) <= tol * la * lb:
            # near-parallel: reject only if the lines nearly overlap
            a2, b2 = pts2[i + 1], pts2[j + 1]
            gap = min(
                _point_segment_distance(b1, a1, a2),
                _point_segment_distance(b2, a1, a2),
                _point_segment_distance(a1, b1, b2),
                _point_segment_distance(a2, b1, b2),
            )
            if gap < tol:
                raise DegenerateDirection("near-parallel segment overlap")
            continue
        rx, ry = b1x - a1x, b1y - a1y
        t = (rx * dby - ry * dbx) / denom
        s = (rx * day - ry * dax) / denom
        margin_t = tol / (la if la > tol else tol)
        margin_s = tol / (lb if lb > tol else tol)
        if t < -margin_t or t > 1 + margin_t or s < -margin_s or s > 1 + margin_s:
            continue
        if (
            t < margin_t
            or t > 1 - margin_t
            or s < margin_s
            or s > 1 - margin_s
        ):
            raise DegenerateDirection("crossing within tol of a vertex")
        za = depth[i] + t * (depth[i + 1] - depth[i])
        zb = depth[j] + s * (depth[j + 1] - depth[j])
        if abs(za - zb) < tol:
            raise DegenerateDirection("depth tie at crossing")
        # denom is the cross product of segment i's direction with j's
        over_first = za > zb
        sign = 1 if (denom > 0) == over_first else -1
        crossings.append((i, t, j, s, over_first, sign, (a1x + t * dax, a1y + t * day)))
    return crossings


def _check_triple_points(points, tol) -> None:
    """Triple-point proxy: reject if two crossing points lie within ``tol``.

    Sweeps the points in x order; a pair whose x gap reaches ``tol`` is at
    least that far apart, so the sweep stops there.
    """
    ordered = sorted(points)
    for m, (xm, ym) in enumerate(ordered):
        for n in range(m + 1, len(ordered)):
            xn, yn = ordered[n]
            if xn - xm >= tol:
                break
            if math.hypot(xm - xn, ym - yn) < tol:
                raise DegenerateDirection("two crossings within tol (triple point)")


def _check_endpoint_grazing(pts2, tol, boxes) -> None:
    """Reject if an endpoint lies within ``tol`` of a segment other than its
    own.

    The segment's box of :func:`project`, inflated by ``2 * tol``, is tested
    first: a point outside it is more than ``2 * tol`` from the segment,
    which lies in the box, so the distance could not reject it.  The margin
    beyond ``tol`` absorbs rounding.
    """
    for endpoint, own in ((pts2[0], 0), (pts2[-1], len(pts2) - 2)):
        px, py = endpoint
        for left, i, right, bottom, top in boxes:
            if (
                left <= px <= right
                and bottom <= py <= top
                and i != own
                and _point_segment_distance(endpoint, pts2[i], pts2[i + 1]) < tol
            ):
                raise DegenerateDirection("endpoint within tol of a strand")


def project(curve: OpenCurve3D, direction: Vec3, tol: float) -> ProjectionResult:
    """Project along ``direction`` and extract the knotoid diagram.

    Raises :class:`DegenerateDirection` for the measure-zero bad directions;
    callers sampling the sphere catch it and count a rejection.
    """
    if not (type(tol) in (int, float) and 0 < tol < math.inf):
        raise InvalidArgument(f"tol must be a positive finite int or float, got {tol!r}")
    if not _is_vec3(direction):
        raise InvalidArgument(f"direction must be three real coordinates, got {direction!r}")
    norm = math.sqrt(sum(c * c for c in direction))
    if not abs(norm - 1.0) <= 1e-12:  # also false for a nan component
        raise InvalidArgument("direction must be a unit vector within 1e-12")
    (e1x, e1y, e1z), (e2x, e2y, e2z) = _plane_basis(direction)
    vx, vy, vz = direction
    pts2, depth = [], []
    for x, y, z in curve.points:
        pts2.append((x * e1x + y * e1y + z * e1z, x * e2x + y * e2y + z * e2z))
        depth.append(x * vx + y * vy + z * vz)
    # the segment table: each segment's direction, length, and box
    # (left, i, right, bottom, top) inflated by 2 * tol
    dirs, lengths, boxes = [], [], []
    pad = 2.0 * tol
    for i, ((ax, ay), (bx, by)) in enumerate(zip(pts2, pts2[1:])):
        dx, dy = bx - ax, by - ay
        dirs.append((dx, dy))
        lengths.append(math.hypot(dx, dy))
        xl, xh = (ax, bx) if ax < bx else (bx, ax)
        yl, yh = (ay, by) if ay < by else (by, ay)
        boxes.append((xl - pad, i, xh + pad, yl - pad, yh + pad))

    # a 3D segment parallel to the view direction projects to a point (cusp)
    if any(length < tol for length in lengths):
        raise DegenerateDirection("segment parallel to view direction")

    crossings = _segment_crossings(pts2, depth, tol, dirs, lengths, boxes)
    _check_triple_points([rec[6] for rec in crossings], tol)
    _check_endpoint_grazing(pts2, tol, boxes)

    # continuous tangent-angle lift along the polyline; an atan2 difference
    # lies in [-2pi, 2pi], so one step of 2pi wraps it into (-pi, pi]
    angles = [math.atan2(dy, dx) for dx, dy in dirs]
    lifted = [angles[0]]
    for prev, cur in zip(angles, angles[1:]):
        delta = cur - prev
        if delta <= -math.pi:
            delta += _TWO_PI
        elif delta > math.pi:
            delta -= _TWO_PI
        if abs(abs(delta) - math.pi) < ANGLE_GUARD:
            raise DegenerateDirection("projection folds back (cusp)")
        lifted.append(lifted[-1] + delta)

    def snap(angle: float, anchor: float) -> int:
        ratio = (angle - anchor) / (2.0 * math.pi)
        nearest = round(ratio)
        if abs(abs(ratio - nearest) - 0.5) < ANGLE_GUARD / (2.0 * math.pi):
            raise DegenerateDirection("turning ambiguous at half rotation")
        return int(nearest)

    def turns(start: float, end: float) -> int:
        """Whole turns of the tangent from angle ``start`` to ``end``.  ``start``
        snaps against the upward direction and ``end`` against ``start`` less
        those whole turns, so a rounding flip only ever happens for a crossing
        as a whole (a full-crossing rotation) or for both endpoints together
        (a matched pair of endpoint twists).  Both are invariances of the
        evaluated invariant; independent rounding of the two angles would not be."""
        mark = snap(start, 0.5 * math.pi)
        return snap(end, start - 2.0 * math.pi * mark) - mark

    # The passes in strand order: (segment, parameter, crossing index).  A
    # crossing's first pass is on its lower segment ``i``.  No two passes
    # tie on (segment, parameter): they would be two crossings at one point,
    # which _check_triple_points has rejected.
    events = []
    for k, (i, t, j, s, *_) in enumerate(crossings):
        events += ((i, t, k), (j, s, k))
    events.sort()
    r = turns(lifted[0], lifted[-1])
    ids = [0] * len(crossings)  # crossing ids in order of first traversal
    passes, signs, marks = [], {}, []
    for seg, _par, k in events:
        i, _, _, _, over_first, sign, _ = crossings[k]
        if seg == i:
            ids[k] = len(signs) + 1
            signs[ids[k]] = sign
            passes.append((ids[k], "over" if over_first else "under"))
            marks.append(0)
        else:
            passes.append((ids[k], "under" if over_first else "over"))
            marks.append(turns(lifted[i], lifted[seg]))
    # valid by construction: one over and one under pass per crossing, signs +-1
    code = OrientedGaussCode(passes, signs, _trusted=True)
    return ProjectionResult(code, tuple(marks), r, tuple(pts2))


# ---------------------------------------------------------------------------
# greedy Gauss-code simplification (only removing moves; endpoints never cross
# a strand, so the forbidden moves are never applied)

def simplify_gauss(code: OrientedGaussCode) -> OrientedGaussCode:
    """Greedy monotone reduction: remove kinks and opposite-sign bigons.

    Sound (each removal is a diagram move on realizable codes) but not
    complete; the crossing count strictly decreases every step.  Each step
    takes the kink at the earliest position if there is one, else the
    removable bigon whose crossing pair first becomes adjacent earliest, at
    its lexicographically least pair of adjacency positions.

    Passes stay in a linked list over their original positions, which keeps
    their order.  ``move_at`` decides the move at a junction; pending moves
    wait in one heap, where kinks sort first, and a popped move is done only
    if ``move_at`` still returns it.  The heap starts from the junctions where
    ``move_at`` can return a move: every kink, and each junction of an
    opposite-sign pair that meets at two or more.  A move changes adjacencies
    only at the junctions it leaves, so only those are examined again.
    """
    passes = code.passes
    signs = dict(code.signs)  # the crossings still present
    size = len(passes)
    cid = [c for c, _ in passes]
    nxt = list(range(1, size)) + [-1]
    prv = list(range(-1, size - 1))
    # the positions of each crossing's over pass and of its under pass
    over: dict[int, int] = {}
    under: dict[int, int] = {}
    for k, (c, role) in enumerate(passes):
        (over if role == "over" else under)[c] = k

    def bigon(c1: int, c2: int):
        """``(pos_a, pos_b)`` removing the pair as a bigon, or None.

        The pair's over passes must be adjacent, and so must its under
        passes; ``pos_a`` and ``pos_b`` are the left nodes of those two
        adjacencies, in order.  A pair is adjacent at most three times, and
        three times only as c1 c2 c1 c2, so ``pos_a`` is always the pair's
        first adjacency and heap order is first-occurrence order."""
        if signs[c1] == signs[c2]:
            return None
        o1, o2, u1, u2 = over[c1], over[c2], under[c1], under[c2]
        top = o1 if nxt[o1] == o2 else o2 if nxt[o2] == o1 else -1
        bottom = u1 if nxt[u1] == u2 else u2 if nxt[u2] == u1 else -1
        if top == -1 or bottom == -1:
            return None
        return (top, bottom) if top < bottom else (bottom, top)

    def move_at(p: int):
        """The move at the junction after node ``p``: ``(0, p)`` for a kink,
        ``(1, pos_a, pos_b, c1, c2)`` with ``c1 < c2`` for a removable
        bigon of the pair that meets there, or None."""
        c1, n = cid[p], nxt[p]
        if c1 not in signs or n == -1:
            return None
        c2 = cid[n]
        if c1 == c2:
            return (0, p)
        if c2 < c1:
            c1, c2 = c2, c1
        found = bigon(c1, c2)
        return None if found is None else (1, *found, c1, c2)

    seeds, meetings = [], {}
    for p in range(size - 1):
        c1, c2 = cid[p], cid[p + 1]
        if c1 == c2:
            seeds.append(p)
        elif signs[c1] != signs[c2]:
            meetings.setdefault((c1, c2) if c1 < c2 else (c2, c1), []).append(p)
    seeds += [p for junctions in meetings.values() if len(junctions) > 1 for p in junctions]
    heap = [move for move in map(move_at, seeds) if move]
    heapq.heapify(heap)
    while heap:
        move = heapq.heappop(heap)
        if move_at(move[1]) != move:
            continue
        # the nodes left to right, so each left neighbour survives the move
        nodes = [k for p in move[1 : 2 + move[0]] for k in (p, nxt[p])]
        lefts = []
        for k in nodes:
            p, n = prv[k], nxt[k]
            if p != -1:
                nxt[p] = n
                lefts.append(p)
            if n != -1:
                prv[n] = p
        for k in nodes:
            signs.pop(cid[k], None)
        for p in dict.fromkeys(lefts):
            found = move_at(p)
            if found:
                heapq.heappush(heap, found)
    # a subset of a valid code's crossings, each with both its passes
    remaining = [p for p in passes if p[0] in signs]
    return OrientedGaussCode(remaining, signs, _trusted=True).relabeled()


def class_label(code: OrientedGaussCode) -> str:
    """Canonical class key of a simplified code."""
    simplified = simplify_gauss(code)
    return TRIVIAL_CLASS if simplified.is_empty() else simplified.render()


# ---------------------------------------------------------------------------
# the estimator

@dataclass(frozen=True)
class MeasureEstimate:
    samples: int
    seed: int
    class_freq: dict[str, Fraction]
    invariant_mean: dict | None
    rejected: int

    @property
    def accepted(self) -> int:
        return self.samples - self.rejected

    def to_json(self) -> dict:
        freq = {
            label: {"fraction": str(f), "float": float(f)}
            for label, f in sorted(self.class_freq.items())
        }
        data = {
            "samples": self.samples,
            "seed": self.seed,
            "rejected": self.rejected,
            "accepted": self.accepted,
            "class_freq": freq,
        }
        if self.invariant_mean is not None:
            data["invariant_mean"] = self.invariant_mean
        return data

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        lines = ["class,count,frequency"]
        for label, freq in sorted(self.class_freq.items()):
            count = freq.numerator * self.accepted // freq.denominator
            lines.append(f'"{label}",{count},{float(freq)!r}')
        return "\n".join(lines) + "\n"


def _estimate_with_directions(curve, directions, tol, phi, caps):
    from .invariant import _evaluate_key, _reduce_key

    tallies: dict[str, int] = {}
    rejected = 0
    # zmean: the count of each (code, rho, r) key of the accepted
    # projections, in first-seen order; evaluate_Z reads a decomposition only
    # through that key, so the projections of a key have one element
    keys: dict[tuple, int] = {}
    # the label is a function of the code, and 500 directions of the bundled
    # trefoil give fewer than 80 distinct codes; each code is labelled once
    labels: dict[OrientedGaussCode, str] = {}
    for direction in directions:
        try:
            proj = project(curve, direction, tol)
        except DegenerateDirection:
            rejected += 1
            continue
        label = labels.get(proj.code)
        if label is None:
            label = labels[proj.code] = class_label(proj.code)
        tallies[label] = tallies.get(label, 0) + 1
        if phi == "zmean":
            keys[proj.key] = keys.get(proj.key, 0) + 1
    # each key less its removable curls and bigons, which keeps its element
    # (see invariant._reduce_key); keys that reduce to one key sum their
    # counts, and each reduced key is evaluated once
    reduced: dict[tuple, int] = {}
    for key, count in keys.items():
        key = _reduce_key(key)
        reduced[key] = reduced.get(key, 0) + count
    zsums: dict[tuple, Fraction] = {}
    for key, count in reduced.items():
        part = _evaluate_key(key, caps).epsilon_part(1)
        for mon, sd in part.raw().items():
            for (e, h), coeff in sd.items():
                zsums[mon, h] = zsums.get((mon, h), Fraction(0)) + count * coeff
    accepted = sum(tallies.values())
    if accepted == 0:
        raise AllSamplesDegenerate("every sampled direction was degenerate")
    freq = {label: Fraction(count, accepted) for label, count in tallies.items()}
    mean = None
    if phi == "zmean":
        mean = {
            "caps": caps.to_json(),
            "eps_degree": 1,
            "components": [
                {
                    "monomial": list(mon),
                    "hbar": h,
                    "mean": str(total / accepted),
                }
                for (mon, h), total in sorted(zsums.items())
            ],
        }
    return tallies, freq, mean, rejected


def _check_seed(seed: int) -> None:
    """Raise :class:`InvalidArgument` unless ``seed`` is an int in [0, 2**64),
    the seeds :func:`rand64` tells apart."""
    if type(seed) is not int or not 0 <= seed <= _MASK64:
        raise InvalidArgument(f"need an int seed in [0, 2**64), got {seed!r}")


def estimate_measure(
    curve: OpenCurve3D,
    n: int,
    seed: int = 0,
    tol: float = 1e-9,
    phi: str = "classes",
    caps: Caps | None = None,
) -> MeasureEstimate:
    """Empirical class frequencies (and optionally invariant means) over
    ``n`` uniformly sampled projection directions; ``project`` checks ``tol``.

    ``caps`` are those of the ``zmean`` average, :data:`ZMEAN_CAPS` if
    None; ``classes`` evaluates no invariant and takes none.  ``zmean``
    raises :class:`CapsTooCostly` for caps past ``invariant.CAPS_COST_LIMIT``,
    and :class:`DegreeOutOfRange` for eps order 0, which holds no eps^1 part
    to average, before it samples or projects any direction."""
    if type(n) is not int or n < 1:
        raise InvalidArgument(f"need an int number of samples >= 1, got {n!r}")
    _check_seed(seed)
    if phi not in ("classes", "zmean"):
        raise InvalidArgument(f"unknown phi {phi!r}")
    if phi == "classes" and caps is not None:
        raise InvalidArgument(f"caps apply only to phi='zmean', got {caps!r} with phi='classes'")
    if phi == "zmean":
        from .invariant import _check_cost

        caps = ZMEAN_CAPS if caps is None else caps
        if not isinstance(caps, Caps):
            raise InvalidArgument(f"zmean needs caps as a Caps, got {caps!r}")
        _check_cost(caps)
        if caps.eps_order < 1:
            raise DegreeOutOfRange(f"eps degree 1 outside caps {caps}")
    directions = sample_directions(seed, n)
    tallies, freq, mean, rejected = _estimate_with_directions(
        curve, directions, tol, phi, caps
    )
    return MeasureEstimate(n, seed, freq, mean, rejected)


def dominant_knotoid(estimate: MeasureEstimate) -> str:
    """Most frequent class; ties break toward the lexicographically least key."""
    if not estimate.class_freq:
        raise EmptyEstimate("estimate has no accepted samples")
    best = min(estimate.class_freq.items(), key=lambda kv: (-kv[1], kv[0]))
    return best[0]


# ---------------------------------------------------------------------------
# knots to knotoids

def knot_to_knotoid(knot_code: OrientedGaussCode, arc: int) -> OrientedGaussCode:
    """Open a closed-curve code at the gap after pass ``arc`` (cyclic rotate).

    For the empty closed code every arc gives the trivial knotoid.
    """
    if type(arc) is not int:
        raise InvalidArgument(f"need an int arc index, got {arc!r}")
    if arc < 0:
        raise ArcOutOfRange("arc index must be non-negative")
    passes = list(knot_code.passes)
    if not passes:
        return OrientedGaussCode([], {})
    if arc >= len(passes):
        raise ArcOutOfRange(f"arc {arc} out of range for {len(passes)} gaps")
    rotated = passes[arc + 1 :] + passes[: arc + 1]
    return OrientedGaussCode(rotated, dict(knot_code.signs)).relabeled()


"""Knottedness statistics of open 3D curves by randomized projection.

A polygonal open curve is projected along a direction drawn uniformly from the
sphere; the projection yields a knotoid diagram (an oriented Gauss code plus a
rotational decomposition with turning-derived rotation tokens), which is
greedily simplified and tallied.  Directions whose projection hits one of the
measure-zero bad configurations (near-parallel overlaps, endpoint grazing,
triple points, crossings near vertices, ambiguous turning) are rejected and
counted.

Geometry runs in double precision with explicit tolerances; class tallies and
invariant averages use exact rational arithmetic, so estimates are bit-stable
across runs and platforms.  Direction sampling uses a counter-based 64-bit
mixer, so sample ``i`` depends only on ``(seed, i)``.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .diagram import (
    Biframing,
    Crossing,
    OrientedGaussCode,
    RotDecomp,
    Rotation,
    writhe,
)
from .errors import (
    AllSamplesDegenerate,
    ArcOutOfRange,
    DegenerateDirection,
    DuplicateConsecutivePoint,
    EmptyEstimate,
    ParseError,
    TooFewPoints,
)
from .series import Caps

Vec3 = tuple[float, float, float]
Vec2 = tuple[float, float]

TRIVIAL_CLASS = "trivial"

# default caps of the zmean invariant average
ZMEAN_CAPS = Caps(1, 2)

# rounding guard for turning angles, in radians, whatever the coordinate
# tolerance; it is the double 1e3 * 1e-9, one ulp above 1e-6, with which the
# pinned projection outputs of the tests and the benchmark were recorded
ANGLE_GUARD = 1.0000000000000002e-06


# ---------------------------------------------------------------------------
# curves

@dataclass(frozen=True)
class OpenCurve3D:
    points: tuple[Vec3, ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise TooFewPoints("a curve needs at least two points")
        for index, p in enumerate(self.points):
            if not all(map(math.isfinite, p)):
                raise ParseError(f"point {index} has a non-finite coordinate: {p}")
        for p, q in zip(self.points, self.points[1:]):
            if p == q:
                raise DuplicateConsecutivePoint(f"repeated consecutive point {p}")

    def translated(self, offset: Vec3) -> "OpenCurve3D":
        ox, oy, oz = offset
        return OpenCurve3D(tuple((x + ox, y + oy, z + oz) for x, y, z in self.points))


def builtin_curve_path(name: str = "open_trefoil") -> str:
    """Filesystem path of a bundled example curve."""
    from importlib.resources import files

    resource = files("knotoidal").joinpath(f"data/{name}.xyz")
    return str(resource)


def load_curve(path) -> OpenCurve3D:
    """Load an ``x y z`` per-line text file; blank lines and # comments allowed."""
    points = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected three coordinates")
            try:
                points.append(tuple(float(p) for p in parts))
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
    direction: Vec3
    code: OrientedGaussCode
    planar_points: tuple[Vec2, ...]
    decomp: RotDecomp
    biframing: Biframing


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


def _wrap_angle(delta: float) -> float:
    while delta <= -math.pi:
        delta += 2.0 * math.pi
    while delta > math.pi:
        delta -= 2.0 * math.pi
    return delta


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


def _segment_crossings(pts2, depth, tol) -> list[dict]:
    """Crossing records of the projected polyline, in ascending ``(i, j)``
    segment-pair order; raises for the first degenerate pair in that order.

    Broad phase: sort the segments' boxes, inflated by ``2 * tol``, by their
    left edge and sweep.  A pair whose inflated boxes are disjoint is more
    than ``4 * tol`` apart, so the narrow phase could neither record nor
    reject it: an overlap needs a gap below ``tol``, and a crossing's point
    lies within ``tol`` of both segments (its parameters may overshoot each
    segment by ``tol`` of length).  The margin beyond that absorbs rounding.
    Adjacent pairs are never candidates: they meet at their shared vertex,
    and a fold-back between them is the cusp guard's case.  The candidates
    then run through the narrow phase in ascending ``(i, j)`` order, so the
    records and the first rejection are those of testing every pair.
    """
    nseg = len(pts2) - 1
    pad = 2.0 * tol
    seg_d = []
    seg_len = []
    xlo, xhi, ylo, yhi = [], [], [], []
    for i in range(nseg):
        (ax, ay), (bx, by) = pts2[i], pts2[i + 1]
        d = (bx - ax, by - ay)
        seg_d.append(d)
        seg_len.append(math.hypot(*d))
        xlo.append(min(ax, bx) - pad)
        xhi.append(max(ax, bx) + pad)
        ylo.append(min(ay, by) - pad)
        yhi.append(max(ay, by) + pad)
    order = sorted(range(nseg), key=xlo.__getitem__)
    candidates = []
    for rank, i in enumerate(order):
        right, low, high = xhi[i], ylo[i], yhi[i]
        for k in range(rank + 1, nseg):
            j = order[k]
            if xlo[j] > right:
                break
            if ylo[j] <= high and low <= yhi[j] and abs(i - j) > 1:
                candidates.append((i, j) if i < j else (j, i))
    candidates.sort()

    crossings = []
    for i, j in candidates:
        a1 = pts2[i]
        da, la = seg_d[i], seg_len[i]
        b1 = pts2[j]
        db, lb = seg_d[j], seg_len[j]
        denom = da[0] * db[1] - da[1] * db[0]
        rhs = (b1[0] - a1[0], b1[1] - a1[1])
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
        t = (rhs[0] * db[1] - rhs[1] * db[0]) / denom
        s = (rhs[0] * da[1] - rhs[1] * da[0]) / denom
        margin_t = tol / max(la, tol)
        margin_s = tol / max(lb, tol)
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
        point = (a1[0] + t * da[0], a1[1] + t * da[1])
        crossings.append(
            {"point": point, "i": i, "t": t, "j": j, "s": s, "za": za, "zb": zb}
        )
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


def project(curve: OpenCurve3D, direction: Vec3, tol: float) -> ProjectionResult:
    """Project along ``direction`` and extract the knotoid diagram.

    Raises :class:`DegenerateDirection` for the measure-zero bad directions;
    callers sampling the sphere catch it and count a rejection.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    norm = math.sqrt(sum(c * c for c in direction))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector within 1e-12")
    e1, e2 = _plane_basis(direction)
    pts2 = tuple(
        (
            p[0] * e1[0] + p[1] * e1[1] + p[2] * e1[2],
            p[0] * e2[0] + p[1] * e2[1] + p[2] * e2[2],
        )
        for p in curve.points
    )
    depth = tuple(
        p[0] * direction[0] + p[1] * direction[1] + p[2] * direction[2]
        for p in curve.points
    )
    nseg = len(pts2) - 1

    # a 3D segment parallel to the view direction projects to a point (cusp)
    for i in range(nseg):
        a1, a2 = pts2[i], pts2[i + 1]
        if math.hypot(a2[0] - a1[0], a2[1] - a1[1]) < tol:
            raise DegenerateDirection("segment parallel to view direction")

    crossings = _segment_crossings(pts2, depth, tol)
    _check_triple_points([rec["point"] for rec in crossings], tol)

    # endpoint grazing another strand
    for endpoint, skip in ((pts2[0], {0}), (pts2[-1], {nseg - 1})):
        for i in range(nseg):
            if i in skip:
                continue
            if _point_segment_distance(endpoint, pts2[i], pts2[i + 1]) < tol:
                raise DegenerateDirection("endpoint within tol of a strand")

    # continuous tangent-angle lift along the polyline
    seg_dirs = [
        (pts2[i + 1][0] - pts2[i][0], pts2[i + 1][1] - pts2[i][1]) for i in range(nseg)
    ]
    lifted = [math.atan2(seg_dirs[0][1], seg_dirs[0][0])]
    for prev, cur in zip(seg_dirs, seg_dirs[1:]):
        delta = _wrap_angle(
            math.atan2(cur[1], cur[0]) - math.atan2(prev[1], prev[0])
        )
        if abs(abs(delta) - math.pi) < ANGLE_GUARD:
            raise DegenerateDirection("projection folds back (cusp)")
        lifted.append(lifted[-1] + delta)

    def snap(angle: float, anchor: float) -> int:
        turns = (angle - anchor) / (2.0 * math.pi)
        nearest = round(turns)
        if abs(abs(turns - nearest) - 0.5) < ANGLE_GUARD / (2.0 * math.pi):
            raise DegenerateDirection("turning ambiguous at half rotation")
        return int(nearest)

    def rotations(spin: int, first_label: int) -> list[Rotation]:
        step = 1 if spin > 0 else -1
        return [Rotation(step, first_label + n) for n in range(abs(spin))]

    # The passes in strand order: (segment, parameter, crossing index).
    # Crossing k is over on its segment i exactly when za > zb.
    events = []
    for k, rec in enumerate(crossings):
        events += ((rec["i"], rec["t"], k), (rec["j"], rec["s"], k))
    events.sort(key=lambda ev: ev[:2])

    # Integer turn marks per pass.  The first pass of each crossing and the
    # leg snap against the upward direction; the partner pass of a crossing
    # and the head anchor to their partner's residual direction instead, so
    # that a rounding flip only ever happens for a crossing as a whole (a
    # full-crossing rotation) or for both endpoints together (a matched pair
    # of endpoint twists).  Both are invariances of the evaluated invariant;
    # independent per-pass rounding would not be.  Rotation tokens fill the
    # gaps between passes, and labels count tokens and passes in strand order.
    mark = snap(lifted[0], 0.5 * math.pi)
    leg_residual = lifted[0] - 2.0 * math.pi * mark
    ids = [0] * len(crossings)  # crossing ids in order of first traversal
    residual = [0.0] * len(crossings)
    labels = [[0, 0] for _ in crossings]  # over and under label
    passes, signs, tokens = [], {}, []
    for seg, _par, k in events:
        rec = crossings[k]
        over_first = rec["za"] > rec["zb"]
        if not ids[k]:
            ids[k] = len(signs) + 1
            di, dj = seg_dirs[rec["i"]], seg_dirs[rec["j"]]
            over_dir, under_dir = (di, dj) if over_first else (dj, di)
            cross = over_dir[0] * under_dir[1] - over_dir[1] * under_dir[0]
            signs[ids[k]] = 1 if cross > 0 else -1
            new_mark = snap(lifted[seg], 0.5 * math.pi)
            residual[k] = lifted[seg] - 2.0 * math.pi * new_mark
        else:
            new_mark = snap(lifted[seg], residual[k])
        tokens += rotations(new_mark - mark, len(tokens) + len(passes) + 1)
        mark = new_mark
        over = (seg == rec["i"]) == over_first
        passes.append((ids[k], "over" if over else "under"))
        labels[k][0 if over else 1] = len(tokens) + len(passes)
    head_mark = snap(lifted[-1], leg_residual)
    tokens += rotations(head_mark - mark, len(tokens) + len(passes) + 1)
    label_count = max(len(tokens) + len(passes), 1)
    tokens += [Crossing(signs[ids[k]], *labels[k]) for k in range(len(crossings))]
    code = OrientedGaussCode(passes, signs)
    decomp = RotDecomp(label_count, tokens)

    # Coframing from winding numbers around the projected endpoints.  No
    # vertex projects onto an endpoint: it would end a segment shorter than
    # tol, or lie within tol of the endpoint on a segment other than the
    # endpoint's own, and both are rejected above.
    def winding(center: Vec2, pts) -> int:
        total = 0.0
        prev = None
        for p in pts:
            ang = math.atan2(p[1] - center[1], p[0] - center[0])
            if prev is not None:
                total += _wrap_angle(ang - prev)
            prev = ang
        return int(round(total / (2.0 * math.pi)))

    n0 = winding(pts2[0], pts2[1:])
    n1 = winding(pts2[-1], pts2[:-1])
    biframing = Biframing(writhe(code), n0 - n1)
    return ProjectionResult(direction, code, pts2, decomp, biframing)


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
    their order, and pending moves in two heaps that are checked when popped.
    A move changes adjacencies only at the junctions it leaves, so only the
    junctions are examined again.
    """
    passes = code.passes
    signs = dict(code.signs)  # the crossings still present
    size = len(passes)
    cid = [c for c, _ in passes]
    role = [r for _, r in passes]
    nxt = list(range(1, size)) + [-1]
    prv = list(range(-1, size - 1))
    where: dict[int, list[int]] = {}
    for k, c in enumerate(cid):
        where.setdefault(c, []).append(k)

    def is_kink(k: int) -> bool:
        return cid[k] in signs and nxt[k] != -1 and cid[nxt[k]] == cid[k]

    def bigon(c1: int, c2: int):
        """Least ``(pos_a, pos_b)`` removing the pair as a bigon, or None.

        A pair is adjacent at most three times, and three times only as
        c1 c2 c1 c2, so ``pos_a`` is always the pair's first adjacency and
        heap order is first-occurrence order."""
        if signs[c1] == signs[c2]:
            return None
        positions = sorted(
            k
            for k in where[c1] + where[c2]
            if nxt[k] != -1 and cid[nxt[k]] != cid[k] and cid[nxt[k]] in (c1, c2)
        )
        # pos_b is never the node after pos_a: there the pair reads c1 c2 c1,
        # and c1's two passes have opposite roles
        for pos_a in positions:
            if role[pos_a] != role[nxt[pos_a]]:
                continue
            for pos_b in positions:
                if pos_b <= pos_a:
                    continue
                if role[pos_b] != role[nxt[pos_b]] or role[pos_b] == role[pos_a]:
                    continue
                return pos_a, pos_b
        return None

    kinks = [k for k in range(size - 1) if cid[k] == cid[k + 1]]
    bigons = []
    pairs = {frozenset((cid[k], cid[k + 1])) for k in range(size - 1)}
    for pair in pairs:
        if len(pair) == 2:
            found = bigon(*pair)
            if found is not None:
                bigons.append((*found, *pair))
    heapq.heapify(bigons)

    def remove(nodes) -> None:
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
        # nodes run left to right, so each left neighbour survives the move
        for p in dict.fromkeys(lefts):
            n = nxt[p]
            if n == -1:
                continue
            if cid[p] == cid[n]:
                heapq.heappush(kinks, p)
            else:
                found = bigon(cid[p], cid[n])
                if found is not None:
                    heapq.heappush(bigons, (*found, cid[p], cid[n]))

    while True:
        while kinks and not is_kink(kinks[0]):
            heapq.heappop(kinks)
        if kinks:
            k = heapq.heappop(kinks)
            remove((k, nxt[k]))
            continue
        while bigons:
            pos_a, pos_b, c1, c2 = heapq.heappop(bigons)
            if c1 in signs and c2 in signs and bigon(c1, c2) == (pos_a, pos_b):
                remove((pos_a, nxt[pos_a], pos_b, nxt[pos_b]))
                break
        else:
            break
    remaining = [p for p in passes if p[0] in signs]
    return OrientedGaussCode(remaining, signs).relabeled()


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
    from .invariant import evaluate_Z

    tallies: dict[str, int] = {}
    rejected = 0
    zsums: dict[tuple, Fraction] = {}
    for direction in directions:
        try:
            proj = project(curve, direction, tol)
        except DegenerateDirection:
            rejected += 1
            continue
        label = class_label(proj.code)
        tallies[label] = tallies.get(label, 0) + 1
        if phi == "zmean":
            value = evaluate_Z(proj.decomp, caps)
            part = value.element.epsilon_part(1)
            for mon, sd in part.raw().items():
                for (e, h), coeff in sd.items():
                    key = (mon, h)
                    zsums[key] = zsums.get(key, Fraction(0)) + coeff
    accepted = sum(tallies.values())
    if accepted == 0:
        raise AllSamplesDegenerate("every sampled direction was degenerate")
    freq = {label: Fraction(count, accepted) for label, count in tallies.items()}
    mean = None
    if phi == "zmean":
        mean = {
            "caps": {"eps_order": caps.eps_order, "hbar_order": caps.hbar_order},
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


def estimate_measure(
    curve: OpenCurve3D,
    n: int,
    seed: int = 0,
    tol: float = 1e-9,
    phi: str = "classes",
    caps: Caps = ZMEAN_CAPS,
) -> MeasureEstimate:
    """Empirical class frequencies (and optionally invariant means) over
    ``n`` uniformly sampled projection directions."""
    if n < 1:
        raise ValueError("need at least one sample")
    if phi not in ("classes", "zmean"):
        raise ValueError(f"unknown phi {phi!r}")
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
    if arc < 0:
        raise ArcOutOfRange("arc index must be non-negative")
    passes = list(knot_code.passes)
    if not passes:
        return OrientedGaussCode([], {})
    if arc >= len(passes):
        raise ArcOutOfRange(f"arc {arc} out of range for {len(passes)} gaps")
    rotated = passes[arc + 1 :] + passes[: arc + 1]
    return OrientedGaussCode(rotated, dict(knot_code.signs)).relabeled()


# ---------------------------------------------------------------------------
# noise for stability experiments

def perturbed(curve: OpenCurve3D, radius: float, seed: int) -> OpenCurve3D:
    """Displace every point by an independent uniform draw from a ball."""
    out = []
    for idx, (x, y, z) in enumerate(curve.points):
        zc = 2.0 * _unit_float(rand64(seed, 3 * idx)) - 1.0
        theta = 2.0 * math.pi * _unit_float(rand64(seed, 3 * idx + 1))
        rad = radius * _unit_float(rand64(seed, 3 * idx + 2)) ** (1.0 / 3.0)
        r = math.sqrt(max(0.0, 1.0 - zc * zc))
        out.append(
            (
                x + rad * r * math.cos(theta),
                y + rad * r * math.sin(theta),
                z + rad * zc,
            )
        )
    return OpenCurve3D(tuple(out))

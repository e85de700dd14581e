"""Slow, independent references for the measure path (test-only).

These are the original quadratic implementations that the sweep-based
crossing search, the sorted triple-point check, the box-filtered endpoint
check and the incremental Gauss-code simplifier in ``knotoidal.measure``
replaced, and the plane basis chosen by ``min`` over the three axes that
``_plane_basis``'s comparisons replaced.  The property tests require the
fast versions to produce exactly what these produce.
:func:`reference_decomposition` rebuilds the rotational decomposition that
``project`` once returned, from which its key must read back.  :func:`reference_zmean_mean` is the ``zmean`` mean by the sums of
exact ``Fraction`` elements that the estimator's integer sums replaced.
:func:`perturbed` adds seeded noise to a curve for the stability tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from unittest import mock

from knotoidal import measure
from knotoidal.diagram import Crossing, OrientedGaussCode, RotDecomp, Rotation
from knotoidal.errors import DegenerateDirection, InvalidArgument
from knotoidal.invariant import _evaluate_key
from knotoidal.measure import OpenCurve3D, _check_seed, _cross3, _point_segment_distance, _unit_float, rand64


def reference_plane_basis(v):
    """The basis ``(e1, e2)`` of the plane normal to ``v`` from the axis
    that ``min`` finds least aligned with ``v``, the first one on a tie."""
    axes = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    helper = min(axes, key=lambda ax: abs(ax[0] * v[0] + ax[1] * v[1] + ax[2] * v[2]))
    e1 = _cross3(helper, v)
    norm = math.sqrt(sum(c * c for c in e1))
    e1 = tuple(c / norm for c in e1)
    e2 = _cross3(v, e1)
    return e1, e2


def all_pairs_crossings(pts2, depth, tol, dirs, lengths, boxes):
    """Test every segment pair in ascending ``(i, j)`` order; each crossing's
    sign is the cross product of its over- and under-strand directions.
    Ignores the segment table of ``measure.project`` and computes its own."""
    nseg = len(pts2) - 1
    crossings = []
    for i in range(nseg):
        a1, a2 = pts2[i], pts2[i + 1]
        da = (a2[0] - a1[0], a2[1] - a1[1])
        la = math.hypot(*da)
        for j in range(i + 1, nseg):
            b1, b2 = pts2[j], pts2[j + 1]
            db = (b2[0] - b1[0], b2[1] - b1[1])
            lb = math.hypot(*db)
            denom = da[0] * db[1] - da[1] * db[0]
            rhs = (b1[0] - a1[0], b1[1] - a1[1])
            if abs(denom) <= tol * la * lb:
                if j == i + 1:
                    continue
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
            if j == i + 1:
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
            over_first = za > zb
            over_dir, under_dir = (da, db) if over_first else (db, da)
            cross = over_dir[0] * under_dir[1] - over_dir[1] * under_dir[0]
            sign = 1 if cross > 0 else -1
            crossings.append((i, t, j, s, over_first, sign, point))
    return crossings


def all_pairs_triple_points(points, tol):
    """Test every pair of crossing points."""
    for m in range(len(points)):
        for n in range(m + 1, len(points)):
            pm, pn = points[m], points[n]
            if math.hypot(pm[0] - pn[0], pm[1] - pn[1]) < tol:
                raise DegenerateDirection("two crossings within tol (triple point)")


def all_segments_grazing(pts2, tol, boxes):
    """Test each endpoint against every segment but its own; ignores the
    segment boxes of ``measure.project``."""
    nseg = len(pts2) - 1
    for endpoint, own in ((pts2[0], 0), (pts2[-1], nseg - 1)):
        for i in range(nseg):
            if i != own and _point_segment_distance(endpoint, pts2[i], pts2[i + 1]) < tol:
                raise DegenerateDirection("endpoint within tol of a strand")


def reference_project(curve, direction, tol):
    """``measure.project`` with both pair searches replaced by all-pairs loops
    and the endpoint check by an all-segments loop."""
    with mock.patch.object(measure, "_segment_crossings", all_pairs_crossings), \
            mock.patch.object(measure, "_check_triple_points", all_pairs_triple_points), \
            mock.patch.object(measure, "_check_endpoint_grazing", all_segments_grazing):
        return measure.project(curve, direction, tol)


def reference_decomposition(curve, direction, tol):
    """``(measure.project(curve, direction, tol), decomposition)``.

    The decomposition is the one ``project`` built before it returned the
    ``(code, rho, r)`` key, assembled from the same turn marks: whole-turn
    rotation tokens fill the gaps between passes, and labels count tokens
    and passes in strand order.  ``project`` runs once, with its crossing
    search wrapped to record the crossings and the segment directions; a
    rejected direction raises as it does.  The decomposition goes through
    the checking constructor.
    """
    search, recorded = measure._segment_crossings, []

    def recording(*args):
        crossings = search(*args)
        recorded.append((crossings, args[3]))
        return crossings

    with mock.patch.object(measure, "_segment_crossings", recording):
        proj = measure.project(curve, direction, tol)
    (crossings, dirs), = recorded

    # the tangent-angle lift and the snapping of project, whose rejections
    # it has passed
    angles = [math.atan2(dy, dx) for dx, dy in dirs]
    lifted = [angles[0]]
    for prev, cur in zip(angles, angles[1:]):
        delta = cur - prev
        if delta <= -math.pi:
            delta += 2.0 * math.pi
        elif delta > math.pi:
            delta -= 2.0 * math.pi
        lifted.append(lifted[-1] + delta)

    def snap(angle, anchor):
        return int(round((angle - anchor) / (2.0 * math.pi)))

    def rotations(spin, first_label):
        step = 1 if spin > 0 else -1
        return [Rotation(step, first_label + n) for n in range(abs(spin))]

    events = []
    for k, (i, t, j, s, *_) in enumerate(crossings):
        events += ((i, t, k), (j, s, k))
    events.sort(key=lambda ev: ev[:2])

    mark = snap(lifted[0], 0.5 * math.pi)
    leg_residual = lifted[0] - 2.0 * math.pi * mark
    ids = [0] * len(crossings)
    residual = [0.0] * len(crossings)
    labels = [[0, 0] for _ in crossings]  # over and under label
    passes, signs, tokens = 0, {}, []
    for seg, _par, k in events:
        i, _, _, _, over_first, sign, _ = crossings[k]
        if not ids[k]:
            ids[k] = len(signs) + 1
            signs[ids[k]] = sign
            new_mark = snap(lifted[seg], 0.5 * math.pi)
            residual[k] = lifted[seg] - 2.0 * math.pi * new_mark
        else:
            new_mark = snap(lifted[seg], residual[k])
        if new_mark != mark:
            tokens += rotations(new_mark - mark, len(tokens) + passes + 1)
            mark = new_mark
        over = (seg == i) == over_first
        passes += 1
        labels[k][0 if over else 1] = len(tokens) + passes
    head_mark = snap(lifted[-1], leg_residual)
    tokens += rotations(head_mark - mark, len(tokens) + passes + 1)
    label_count = max(len(tokens) + passes, 1)
    tokens += [Crossing(signs[ids[k]], *labels[k]) for k in range(len(crossings))]
    return proj, RotDecomp(label_count, tokens)


def _try_r1(passes, signs):
    for idx in range(len(passes) - 1):
        if passes[idx][0] == passes[idx + 1][0]:
            cid = passes[idx][0]
            new_passes = passes[:idx] + passes[idx + 2 :]
            new_signs = {k: v for k, v in signs.items() if k != cid}
            return new_passes, new_signs
    return None


def _try_r2(passes, signs):
    adjacency: dict[frozenset, list[int]] = {}
    for idx in range(len(passes) - 1):
        (c1, _), (c2, _) = passes[idx], passes[idx + 1]
        if c1 == c2:
            continue
        adjacency.setdefault(frozenset((c1, c2)), []).append(idx)
    for pair, positions in adjacency.items():
        if len(positions) < 2:
            continue
        c1, c2 = tuple(pair)
        if signs[c1] == signs[c2]:
            continue
        for pos_a in positions:
            roles_a = {passes[pos_a][1], passes[pos_a + 1][1]}
            if len(roles_a) != 1:
                continue
            for pos_b in positions:
                if pos_b <= pos_a:
                    continue
                if pos_b == pos_a + 1:
                    continue
                roles_b = {passes[pos_b][1], passes[pos_b + 1][1]}
                if len(roles_b) != 1 or roles_a == roles_b:
                    continue
                drop = {pos_a, pos_a + 1, pos_b, pos_b + 1}
                new_passes = [p for n, p in enumerate(passes) if n not in drop]
                new_signs = {k: v for k, v in signs.items() if k not in pair}
                return new_passes, new_signs
    return None


def reference_simplify_gauss(code: OrientedGaussCode) -> OrientedGaussCode:
    """Rescan the whole code after every move: first kink by position, else
    the first removable bigon in first-occurrence order."""
    passes = list(code.passes)
    signs = dict(code.signs)
    while True:
        hit = _try_r1(passes, signs) or _try_r2(passes, signs)
        if hit is None:
            break
        passes, signs = hit
    return OrientedGaussCode(passes, signs).relabeled()


def perturbed(curve: OpenCurve3D, radius: float, seed: int) -> OpenCurve3D:
    """Displace every point by an independent uniform draw from a ball of
    the given radius, a finite int or float >= 0."""
    if type(radius) not in (int, float) or not 0 <= radius < math.inf:
        raise InvalidArgument(f"need a finite radius >= 0, got {radius!r}")
    _check_seed(seed)
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


def reference_zmean_mean(counted_keys: dict, caps) -> dict:
    """The ``invariant_mean`` of ``zmean`` for ``(code, rho, r)`` keys
    counted ``{key: count}``: each key's eps^1 part, an exact element, times
    its count, summed as ``Fraction``s per ``(monomial, h)`` and divided by
    the total count.  A ``(monomial, h)`` that any key's part holds stays,
    even at a zero total.  The keys are evaluated as they are, unreduced."""
    zsums = {}
    for key, count in counted_keys.items():
        part = _evaluate_key(key, caps).epsilon_part(1)
        for mon, sd in part.raw().items():
            for (e, h), coeff in sd.items():
                zsums[mon, h] = zsums.get((mon, h), Fraction(0)) + count * coeff
    accepted = sum(counted_keys.values())
    return {
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

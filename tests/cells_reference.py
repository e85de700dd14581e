"""The exact cells of the sphere of view directions of an open curve
(test-only), an oracle for ``measure.project``.

Along a view direction v the projected knotoid changes only where a line
through an endpoint parallel to v meets the curve: there an endpoint passes
over or under a strand, the forbidden move.  Those v form four spherical
polylines: the leg's shadow, the unit vectors ``(p_i - p_0)/|p_i - p_0|`` for
i >= 1; the head's shadow, ``(p_i - p_n)/|p_i - p_n|`` for i < n; and the
antipodes of both.  Consecutive points are joined by minor great-circle arcs,
the directions to one segment's points.  So a knotoid invariant is constant
on each cell of the arrangement of these arcs, and a measure is exactly the
sum over cells of area times value.

:class:`Cells` builds the arrangement in floats, standard library only:

- *Vertices*: the polylines' points, and every crossing of two arcs, found by
  sign tests on their great circles' normals.  The leg shadow's last point
  and the antipodal head shadow's first point are both the direction of
  ``p_n - p_0``; they are one vertex, and so are their antipodes.
- *One component*: each polyline's first point is joined to one fixed anchor
  by two arcs of at most a quarter circle, so every face is a disk.  The
  extra arcs only refine the cells.
- *Faces*: each vertex's neighbours are sorted counter-clockwise in its
  tangent plane, and faces are traced with the face on the left: the next
  dart is the one just clockwise from the reverse dart.
- *Areas*: Gauss-Bonnet for geodesic polygons, area = sum of interior angles
  - (k - 2) pi over the face's k corners; a dangling tip's angle is 2 pi.
- *Point location*: s lies in face F when the signed solid angles of the
  triangles ``(-s, a, b)`` over F's darts ``(a, b)`` sum to area(F) - 4 pi,
  not area(F) (Van Oosterom and Strackee's formula, IEEE Trans. Biomed.
  Eng. 30, 1983).  A face of area below 2 pi whose corners lie within a
  quarter circle of their mean lies in that cap, which skips most faces.
"""

from __future__ import annotations

import math

_TWO_PI = 2.0 * math.pi


def _add(u, v):
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def _sub(u, v):
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _neg(u):
    return (-u[0], -u[1], -u[2])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _unit(u):
    size = math.sqrt(_dot(u, u))
    return (u[0] / size, u[1] / size, u[2] / size)


def _angle(u, v) -> float:
    """The angle between unit vectors ``u`` and ``v``."""
    c = _cross(u, v)
    return math.atan2(math.sqrt(_dot(c, c)), _dot(u, v))


def _solid_angle(r1, r2, r3) -> float:
    """The signed area of the spherical triangle of unit vectors r1, r2, r3,
    positive when they run counter-clockwise seen from outside."""
    return 2.0 * math.atan2(_dot(r1, _cross(r2, r3)), 1.0 + _dot(r1, r2) + _dot(r2, r3) + _dot(r3, r1))


def _inside_arc(x, a, b, normal) -> bool:
    """Whether the unit vector x lies strictly inside the minor arc from a
    to b, whose great circle has the normal ``a x b``."""
    return _dot(_cross(a, x), normal) > 0.0 and _dot(_cross(x, b), normal) > 0.0


# a direction in general position, off every curve of the tests
ANCHOR = _unit((0.3141592653589793, -0.2718281828459045, 0.9092974268256817))


class Cells:
    """The cells of a curve's view directions: ``faces[k]`` lists the
    corners of face k in order, the face on the left of each dart, and
    ``areas[k]`` is its area.  ``counts`` is (V, E, F)."""

    def __init__(self, points):
        p0, pn = points[0], points[-1]
        leg = [_unit(_sub(p, p0)) for p in points[1:]]
        head = [_unit(_sub(p, pn)) for p in points[:-1]]
        self.vertices = vertices = []

        def add(u) -> int:
            vertices.append(u)
            return len(vertices) - 1

        leg_ids = [add(u) for u in leg]
        antileg_ids = [add(_neg(u)) for u in leg]
        head_ids = antileg_ids[-1:] + [add(u) for u in head[1:]]
        antihead_ids = leg_ids[-1:] + [add(_neg(u)) for u in head[1:]]
        polylines = (leg_ids, antileg_ids, head_ids, antihead_ids)
        arcs = [(a, b) for ids in polylines for a, b in zip(ids, ids[1:])]
        anchor = add(ANCHOR)
        for first in dict.fromkeys(ids[0] for ids in polylines):
            middle = add(_unit(_add(vertices[first], ANCHOR)))
            arcs += [(first, middle), (middle, anchor)]

        # split every arc at its crossings; arcs that share an endpoint meet
        # only there, and arcs on one great circle (an arc and its antipode,
        # two connectors) do not cross
        normals = [_cross(vertices[a], vertices[b]) for a, b in arcs]
        splits = [[] for _ in arcs]
        for k, (a, b) in enumerate(arcs):
            n1 = normals[k]
            for m in range(k + 1, len(arcs)):
                c, d = arcs[m]
                if a in (c, d) or b in (c, d):
                    continue
                n2 = normals[m]
                x = _cross(n1, n2)
                size = math.sqrt(_dot(x, x))
                if size <= 1e-12 * math.sqrt(_dot(n1, n1) * _dot(n2, n2)):
                    continue
                x = (x[0] / size, x[1] / size, x[2] / size)
                for y in (x, _neg(x)):
                    if _inside_arc(y, vertices[a], vertices[b], n1) and _inside_arc(
                        y, vertices[c], vertices[d], n2
                    ):
                        v = add(y)
                        splits[k].append((_angle(vertices[a], y), v))
                        splits[m].append((_angle(vertices[c], y), v))
        edges = set()
        for (a, b), inner in zip(arcs, splits):
            chain = [a, *(v for _, v in sorted(inner)), b]
            edges.update((u, v) if u < v else (v, u) for u, v in zip(chain, chain[1:]))

        # each vertex's neighbours counter-clockwise, seen from outside
        neighbours = [[] for _ in vertices]
        for u, v in edges:
            neighbours[u].append(v)
            neighbours[v].append(u)
        self.heading = heading = {}
        for v, around in enumerate(neighbours):
            x = vertices[v]
            e = _unit(_cross(x, (1.0, 0.0, 0.0) if abs(x[0]) < 0.9 else (0.0, 1.0, 0.0)))
            f = _cross(x, e)
            for w in around:
                heading[v, w] = math.atan2(_dot(vertices[w], f), _dot(vertices[w], e))
            around.sort(key=lambda w: heading[v, w])
        rank = {(v, w): i for v, around in enumerate(neighbours) for i, w in enumerate(around)}

        self.faces, seen = [], set()
        for dart in rank:
            face = []
            u, v = dart
            while (u, v) not in seen:
                seen.add((u, v))
                face.append(u)
                u, v = v, neighbours[v][rank[v, u] - 1]
            if face:
                self.faces.append(face)
        self.areas = [self._area(face) for face in self.faces]
        self.counts = (len(vertices), len(edges), len(self.faces))

        # a bounding cap (centre, cos of radius) of each face that has one
        self.caps = []
        for face, area in zip(self.faces, self.areas):
            total = (0.0, 0.0, 0.0)
            for v in face:
                total = _add(total, vertices[v])
            cap = None
            if area < _TWO_PI and _dot(total, total) > 1e-24:
                centre = _unit(total)
                cos_radius = min(_dot(centre, vertices[v]) for v in face)
                if cos_radius > 1e-9:
                    cap = (centre, cos_radius - 1e-9)
            self.caps.append(cap)

    def _area(self, face) -> float:
        heading, k, total = self.heading, len(face), 0.0
        for i, v in enumerate(face):
            inner = (heading[v, face[i - 1]] - heading[v, face[(i + 1) % k]]) % _TWO_PI
            total += inner if inner > 0.0 else _TWO_PI
        return total - (k - 2) * math.pi

    def locate(self, s) -> list[int]:
        """The faces that hold the unit vector ``s``: one, unless ``s`` lies
        on an edge."""
        minus, vertices, hits = _neg(s), self.vertices, []
        for index, (face, area, cap) in enumerate(zip(self.faces, self.areas, self.caps)):
            if cap is not None and _dot(cap[0], s) < cap[1]:
                continue
            total = sum(
                _solid_angle(minus, vertices[face[i - 1]], vertices[v]) for i, v in enumerate(face)
            )
            if abs(total - (area - 2.0 * _TWO_PI)) < 1.0:
                hits.append(index)
        return hits

    def interior_directions(self, index):
        """Directions inside face ``index``, checked by :meth:`locate`: for
        each of its edges, longest first, the edge's midpoint moved to the
        left by the first of 1e-3 to 1e-6 of the edge's length that lands
        inside."""
        face, vertices = self.faces[index], self.vertices
        darts = sorted(
            zip(face[-1:] + face[:-1], face), key=lambda e: -_angle(vertices[e[0]], vertices[e[1]])
        )
        for a, b in darts:
            u, v = vertices[a], vertices[b]
            middle, length = _unit(_add(u, v)), _angle(u, v)
            left = _unit(_cross(middle, _sub(v, u)))
            for scale in (1e-3, 1e-4, 1e-5, 1e-6):
                s = _unit(_add(middle, tuple(scale * length * c for c in left)))
                if self.locate(s) == [index]:
                    yield s
                    break

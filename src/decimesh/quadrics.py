"""Plane-sum error quadrics and the optimal-placement solve.

A vertex's quadric is the sum of outer products p p^T over the
homogeneous planes [a b c d] of its incident triangles, with unit
normals, so evaluating the quadric at a point gives the sum of squared
point-plane distances. Packed symmetric storage (10 floats) keeps the
decimation hot loop off numpy's small-array overhead.

:func:`plane_quadric_rows` and :func:`minimize_packed` are the batched
twins of the plane quadric and of :func:`minimize_quadric`, for the
decimation queue. Both sides call one formula for the triangle plane,
the quadric value, the 3x3 solve and the segment minimum, on floats or
on arrays with one value per edge, so they agree bit for bit.
:func:`minimize_packed` returns the whole :func:`candidate_set` it
picks from, which every cost kind reads, and :func:`first_cheapest` is
the one picker.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import IsolatedVertex
from .geometry import EPS_AREA, dot, midpoint, sub, triangle_normal

# |det| below this multiple of (mean row norm)^3 counts as singular in
# the 3x3 placement solve; scale-aware so uniform scaling cannot flip
# the branch taken.
DET_GUARD = 1e-12


class HomogeneousPlane(NamedTuple):
    """Plane a*x + b*y + c*z + d = 0 with (a, b, c) a unit normal."""

    a: float
    b: float
    c: float
    d: float

    @classmethod
    def from_triangle(cls, p0, p1, p2):
        """Oriented plane of a triangle; None when the triangle is degenerate."""
        n, m = triangle_normal(p0, p1, p2, math.sqrt)
        if m <= 2.0 * EPS_AREA:
            return None
        return cls(*_unit_plane(n, m, p0))

    def distance(self, p):
        """Signed distance from point p to the plane."""
        return self.a * p[0] + self.b * p[1] + self.c * p[2] + self.d


class Quadric(NamedTuple):
    """Symmetric 4x4 form stored as its 10 unique entries."""

    xx: float
    xy: float
    xz: float
    xw: float
    yy: float
    yz: float
    yw: float
    zz: float
    zw: float
    ww: float

    @classmethod
    def from_planes(cls, planes):
        """Sum of p p^T over an iterable of (a, b, c, d) planes."""
        xx = xy = xz = xw = yy = yz = yw = zz = zw = ww = 0.0
        for (a, b, c, d) in planes:
            xx += a * a; xy += a * b; xz += a * c; xw += a * d
            yy += b * b; yz += b * c; yw += b * d
            zz += c * c; zw += c * d
            ww += d * d
        return cls(xx, xy, xz, xw, yy, yz, yw, zz, zw, ww)

    def __add__(self, other):
        return Quadric(
            self.xx + other.xx, self.xy + other.xy, self.xz + other.xz,
            self.xw + other.xw, self.yy + other.yy, self.yz + other.yz,
            self.yw + other.yw, self.zz + other.zz, self.zw + other.zw,
            self.ww + other.ww,
        )

    def evaluate(self, p):
        """[p, 1]^T Q [p, 1]: the summed squared plane distances at p."""
        return _quadric_value(self, p)


def vertex_quadric(mesh, v) -> Quadric:
    """Quadric of vertex ``v`` from the planes of its incident triangles.

    Degenerate incident triangles contribute nothing; a vertex with no
    nondegenerate incident triangle raises ``IsolatedVertex``. The
    planes have unit normals, so the quadric is an exact sum of squared
    distances.
    """
    planes = []
    for t in mesh.incident_triangles(v):
        plane = HomogeneousPlane.from_triangle(*mesh.triangle_positions(t))
        if plane is not None:
            planes.append(plane)
    if not planes:
        raise IsolatedVertex(f"vertex {v} has no nondegenerate incident triangle")
    return Quadric.from_planes(planes)


def f_qe(q1: Quadric, q2: Quadric, vbar) -> float:
    """Combined-quadric collapse cost at placement vbar."""
    return (q1 + q2).evaluate(vbar)


def minimize_quadric(q: Quadric, p1, p2):
    """Placement minimizing a PSD quadric, with a total fallback chain.

    Solves the 3x3 stationarity system when its determinant passes a
    scale-aware guard; otherwise minimizes along the segment (p1, p2);
    otherwise falls back to the discrete set. The returned point is
    always the cheapest of {midpoint, p1, p2, analytic candidate}, ties
    broken in that order, so it can never be worse than the discrete
    fallbacks.
    """
    c1, c2, c3, det, scale = _solve_terms(q, math.sqrt)
    analytic = None
    if abs(det) > DET_GUARD * scale * scale * scale:
        analytic = _cramer(q, c1, c2, c3, det)
    else:
        d = sub(p2, p1)
        curv = _curvature(q, d)
        if curv > DET_GUARD * scale * dot(d, d) and curv > 0.0:
            t = _segment_t(q, p1, d, curv)
            t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
            analytic = _along(p1, t, d)

    best = mid = midpoint(p1, p2)
    best_cost = q.evaluate(mid)
    for cand in (p1, p2, analytic):
        if cand is None:
            continue
        c = q.evaluate(cand)
        if c < best_cost:
            best, best_cost = cand, c
    return best


# -- the formulas both sides share ------------------------------------------
#
# Each runs unchanged on floats, for the scalar functions above, and on
# arrays, for the packed twins below: a quadric ``q`` is then a tuple of
# its 10 entry rows, unpacked once by the caller, and a point (3, ...).


def _unit_plane(n, m, p0):
    """(a, b, c, d): the plane through p0 with normal n of length m."""
    a, b, c = n[0] / m, n[1] / m, n[2] / m
    return a, b, c, -(a * p0[0] + b * p0[1] + c * p0[2])


def _quadric_value(q, p):
    """[p, 1]^T Q [p, 1] of the packed quadric q."""
    xx, xy, xz, xw, yy, yz, yw, zz, zw, ww = q
    x, y, z = p[0], p[1], p[2]
    return (xx * x * x + yy * y * y + zz * z * z + ww
            + 2.0 * (xy * x * y + xz * x * z + yz * y * z + xw * x + yw * y + zw * z))


def _solve_terms(q, sqrt):
    """The first-row cofactors (c1, c2, c3) of the 3x3 block A of q,
    its determinant and its mean row norm, the scale of the guard."""
    xx, xy, xz, _, yy, yz, _, zz, _, _ = q
    c1 = yy * zz - yz * yz
    c2 = xy * zz - yz * xz
    c3 = xy * yz - yy * xz
    sq_xy, sq_xz, sq_yz = xy * xy, xz * xz, yz * yz
    scale = (sqrt(xx * xx + sq_xy + sq_xz) + sqrt(sq_xy + yy * yy + sq_yz)
             + sqrt(sq_xz + sq_yz + zz * zz)) / 3.0
    return c1, c2, c3, xx * c1 - xy * c2 + xz * c3, scale


def _cramer(q, c1, c2, c3, det):
    """Cramer's rule for A x = -b, from :func:`_solve_terms`'s cofactors
    and determinant."""
    xx, xy, xz, xw, yy, yz, yw, zz, zw, _ = q
    e1 = yw * zz - yz * zw
    e3 = xy * zw - yw * xz
    inv = -(1.0 / det)
    return (inv * (xw * c1 - xy * e1 + xz * (yw * yz - yy * zw)),
            inv * (xx * e1 - xw * c2 + xz * e3),
            inv * (xx * (yy * zw - yw * yz) - xy * e3 + xw * c3))


def _curvature(q, d):
    """d^T A d: how the quadric curves along the direction d."""
    xx, xy, xz, _, yy, yz, _, zz, _, _ = q
    dx, dy, dz = d[0], d[1], d[2]
    return (dx * (xx * dx + xy * dy + xz * dz)
            + dy * (xy * dx + yy * dy + yz * dz)
            + dz * (xz * dx + yz * dy + zz * dz))


def _segment_t(q, p1, d, curv):
    """The unclamped t minimizing q along p1 + t d: -d^T (A p1 + b) / curv."""
    xx, xy, xz, xw, yy, yz, yw, zz, zw, _ = q
    x1, y1, z1 = p1[0], p1[1], p1[2]
    return -(d[0] * (xx * x1 + xy * y1 + xz * z1 + xw)
             + d[1] * (xy * x1 + yy * y1 + yz * z1 + yw)
             + d[2] * (xz * x1 + yz * y1 + zz * z1 + zw)) / curv


def _along(p1, t, d):
    return (p1[0] + t * d[0], p1[1] + t * d[1], p1[2] + t * d[2])


# -- packed (rows of 10 floats) twins of the scalar functions above --------


# upper-triangle index pairs (i, j) of p p^T in packed Quadric order
_PACK_I = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 3])
_PACK_J = np.array([0, 1, 2, 3, 1, 2, 3, 2, 3, 3])


def packed_outer(rows):
    """Packed ``p p^T`` (T, 10) of the (4, T) coordinate-first rows p."""
    return (rows[_PACK_I] * rows[_PACK_J]).T


def plane_quadric_rows(vertices, tris):
    """Packed plane quadric of each (T, 3) triangle row, and which rows
    are nondegenerate (``HomogeneousPlane.from_triangle`` not None).

    Each nondegenerate row is the term the scalar plane sum adds for
    that triangle in :func:`vertex_quadric`; degenerate rows hold junk.
    """
    p = vertices[tris].T
    n, m = triangle_normal(p[:, 0], p[:, 1], p[:, 2], np.sqrt)
    with np.errstate(divide="ignore", invalid="ignore"):
        plane = np.array(_unit_plane(n, m, p[:, 0]))
    return packed_outer(plane), ~(m <= 2.0 * EPS_AREA)


def candidate_set(p1, p2):
    """The discrete placements {midpoint, p1, p2, fourth} of E edges
    from (E, 3) arrays, coordinate-first: (3, 4, E); row 3, the fourth
    point, is left for the caller to set."""
    cands = np.empty((3, 4, len(p1)))
    cands[:, 1] = p1.T
    cands[:, 2] = p2.T
    np.multiply(0.5, cands[:, 1] + cands[:, 2], out=cands[:, 0])
    return cands


def first_cheapest(cands, costs):
    """The first cheapest of (3, 4, E) candidates by their (4, E) costs,
    as the scalar loops' strict ``<`` picks: (points (E, 3), costs (E,))."""
    pick = costs.argmin(axis=0)
    edges = np.arange(len(pick))
    return cands[:, pick, edges].T, costs[pick, edges]


def minimize_packed(q, p1, p2):
    """:func:`minimize_quadric` for (E, 10) packed quadrics and (E, 3)
    endpoints, one row per edge, with ``Quadric.evaluate`` at each
    candidate.

    Returns (candidates (3, 4, E), costs (4, E)): the
    :func:`candidate_set` of the edges with the scalar result, bit for
    bit, branch choices and tie order included, in row 3, and the costs
    there (``inf`` for a NaN cost but at the midpoint).
    """
    q = tuple(np.ascontiguousarray(q.T))
    cands = candidate_set(p1, p2)
    analytic = cands[:, 3]
    with np.errstate(all="ignore"):
        c1, c2, c3, det, scale = _solve_terms(q, np.sqrt)
        solvable = np.abs(det) > DET_GUARD * scale * scale * scale
        analytic[0], analytic[1], analytic[2] = _cramer(q, c1, c2, c3, det)

        if not solvable.all():
            # the minimum along the segment, where it curves up, from
            # the coordinate-first endpoints
            p1, p2 = cands[:, 1], cands[:, 2]
            d = sub(p2, p1)
            curv = _curvature(q, d)
            t = _segment_t(q, p1, d, curv)
            t = np.where(t < 0.0, 0.0, np.where(t > 1.0, 1.0, t))
            # NaN, no point, where the segment does not curve up
            t[~((curv > DET_GUARD * scale * dot(d, d)) & (curv > 0.0))] = np.nan
            fallback = ~solvable
            analytic[:, fallback] = np.array(_along(p1, t, d))[:, fallback]

        # Quadric.evaluate at each candidate; ties and NaN (no analytic
        # point) resolve as the scalar loop's strict "<" does
        costs = _quadric_value(q, cands)
        costs[1:][np.isnan(costs[1:])] = np.inf
    point, costs[3] = first_cheapest(cands, costs)
    analytic[:] = point.T
    return cands, costs

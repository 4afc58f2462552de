"""Plane-sum error quadrics and the optimal-placement solve.

A vertex's quadric is the sum of outer products p p^T over the
homogeneous planes [a b c d] of its incident triangles, with unit
normals, so evaluating the quadric at a point gives the sum of squared
point-plane distances. Packed symmetric storage (10 floats) keeps the
decimation hot loop off numpy's small-array overhead.

:func:`plane_quadric_rows` and :func:`minimize_packed` are the batched
twins of the plane quadric and of :func:`minimize_quadric`, for the
decimation queue; they equal the scalar functions bit for bit.
:func:`minimize_packed` returns the whole :func:`candidate_set` it
picks from, which every cost kind reads, and :func:`first_cheapest` is
the one picker.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import IsolatedVertex
from .geometry import EPS_AREA, cross, dot, sub

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
        n = cross(sub(p1, p0), sub(p2, p0))
        m = math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])
        if m <= 2.0 * EPS_AREA:
            return None
        a, b, c = n[0] / m, n[1] / m, n[2] / m
        return cls(a, b, c, -(a * p0[0] + b * p0[1] + c * p0[2]))

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
    def zero(cls):
        return _ZERO

    @classmethod
    def from_plane(cls, plane):
        a, b, c, d = plane
        return cls(
            a * a, a * b, a * c, a * d,
            b * b, b * c, b * d,
            c * c, c * d,
            d * d,
        )

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
        x, y, z = p[0], p[1], p[2]
        return (
            self.xx * x * x + self.yy * y * y + self.zz * z * z + self.ww
            + 2.0 * (
                self.xy * x * y + self.xz * x * z + self.yz * y * z
                + self.xw * x + self.yw * y + self.zw * z
            )
        )

    def matrix(self):
        """Dense symmetric 4x4 numpy view of the packed entries."""
        return np.array(
            [
                [self.xx, self.xy, self.xz, self.xw],
                [self.xy, self.yy, self.yz, self.yw],
                [self.xz, self.yz, self.zz, self.zw],
                [self.xw, self.yw, self.zw, self.ww],
            ]
        )

    def trace(self):
        return self.xx + self.yy + self.zz + self.ww


_ZERO = Quadric(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


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
    a11, a12, a13 = q.xx, q.xy, q.xz
    a22, a23, a33 = q.yy, q.yz, q.zz
    b1, b2, b3 = q.xw, q.yw, q.zw

    det = (
        a11 * (a22 * a33 - a23 * a23)
        - a12 * (a12 * a33 - a23 * a13)
        + a13 * (a12 * a23 - a22 * a13)
    )
    r1 = math.sqrt(a11 * a11 + a12 * a12 + a13 * a13)
    r2 = math.sqrt(a12 * a12 + a22 * a22 + a23 * a23)
    r3 = math.sqrt(a13 * a13 + a23 * a23 + a33 * a33)
    scale = (r1 + r2 + r3) / 3.0

    analytic = None
    if abs(det) > DET_GUARD * scale * scale * scale:
        inv = 1.0 / det
        # Cramer's rule for A x = -b
        analytic = (
            -inv * (b1 * (a22 * a33 - a23 * a23)
                    - a12 * (b2 * a33 - a23 * b3)
                    + a13 * (b2 * a23 - a22 * b3)),
            -inv * (a11 * (b2 * a33 - a23 * b3)
                    - b1 * (a12 * a33 - a13 * a23)
                    + a13 * (a12 * b3 - b2 * a13)),
            -inv * (a11 * (a22 * b3 - b2 * a23)
                    - a12 * (a12 * b3 - b2 * a13)
                    + b1 * (a12 * a23 - a22 * a13)),
        )
    else:
        d = sub(p2, p1)
        ad = (
            a11 * d[0] + a12 * d[1] + a13 * d[2],
            a12 * d[0] + a22 * d[1] + a23 * d[2],
            a13 * d[0] + a23 * d[1] + a33 * d[2],
        )
        curv = dot(d, ad)
        if curv > DET_GUARD * scale * dot(d, d) and curv > 0.0:
            ap1 = (
                a11 * p1[0] + a12 * p1[1] + a13 * p1[2] + b1,
                a12 * p1[0] + a22 * p1[1] + a23 * p1[2] + b2,
                a13 * p1[0] + a23 * p1[1] + a33 * p1[2] + b3,
            )
            t = -dot(d, ap1) / curv
            t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
            analytic = (p1[0] + t * d[0], p1[1] + t * d[1], p1[2] + t * d[2])

    mid = (0.5 * (p1[0] + p2[0]), 0.5 * (p1[1] + p2[1]), 0.5 * (p1[2] + p2[2]))
    best = mid
    best_cost = q.evaluate(mid)
    for cand in (p1, p2, analytic):
        if cand is None:
            continue
        c = q.evaluate(cand)
        if c < best_cost:
            best, best_cost = cand, c
    return best


# -- packed (rows of 10 floats) twins of the scalar functions above --------
#
# Component arithmetic in the scalar functions' operation order, with no
# fused or reordered sums, so every row equals its scalar counterpart
# bit for bit.


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
    p = vertices[tris]
    p0 = p[:, 0].T
    ux, uy, uz = (p[:, 1] - p[:, 0]).T
    vx, vy, vz = (p[:, 2] - p[:, 0]).T
    plane = np.empty((4, len(p)))
    a, b, c, d = plane
    np.subtract(uy * vz, uz * vy, out=a)
    np.subtract(uz * vx, ux * vz, out=b)
    np.subtract(ux * vy, uy * vx, out=c)
    m = np.sqrt(a * a + b * b + c * c)
    with np.errstate(divide="ignore", invalid="ignore"):
        plane[:3] /= m
    np.negative(a * p0[0] + b * p0[1] + c * p0[2], out=d)
    return packed_outer(plane), ~(m <= 2.0 * EPS_AREA)


def candidate_set(p1, p2, fourth=None):
    """The discrete placements {midpoint, p1, p2, fourth} of E edges
    from (E, 3) arrays, coordinate-first: (3, 4, E); row 3 is left
    unset without ``fourth``."""
    cands = np.empty((3, 4, len(p1)))
    cands[:, 1] = p1.T
    cands[:, 2] = p2.T
    np.multiply(0.5, cands[:, 1] + cands[:, 2], out=cands[:, 0])
    if fourth is not None:
        cands[:, 3] = np.asarray(fourth, dtype=float).T
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
    xx, xy, xz, xw, yy, yz, yw, zz, zw, ww = np.ascontiguousarray(q.T)
    cands = candidate_set(p1, p2)
    with np.errstate(all="ignore"):
        c1 = yy * zz - yz * yz
        c2 = xy * zz - yz * xz
        c3 = xy * yz - yy * xz
        det = xx * c1 - xy * c2 + xz * c3
        sq_xy, sq_xz, sq_yz = xy * xy, xz * xz, yz * yz
        scale = (
            np.sqrt(xx * xx + sq_xy + sq_xz)
            + np.sqrt(sq_xy + yy * yy + sq_yz)
            + np.sqrt(sq_xz + sq_yz + zz * zz)
        ) / 3.0
        solvable = np.abs(det) > DET_GUARD * scale * scale * scale

        # Cramer's rule for A x = -b
        e1 = yw * zz - yz * zw
        e3 = xy * zw - yw * xz
        inv = -(1.0 / det)
        analytic = cands[:, 3]
        np.multiply(inv, xw * c1 - xy * e1 + xz * (yw * yz - yy * zw), out=analytic[0])
        np.multiply(inv, xx * e1 - xw * c2 + xz * e3, out=analytic[1])
        np.multiply(inv, xx * (yy * zw - yw * yz) - xy * e3 + xw * c3, out=analytic[2])

        if not solvable.all():
            # the minimum along the segment, where it curves up
            d = p2 - p1
            dx, dy, dz = d.T
            x1, y1, z1 = p1.T
            curv = (dx * (xx * dx + xy * dy + xz * dz)
                    + dy * (xy * dx + yy * dy + yz * dz)
                    + dz * (xz * dx + yz * dy + zz * dz))
            dd = dx * dx + dy * dy + dz * dz
            t = -(dx * (xx * x1 + xy * y1 + xz * z1 + xw)
                  + dy * (xy * x1 + yy * y1 + yz * z1 + yw)
                  + dz * (xz * x1 + yz * y1 + zz * z1 + zw)) / curv
            t = np.where(t < 0.0, 0.0, np.where(t > 1.0, 1.0, t))
            on_segment = (curv > DET_GUARD * scale * dd) & (curv > 0.0)
            segment = np.where(on_segment, (p1 + t[:, None] * d).T, np.nan)
            analytic[:, ~solvable] = segment[:, ~solvable]

        # Quadric.evaluate at each candidate; ties and NaN (no analytic
        # point) resolve as the scalar loop's strict "<" does
        x, y, z = cands
        costs = (
            xx * x * x + yy * y * y + zz * z * z + ww
            + 2.0 * (xy * x * y + xz * x * z + yz * y * z
                     + xw * x + yw * y + zw * z)
        )
        costs[1:][np.isnan(costs[1:])] = np.inf
    point, costs[3] = first_cheapest(cands, costs)
    analytic[:] = point.T
    return cands, costs

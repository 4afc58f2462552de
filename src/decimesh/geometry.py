"""Triangle geometry used throughout the package.

The helpers take plain ``(x, y, z)`` float tuples in the hot decimation
loop, where small-array numpy would not pay off. Written per component,
most also run unchanged on coordinate-first numpy arrays (3, ...), which
is how the batched engine and :func:`decimesh.mesh.quality_summary`
share them; :func:`triangle_quality_array` is :func:`triangle_quality`
on arrays, from the same squared sides and cosines. Lengths are in
Angstroms everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTriangle

# Area below this (A^2) counts as degenerate; far below any meaningful
# molecular-surface element.
EPS_AREA = 1e-12


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def norm(a):
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def dist(a, b):
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    dz = a[2] - b[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def triangle_area(a, b, c):
    n = cross(sub(b, a), sub(c, a))
    return 0.5 * norm(n)


def midpoint(a, b):
    return (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]), 0.5 * (a[2] + b[2]))


def centroid(a, b, c):
    return (
        (a[0] + b[0] + c[0]) / 3.0,
        (a[1] + b[1] + c[1]) / 3.0,
        (a[2] + b[2] + c[2]) / 3.0,
    )


def circumcenter(a, b, c):
    """Circumcenter of a 3D triangle (equidistant from all three vertices)."""
    ab = sub(b, a)
    ac = sub(c, a)
    n = cross(ab, ac)
    n2 = dot(n, n)
    if n2 <= 4.0 * EPS_AREA * EPS_AREA:
        raise DegenerateTriangle("circumcenter of a degenerate triangle")
    ab2 = dot(ab, ab)
    ac2 = dot(ac, ac)
    # a + [ |ac|^2 (n x ac)... ] standard closed form:
    # c0 = a + ( |ab|^2 (ac x n) + |ac|^2 (n x ab) ) / (2 n.n)  -- careful with order
    t1 = cross(n, ab)
    t2 = cross(ac, n)
    inv = 0.5 / n2
    return (
        a[0] + (ac2 * t1[0] + ab2 * t2[0]) * inv,
        a[1] + (ac2 * t1[1] + ab2 * t2[1]) * inv,
        a[2] + (ac2 * t1[2] + ab2 * t2[2]) * inv,
    )


def triangle_quality(a, b, c):
    """Aspect-plus-angle quality: longest/shortest side + largest/smallest angle.

    2 for an equilateral triangle, growing without bound as the triangle
    degenerates. Unit-independent. Works on squared side lengths (one
    sqrt for the side ratio, law of cosines for the angles); this sits
    in the innermost decimation loop, hence the unrolled min/max picks.
    """
    la2 = _squared_side(b, c)
    lb2 = _squared_side(c, a)
    lc2 = _squared_side(a, b)
    if la2 <= lb2:
        lmin2, lmax2 = (la2, lc2 if lc2 >= lb2 else lb2) if la2 <= lc2 else (lc2, lb2)
    else:
        lmin2, lmax2 = (lb2, lc2 if lc2 >= la2 else la2) if lb2 <= lc2 else (lc2, la2)
    if lmin2 <= 0.0:
        raise DegenerateTriangle("triangle with a zero-length side")
    # law of cosines on squared lengths, clamped against rounding
    ca = _cosine(lb2, lc2, la2, math.sqrt)
    cb = _cosine(lc2, la2, lb2, math.sqrt)
    cc = _cosine(la2, lb2, lc2, math.sqrt)
    ca = 1.0 if ca > 1.0 else (-1.0 if ca < -1.0 else ca)
    cb = 1.0 if cb > 1.0 else (-1.0 if cb < -1.0 else cb)
    cc = 1.0 if cc > 1.0 else (-1.0 if cc < -1.0 else cc)
    aa = math.acos(ca)
    ab = math.acos(cb)
    ac = math.acos(cc)
    if aa <= ab:
        amin, amax = (aa, ac if ac >= ab else ab) if aa <= ac else (ac, ab)
    else:
        amin, amax = (ab, ac if ac >= aa else aa) if ab <= ac else (ac, aa)
    if amin <= 0.0:
        raise DegenerateTriangle("triangle with a zero angle")
    return math.sqrt(lmax2 / lmin2) + amax / amin


def triangle_quality_array(a, b, c):
    """:func:`triangle_quality` over corner arrays laid out
    coordinate-first, (3, ...) and broadcastable, with the same
    operation order; NaN where the scalar version raises. Each
    intermediate is dropped once used, so at most about a dozen arrays
    of the output's shape are alive at once."""
    la2 = _squared_side(b, c)
    lb2 = _squared_side(c, a)
    lc2 = _squared_side(a, b)
    lmin2 = np.minimum(np.minimum(la2, lb2), lc2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sqrt(np.maximum(np.maximum(la2, lb2), lc2) / lmin2)
        flat = lmin2 <= 0.0
        del lmin2
        ca = _cosine(lb2, lc2, la2, np.sqrt)
        cb = _cosine(lc2, la2, lb2, np.sqrt)
        cc = _cosine(la2, lb2, lc2, np.sqrt)
        # arccos is decreasing: the extreme angles come from the extreme
        # cosines, which saves a third of the arccos work
        cmax = np.maximum(np.maximum(ca, cb), cc)
        cmin = np.minimum(np.minimum(ca, cb), cc)
        del ca, cb, cc
        amin = np.arccos(np.maximum(np.minimum(cmax, 1.0), -1.0))
        amax = np.arccos(np.maximum(np.minimum(cmin, 1.0), -1.0))
        q = ratio + amax / amin
    q[flat | ~(amin > 0.0)] = np.nan
    return q


def _squared_side(p, q):
    """Squared length of the side from q to p."""
    dx = p[0] - q[0]; dy = p[1] - q[1]; dz = p[2] - q[2]
    return dx * dx + dy * dy + dz * dz


def _cosine(s2, t2, opposite2, sqrt):
    """Law of cosines on squared sides: the cosine of the angle between
    sides s and t, with ``math.sqrt`` or ``np.sqrt``."""
    return (s2 + t2 - opposite2) / (2.0 * sqrt(s2 * t2))


def is_well_centered(a, b, c):
    """True iff the circumcenter lies strictly inside the triangle.

    Equivalent to all angles strictly acute; tested on squared side
    lengths so a right triangle built from exact coordinates reports
    False without rounding ambiguity. On corner arrays, a boolean array.
    """
    la2 = _squared_side(b, c)
    lb2 = _squared_side(c, a)
    lc2 = _squared_side(a, b)
    return (la2 + lb2 > lc2) & (lb2 + lc2 > la2) & (lc2 + la2 > lb2)


@dataclass(frozen=True)
class TriangleMetrics:
    """Per-triangle geometric summary.

    quality >= 2 (2 only for equilateral), area in A^2, center_offset is
    the barycenter-to-circumcenter distance (0 iff equilateral).
    """

    quality: float
    area: float
    centroid: tuple
    circumcenter: tuple
    barycenter: tuple
    well_centered: bool
    center_offset: float


def triangle_metrics(a, b, c):
    """Compute TriangleMetrics for one triangle; DegenerateTriangle if flat."""
    area = triangle_area(a, b, c)
    if area <= EPS_AREA:
        raise DegenerateTriangle(f"triangle area {area:.3g} below tolerance")
    bary = centroid(a, b, c)
    circ = circumcenter(a, b, c)
    return TriangleMetrics(
        quality=triangle_quality(a, b, c),
        area=area,
        centroid=bary,
        circumcenter=circ,
        barycenter=bary,
        well_centered=is_well_centered(a, b, c),
        center_offset=dist(bary, circ),
    )

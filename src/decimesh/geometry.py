"""Triangle geometry used throughout the package.

The helpers take plain ``(x, y, z)`` float tuples in the hot decimation
loop, where small-array numpy would not pay off. Written per component,
most also run unchanged on coordinate-first numpy arrays (3, ...), which
is how the batched engine and :func:`decimesh.mesh.quality_summary`
share them; :func:`triangle_quality_array` is :func:`triangle_quality`
on arrays, from the same squared sides and cosines.

Each triangle normal and double area in the package comes from
:func:`triangle_normal`: the plane quadrics (scalar and packed), the
surface quadrature, the surface area and the quality survey. Each edge
length comes from :func:`_squared_side`. Lengths are in Angstroms
everywhere.
"""

from __future__ import annotations

import math

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


def dist(a, b):
    return math.sqrt(_squared_side(a, b))


def triangle_normal(p0, p1, p2, sqrt):
    """Normal (p1 - p0) x (p2 - p0) of the triangle (p0, p1, p2) and its
    length, twice the area, with ``math.sqrt`` or ``np.sqrt``."""
    n = cross(sub(p1, p0), sub(p2, p0))
    return n, sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])


def midpoint(a, b):
    return (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]), 0.5 * (a[2] + b[2]))


def centroid(a, b, c):
    return (
        (a[0] + b[0] + c[0]) / 3.0,
        (a[1] + b[1] + c[1]) / 3.0,
        (a[2] + b[2] + c[2]) / 3.0,
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

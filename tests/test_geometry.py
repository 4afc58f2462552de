import math
import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decimesh import TriangleMesh, geometry, surface_area
from decimesh.shapes import octahedron
from decimesh.errors import DegenerateTriangle

from conftest import circumcenter, random_rotation, random_triangle

EQUILATERAL = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, math.sqrt(3.0) / 2.0, 0.0))
# legs 1 and sqrt(3), hypotenuse 2: angles 30-60-90
RIGHT_30_60 = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, math.sqrt(3.0), 0.0))


@pytest.mark.parametrize("sqrt, wrap", [(math.sqrt, tuple), (np.sqrt, np.array)])
def test_triangle_normal_of_exact_triangles(sqrt, wrap):
    """Normals and double areas known in closed form, written out by
    hand rather than through the shared helper: right triangles along
    each pair of axes, and the regular octahedron, whose outward faces
    have normal (+-1, +-1, +-1), three times the face centroid, and
    double area sqrt(3)."""
    for (a, b, c), normal in [
        (((0, 0, 0), (2, 0, 0), (0, 3, 0)), (0, 0, 6)),
        (((1, 1, 1), (1, 1, 5), (1, -2, 1)), (12, 0, 0)),
        (((0, 0, 0), (0, 0, 3), (5, 0, 0)), (0, 15, 0)),
    ]:
        length = sum(normal)  # one nonzero component
        n, m = geometry.triangle_normal(wrap(a), wrap(b), wrap(c), sqrt)
        assert [float(x) for x in n] == list(normal)
        assert m == length
        assert surface_area(TriangleMesh([a, b, c], [(0, 1, 2)])) == 0.5 * length
    octa = octahedron()
    for a, b, c in octa.vertices[octa.triangles]:
        n, m = geometry.triangle_normal(wrap(a), wrap(b), wrap(c), sqrt)
        assert [float(x) for x in n] == (a + b + c).tolist()
        assert m == math.sqrt(3.0)


@pytest.mark.parametrize("wrap", [tuple, np.array])
def test_side_lengths_of_pythagorean_quadruples(wrap):
    """Integer sides whose squares sum to a square, in every axis order."""
    for d, length in [((1, 2, 2), 3), ((2, 3, 6), 7), ((1, 4, 8), 9)]:
        for i in range(3):
            p = wrap(d[i:] + d[:i])
            q = wrap((0, 0, 0))
            assert geometry._squared_side(p, q) == length * length
            assert geometry.dist(p, q) == length


def test_equilateral_quality_is_two():
    q = geometry.triangle_quality(*EQUILATERAL)
    assert q == pytest.approx(2.0, abs=1e-12)


def test_right_triangle_quality():
    # sides 1, sqrt(3), 2 -> l/s = 2; angles 90/30 -> 3; q = 5
    q = geometry.triangle_quality(*RIGHT_30_60)
    assert q == pytest.approx(5.0, rel=1e-9)


def test_zero_area_triangle_raises():
    with pytest.raises(DegenerateTriangle):
        geometry.triangle_quality((0, 0, 0), (1, 0, 0), (2, 0, 0))


def test_well_centered():
    assert geometry.is_well_centered(*EQUILATERAL)
    # right triangle: circumcenter on the hypotenuse, not strictly inside
    assert not geometry.is_well_centered(*RIGHT_30_60)


def test_metrics_equilateral():
    assert geometry.triangle_quality(*EQUILATERAL) == pytest.approx(2.0, abs=1e-12)
    assert geometry.is_well_centered(*EQUILATERAL)
    assert center_offset(*EQUILATERAL) < 1e-9
    area = 0.5 * geometry.triangle_normal(*EQUILATERAL, math.sqrt)[1]
    assert area == pytest.approx(math.sqrt(3.0) / 4.0, rel=1e-12)


def test_quality_rigid_motion_and_scale_invariant():
    rng = np.random.default_rng(42)
    for _ in range(200):
        tri = random_triangle(rng)
        q0 = geometry.triangle_quality(*tri)
        rot = random_rotation(rng)
        shift = rng.normal(size=3)
        scale = float(rng.uniform(0.1, 10.0))
        moved = [tuple(scale * (rot @ np.asarray(p)) + shift) for p in tri]
        q1 = geometry.triangle_quality(*moved)
        assert q1 == pytest.approx(q0, rel=1e-9)


def test_quality_at_least_two():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        tri = random_triangle(rng)
        q = geometry.triangle_quality(*tri)
        assert q >= 2.0
        if q - 2.0 <= 1e-9:
            # only near-equilateral triangles can sit at the minimum
            sides = sorted(
                [
                    geometry.dist(tri[0], tri[1]),
                    geometry.dist(tri[1], tri[2]),
                    geometry.dist(tri[2], tri[0]),
                ]
            )
            assert sides[2] - sides[0] <= 1e-6 * sides[2]


def test_barycenter_exact_and_circumcenter_equidistant():
    rng = np.random.default_rng(3)
    for _ in range(300):
        a, b, c = random_triangle(rng)
        expect = tuple(
            (a[i] + b[i] + c[i]) / 3.0 for i in range(3)
        )
        assert geometry.centroid(a, b, c) == expect
        circ = circumcenter(a, b, c)
        da = geometry.dist(circ, a)
        db = geometry.dist(circ, b)
        dc = geometry.dist(circ, c)
        assert db == pytest.approx(da, rel=1e-9)
        assert dc == pytest.approx(da, rel=1e-9)


def center_offset(a, b, c):
    """Distance from the barycenter to the circumcenter: 0 only for an
    equilateral triangle."""
    return geometry.dist(geometry.centroid(a, b, c), circumcenter(a, b, c))


def test_center_offset_zero_only_for_equilateral():
    assert center_offset(*EQUILATERAL) == pytest.approx(0.0, abs=1e-12)
    assert center_offset((0, 0, 0), (2, 0, 0), (0.2, 0.9, 0)) > 1e-3


_coord = st.floats(-10.0, 10.0, allow_nan=False)
_point = st.tuples(_coord, _coord, _coord)
_tiny = st.integers(3, 18).map(lambda k: 10.0 ** -k)


@st.composite
def _sliver(draw):
    """A third corner within a tiny distance of the line through two."""
    a, b, d = draw(_point), draw(_point), draw(_point)
    t, e = draw(st.floats(-1.0, 2.0)), draw(_tiny)
    return a, b, tuple(a[i] + t * (b[i] - a[i]) + e * d[i] for i in range(3))


@st.composite
def _near_coincident(draw):
    """Two corners within a tiny distance of each other."""
    a, c, d = draw(_point), draw(_point), draw(_point)
    e = draw(_tiny)
    return a, tuple(a[i] + e * d[i] for i in range(3)), c


_lattice = st.tuples(*[st.tuples(*[st.integers(-2, 2).map(float)] * 3)] * 3)
# coordinates up to 1e155, where squared sides overflow and cosines turn NaN
_huge_coord = st.builds(lambda x, e: x * 10.0 ** e, st.floats(-1.0, 1.0), st.floats(150.0, 155.0))
_huge = st.tuples(*[st.tuples(_huge_coord, _huge_coord, _huge_coord)] * 3)
_triangles = st.one_of(
    st.tuples(_point, _point, _point), _sliver(), _near_coincident(), _lattice, _huge
)


def _scalar_quality(tri):
    """``triangle_quality`` of ``tri``, or the error it raises."""
    try:
        return geometry.triangle_quality(*tri)
    except DegenerateTriangle as exc:
        return str(exc)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_triangles)
def test_quality_twins_agree_under_every_corner_order(tri):
    """The scalar quality keeps its bits, or its error, under all six
    corner orders; the array twin is NaN exactly where the scalar
    raises and agrees to 1e-14 relative elsewhere."""
    orders = list(permutations(tri))
    scalar = [_scalar_quality(t) for t in orders]
    assert len({s.hex() if isinstance(s, float) else s for s in scalar}) == 1
    a, b, c = np.array(orders).transpose(1, 2, 0)  # (3, 6) per corner
    array = geometry.triangle_quality_array(a, b, c)
    for s, q in zip(scalar, array.tolist()):
        if isinstance(s, str):
            assert math.isnan(q)
        else:
            assert q == pytest.approx(s, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("tri", [
    ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1e-160, 1e-170, 0.0)),
    ((0.0, 0.0, 0.0), (1e155, 0.0, 0.0), (0.0, 1e155, 0.0)),
])
def test_quality_array_does_not_warn_where_it_gives_nan(tri):
    """A side ratio or squared side that overflows is NaN, or a raise
    in the scalar, without a ``RuntimeWarning``."""
    a, b, c = np.array(tri)[:, :, None]  # (3, 1) per corner
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = geometry.triangle_quality_array(a, b, c)
    assert math.isnan(q[0])
    with pytest.raises(DegenerateTriangle):
        geometry.triangle_quality(*tri)

import math

import numpy as np
import pytest

from decimesh import TriangleMesh, f_qe, vertex_quadric
from decimesh.errors import IsolatedVertex
from decimesh.quadrics import (
    DET_GUARD,
    HomogeneousPlane,
    Quadric,
    minimize_packed,
    minimize_quadric,
)
from decimesh.shapes import icosphere

from conftest import quadric_matrix, quadric_trace, random_rotation, random_triangle


def corner_mesh():
    """Open corner: vertex 0 sits on planes z=0, x=0, y=0 (one triangle each)."""
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1)]
    return TriangleMesh(verts, faces)


def fan_mesh_z0(n=5):
    """Open fan around vertex 0, all triangles in the z = 0 plane."""
    verts = [(0.0, 0.0, 0.0)]
    for k in range(n + 1):
        a = math.pi * k / n  # half fan, no wrap
        verts.append((math.cos(a), math.sin(a), 0.0))
    faces = [(0, k + 1, k + 2) for k in range(n)]
    return TriangleMesh(verts, faces)


def perturbed_sphere(seed, level=1, scale=0.05):
    mesh = icosphere(level)
    rng = np.random.default_rng(seed)
    mesh.vertices += rng.normal(scale=scale, size=mesh.vertices.shape)
    return mesh


def brute_force_fqe(mesh, v1, v2, point):
    """Sum of squared point-plane distances over both endpoints' planes,
    one term per triangle incidence."""
    total = 0.0
    for v in (v1, v2):
        for t in mesh.incident_triangles(v):
            plane = HomogeneousPlane.from_triangle(*mesh.triangle_positions(t))
            total += plane.distance(point) ** 2
    return total


def test_plane_from_triangle_unit_normal():
    rng = np.random.default_rng(0)
    for _ in range(300):
        plane = HomogeneousPlane.from_triangle(*random_triangle(rng))
        assert plane.a**2 + plane.b**2 + plane.c**2 == pytest.approx(1.0, abs=1e-12)


def test_coplanar_star_annihilates_in_plane_points():
    mesh = fan_mesh_z0()
    q = vertex_quadric(mesh, 0)
    # only the zz entry survives for planes z = 0 through the origin
    assert q.zz == pytest.approx(5.0, rel=1e-12)
    for name in ("xx", "xy", "xz", "xw", "yy", "yz", "yw", "zw", "ww"):
        assert abs(getattr(q, name)) <= 1e-12 * quadric_trace(q)
    rng = np.random.default_rng(1)
    for _ in range(100):
        x, y = rng.normal(size=2) * 10
        assert abs(q.evaluate((x, y, 0.0))) <= 1e-9 * quadric_trace(q)


def test_cube_corner_distance_sum():
    mesh = corner_mesh()
    q = vertex_quadric(mesh, 0)
    assert f_qe(q, Quadric.from_planes([]), (1.0, 1.0, 1.0)) == pytest.approx(3.0, rel=1e-12)


def test_isolated_vertex_raises():
    mesh = TriangleMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0), (9, 9, 9)], [(0, 1, 2)])
    with pytest.raises(IsolatedVertex):
        vertex_quadric(mesh, 3)


def test_degenerate_triangles_contribute_nothing():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 0, 0)]
    mesh = TriangleMesh(verts, [(0, 1, 2), (0, 1, 3)])  # second is colinear
    q = vertex_quadric(mesh, 0)
    expect = Quadric.from_planes([(0.0, 0.0, 1.0, 0.0)])
    assert q == pytest.approx(tuple(expect), abs=1e-15)


def test_fqe_matches_brute_force_plane_sums():
    """1000+ random (edge, placement) instances against the distance oracle."""
    rng = np.random.default_rng(5)
    checked = 0
    for seed in range(4):
        mesh = perturbed_sphere(seed)
        quadrics = {v: vertex_quadric(mesh, v) for v in range(mesh.n_vertices)}
        for (a, b) in mesh.edges():
            for _ in range(3):
                point = tuple(rng.normal(scale=1.5, size=3))
                got = f_qe(quadrics[a], quadrics[b], point)
                want = brute_force_fqe(mesh, a, b, point)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
                checked += 1
    assert checked >= 1000


def test_quadrics_positive_semidefinite():
    for seed in range(3):
        mesh = perturbed_sphere(seed)
        for v in range(mesh.n_vertices):
            q = vertex_quadric(mesh, v)
            eigs = np.linalg.eigvalsh(quadric_matrix(q))
            assert eigs.min() >= -1e-9 * quadric_trace(q)


def test_optimal_placement_three_orthogonal_planes():
    q = Quadric.from_planes([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    point = minimize_quadric(q, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert point == (0.0, 0.0, 0.0)
    assert q.evaluate(point) == 0.0


def test_optimal_placement_coplanar_star():
    mesh = fan_mesh_z0()
    q = vertex_quadric(mesh, 0)
    p1, p2 = (0.3, -0.4, 1.0), (0.5, 0.2, -1.0)
    point = minimize_quadric(q + q, p1, p2)
    assert abs(q.evaluate(point)) <= 1e-12 * quadric_trace(q)


def test_optimal_placement_zero_quadric_returns_midpoint():
    q = Quadric.from_planes([])
    point = minimize_quadric(q, (0.0, 0.0, 0.0), (2.0, 0.0, 0.0))
    assert point == (1.0, 0.0, 0.0)


def packed_form(A, b, c=0.0):
    """The Quadric of x^T A x + 2 b^T x + c from numpy A (3, 3) and b (3,)."""
    return Quadric(A[0, 0], A[0, 1], A[0, 2], b[0], A[1, 1], A[1, 2], b[1],
                   A[2, 2], b[2], c)


# Independent truths for the placement solve: numpy's own solver and the
# closed-form line minimum, which share no arithmetic with the 3x3
# solve and segment formulas that minimize_quadric and minimize_packed
# call, so an error in those formulas shows here.
SOLVE_RTOL = 1e-9


def test_nan_midpoint_cost_counts_as_inf():
    """A midpoint that overflows to inf costs NaN under a form with a
    zero x row; NaN counts as inf, so both minimizers pick the same
    finite endpoint, bit for bit, and not the infinite midpoint."""
    q = Quadric(0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0)  # (y + 1)^2
    p1, p2 = (1e308, 0.0, 0.0), (1e308, 1.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(q.evaluate((0.5 * (p1[0] + p2[0]), 0.5, 0.0)))
        cands, costs = minimize_packed(np.array([q]), np.array([p1]), np.array([p2]))
    assert minimize_quadric(q, p1, p2) == p1
    assert cands[:, 3, 0].tolist() == list(p1)
    assert costs[3, 0] == 1.0


def test_stationary_point_equals_linear_solve():
    rng = np.random.default_rng(31)
    forms, ends, want = [], [], []
    for _ in range(50):
        # well conditioned (eigenvalues in [1, 3]) and fully coupled
        R = random_rotation(rng)
        A = R @ np.diag(rng.uniform(1.0, 3.0, size=3)) @ R.T
        assert np.abs(A[np.triu_indices(3, 1)]).min() > 1e-3
        x = rng.normal(size=3)
        b = -A @ x
        # endpoints far from the minimum, so none of the discrete
        # candidates can tie it
        p1, p2 = x + 2.0 + rng.random(3), x - 2.0 - rng.random(3)
        q = packed_form(A, b, c=float(x @ A @ x))
        truth = np.linalg.solve(A, -b)
        np.testing.assert_allclose(minimize_quadric(q, tuple(p1), tuple(p2)), truth,
                                   rtol=SOLVE_RTOL, atol=SOLVE_RTOL)
        forms.append(q)
        ends.append((p1, p2))
        want.append(truth)
    ends = np.array(ends)
    cands, _ = minimize_packed(np.array(forms), ends[:, 0], ends[:, 1])
    np.testing.assert_allclose(cands[:, 3].T, want, rtol=SOLVE_RTOL, atol=SOLVE_RTOL)


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("t_star", [0.3, 0.8, -0.6, 1.7])
def test_segment_minimum_equals_closed_form(rank, t_star):
    """Rank-deficient forms fall back to the segment; the point is
    p1 + t d with t = -d^T (A p1 + b) / (d^T A d) clamped to [0, 1]."""
    rng = np.random.default_rng(37 + rank)
    forms, ends, want = [], [], []
    for _ in range(20):
        normals = rng.normal(size=(rank, 3))
        A = normals.T @ normals
        scale = np.linalg.norm(A, axis=1).mean()
        assert abs(np.linalg.det(A)) <= DET_GUARD * scale**3
        p1, p2 = rng.normal(size=3), rng.normal(size=3)
        d = p2 - p1
        # b puts the line minimum at t_star, plus a random part
        # orthogonal to d, which the line cannot see
        off = rng.normal(size=3)
        off -= (off @ d) / (d @ d) * d
        b = -A @ p1 - t_star * (d @ A @ d) / (d @ d) * d + off
        t = np.clip(-d @ (A @ p1 + b) / (d @ A @ d), 0.0, 1.0)
        truth = p1 + t * d
        q = packed_form(A, b)
        np.testing.assert_allclose(minimize_quadric(q, tuple(p1), tuple(p2)), truth,
                                   rtol=SOLVE_RTOL, atol=SOLVE_RTOL)
        forms.append(q)
        ends.append((p1, p2))
        want.append(truth)
    ends = np.array(ends)
    cands, _ = minimize_packed(np.array(forms), ends[:, 0], ends[:, 1])
    np.testing.assert_allclose(cands[:, 3].T, want, rtol=SOLVE_RTOL, atol=SOLVE_RTOL)


def test_placement_never_worse_than_discrete_candidates():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        planes = [
            HomogeneousPlane.from_triangle(*random_triangle(rng))
            for _ in range(int(rng.integers(1, 6)))
        ]
        q1 = Quadric.from_planes(planes[: len(planes) // 2 + 1])
        q2 = Quadric.from_planes(planes[len(planes) // 2:])
        p1 = tuple(rng.normal(size=3))
        p2 = tuple(rng.normal(size=3))
        point = minimize_quadric(q1 + q2, p1, p2)
        combined = q1 + q2
        mid = tuple(0.5 * (p1[i] + p2[i]) for i in range(3))
        discrete_best = min(
            combined.evaluate(p1), combined.evaluate(p2), combined.evaluate(mid)
        )
        assert combined.evaluate(point) <= discrete_best


def test_fqe_rigid_motion_invariant():
    rng = np.random.default_rng(13)
    mesh = perturbed_sphere(2)
    edges = list(mesh.edges())
    for k in range(50):
        a, b = edges[int(rng.integers(len(edges)))]
        point = tuple(rng.normal(size=3))
        q1, q2 = vertex_quadric(mesh, a), vertex_quadric(mesh, b)
        val = f_qe(q1, q2, point)

        rot = random_rotation(rng)
        shift = rng.normal(size=3)
        moved = mesh.copy()
        moved.vertices = mesh.vertices @ rot.T + shift
        m1, m2 = vertex_quadric(moved, a), vertex_quadric(moved, b)
        moved_point = tuple(rot @ np.asarray(point) + shift)
        assert f_qe(m1, m2, moved_point) == pytest.approx(val, rel=1e-9, abs=1e-12)


def test_uniform_scaling_preserves_argmin():
    rng = np.random.default_rng(17)
    mesh = perturbed_sphere(3)
    edges = list(mesh.edges())
    for k in range(30):
        a, b = edges[int(rng.integers(len(edges)))]
        q1, q2 = vertex_quadric(mesh, a), vertex_quadric(mesh, b)
        cands = [tuple(rng.normal(size=3)) for _ in range(5)]
        costs = [f_qe(q1, q2, c) for c in cands]

        s = 7.5
        scaled = mesh.copy()
        scaled.vertices = mesh.vertices * s
        s1, s2 = vertex_quadric(scaled, a), vertex_quadric(scaled, b)
        scaled_costs = [
            f_qe(s1, s2, tuple(s * x for x in c)) for c in cands
        ]
        assert int(np.argmin(costs)) == int(np.argmin(scaled_costs))


def test_quadric_matrix_round_trip():
    q = Quadric.from_planes([(0.6, 0.8, 0.0, 2.0)])
    m = quadric_matrix(q)
    assert np.allclose(m, m.T)
    v = np.array([1.0, -2.0, 0.5, 1.0])
    assert v @ m @ v == pytest.approx(q.evaluate((1.0, -2.0, 0.5)), rel=1e-12)

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decimesh import f_ac, f_gb, f_pb, f_qe, f_vol, placement_for
from decimesh.costs import (
    GbCostParams,
    _volume_row,
    estimate_lambda,
    pb_candidate_costs,
    pb_placements,
    ring_qualities,
    vol_quadric,
)
from decimesh.decimate import DecimationConfig, Decimator
from decimesh.errors import (
    CandidateInfeasible,
    DegenerateTriangle,
    InputError,
    InvalidConfig,
    InvalidInput,
)
from decimesh.mesh import EdgeStar, TriangleMesh, edge_star
from decimesh.quadrics import Quadric, candidate_set, minimize_quadric
from decimesh.shapes import icosphere

from conftest import bits, block_budget, quadric_trace, random_rotation, ring_centroids


def make_star(p1, p2, upper, lower):
    """Synthetic edge star from raw positions (ids are placeholders)."""
    upper = [tuple(map(float, p)) for p in upper]
    lower = [tuple(map(float, p)) for p in lower]
    return EdgeStar(
        v1=0,
        v2=1,
        upper=tuple(range(2, 2 + len(upper))),
        lower=tuple(range(100, 100 + len(lower))),
        p1=tuple(map(float, p1)),
        p2=tuple(map(float, p2)),
        upper_pos=tuple(upper),
        lower_pos=tuple(lower),
    )


def random_star(rng, max_ring=4):
    """Random nondegenerate star around a vertical edge."""
    while True:
        p1 = tuple(rng.normal(size=3))
        p2 = tuple(rng.normal(size=3))
        n_up = int(rng.integers(2, max_ring + 2))
        n_lo = int(rng.integers(2, max_ring + 2))
        upper = [tuple(rng.normal(scale=2.0, size=3)) for _ in range(n_up)]
        lower = [upper[0]] + [
            tuple(rng.normal(scale=2.0, size=3)) for _ in range(n_lo - 2)
        ] + [upper[-1]]
        star = make_star(p1, p2, upper, lower)
        try:
            ring_qualities(star)
        except Exception:
            continue
        return star


def bisector_star():
    """Every ring vertex on the perpendicular bisector plane of (p1, p2)."""
    upper = [(1.0, 0.0, 0.0), (0.6, 0.9, 0.0), (-0.5, 1.0, 0.0), (-1.0, 0.0, 0.0)]
    lower = [(1.0, 0.0, 0.0), (0.3, -1.1, 0.0), (-1.0, 0.0, 0.0)]
    return make_star((0.0, 0.0, -1.0), (0.0, 0.0, 1.0), upper, lower)


# --- volumetric cost -----------------------------------------------------------


def test_volume_row_against_determinant():
    rng = np.random.default_rng(21)
    for _ in range(500):
        v, a, b, c = [rng.normal(size=3) for _ in range(4)]
        g = _volume_row(tuple(a), tuple(b), tuple(c))
        got = g[0] * v[0] + g[1] * v[1] + g[2] * v[2] + g[3]
        want = np.linalg.det(np.stack([a - v, b - v, c - v]))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_unit_right_tetrahedron_volume():
    g = _volume_row((1, 0, 0), (0, 1, 0), (0, 0, 1))
    six_v = g[3]  # evaluated at the origin
    assert abs(six_v) / 6.0 == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_fvol_zero_for_coplanar_star_in_plane():
    upper = [(1, 0, 0), (0.5, 1, 0), (-1, 0, 0)]
    lower = [(1, 0, 0), (0, -1, 0), (-1, 0, 0)]
    star = make_star((0.2, 0.1, 0), (-0.2, 0.3, 0), upper, lower)
    assert f_vol(star, (0.05, -0.02, 0.0)) == pytest.approx(0.0, abs=1e-15)


def test_fvol_matches_determinant_oracle():
    rng = np.random.default_rng(22)
    checked = 0
    for _ in range(120):
        star = random_star(rng)
        for _ in range(9):
            vbar = rng.normal(size=3)
            got = f_vol(star, tuple(vbar))
            want = 0.0
            for (a, b, c) in star.all_triangles_before():
                det = np.linalg.det(
                    np.stack(
                        [
                            np.asarray(a) - vbar,
                            np.asarray(b) - vbar,
                            np.asarray(c) - vbar,
                        ]
                    )
                )
                want += 0.5 * det * det / 18.0
            assert got == pytest.approx(want, rel=1e-9, abs=1e-15)
            checked += 1
    assert checked >= 1000


def test_fvol_nonnegative_and_rigid_invariant():
    rng = np.random.default_rng(23)
    for _ in range(100):
        star = random_star(rng)
        vbar = tuple(rng.normal(size=3))
        val = f_vol(star, vbar)
        assert val >= -1e-9 * quadric_trace(vol_quadric(star))

        rot = random_rotation(rng)
        shift = rng.normal(size=3)

        def mv(p):
            return tuple(rot @ np.asarray(p) + shift)

        moved = make_star(
            mv(star.p1), mv(star.p2),
            [mv(p) for p in star.upper_pos],
            [mv(p) for p in star.lower_pos],
        )
        assert f_vol(moved, mv(vbar)) == pytest.approx(val, rel=1e-9, abs=1e-12)


# --- triangle-quality cost -------------------------------------------------------


def test_fpb_zero_when_after_triangles_congruent():
    star = bisector_star()
    # ring vertices are equidistant from both endpoints, so placing the
    # merged vertex at p1 makes every after-triangle congruent to its
    # before-triangle and each term cancels exactly
    assert f_pb(star, star.p1) == 0.0


def test_fpb_lower_terms_vanish_at_v1():
    rng = np.random.default_rng(31)
    for _ in range(50):
        star = random_star(rng)
        got = f_pb(star, star.p1)
        up = star.upper_pos
        want = sum(
            _q_oracle(star.p1, up[i], up[i + 1]) - _q_oracle(star.p2, up[i], up[i + 1])
            for i in range(len(up) - 1)
        )
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_fpb_upper_terms_vanish_at_v2():
    rng = np.random.default_rng(34)
    for _ in range(50):
        star = random_star(rng)
        got = f_pb(star, star.p2)
        lo = star.lower_pos
        want = sum(
            _q_oracle(star.p2, lo[i], lo[i + 1]) - _q_oracle(star.p1, lo[i], lo[i + 1])
            for i in range(len(lo) - 1)
        )
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def _q_oracle(a, b, c):
    """Independent triangle quality: sides via math.dist, angles via atan2."""
    la, lb, lc = math.dist(b, c), math.dist(c, a), math.dist(a, b)

    def angle(p, q, r):
        u = np.asarray(q) - np.asarray(p)
        v = np.asarray(r) - np.asarray(p)
        return math.atan2(np.linalg.norm(np.cross(u, v)), float(np.dot(u, v)))

    angles = [angle(a, b, c), angle(b, c, a), angle(c, a, b)]
    return max(la, lb, lc) / min(la, lb, lc) + max(angles) / min(angles)


def test_fpb_improvement_is_negative():
    # skinny upper-ring triangles around a far-away apex; pulling the
    # apex to the ring's axis of symmetry improves their quality
    upper = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, 0.0, 0.0)]
    lower = [(1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (-1.0, 0.0, 0.0)]
    p2 = (4.0, 0.0, 0.8)  # skinny upper triangles
    p1 = (0.0, 0.0, -1.0)
    star = make_star(p1, p2, upper, lower)
    vbar = (0.0, 0.0, 0.8)
    got = f_pb(star, vbar)
    want = 0.0
    for i in range(2):
        want += _q_oracle(vbar, upper[i], upper[i + 1])
        want -= _q_oracle(p2, upper[i], upper[i + 1])
    for i in range(2):
        want += _q_oracle(vbar, lower[i], lower[i + 1])
        want -= _q_oracle(p1, lower[i], lower[i + 1])
    assert got < 0
    assert got == pytest.approx(want, rel=1e-9)


def test_fpb_matches_oracle_on_random_stars():
    rng = np.random.default_rng(32)
    for _ in range(100):
        star = random_star(rng)
        vbar = tuple(rng.normal(size=3))
        try:
            got = f_pb(star, vbar)
        except Exception:
            continue
        want = 0.0
        up, lo = star.upper_pos, star.lower_pos
        for i in range(len(up) - 1):
            want += _q_oracle(vbar, up[i], up[i + 1]) - _q_oracle(star.p2, up[i], up[i + 1])
        for i in range(len(lo) - 1):
            want += _q_oracle(vbar, lo[i], lo[i + 1]) - _q_oracle(star.p1, lo[i], lo[i + 1])
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


# --- atomic-center cost ----------------------------------------------------------


def direct_f_ac(star, vbar, atoms):
    """Quadratic-form oracle: the literal double sum over (triangle, atom)."""
    total = 0.0
    for cb, ca in zip(ring_centroids(star), ring_centroids(star, vbar)):
        for x in atoms:
            db = sum((cb[i] - x[i]) ** 2 for i in range(3))
            da = sum((ca[i] - x[i]) ** 2 for i in range(3))
            total += db - da
    return abs(total)


def test_fac_zero_cases():
    rng = np.random.default_rng(41)
    star = random_star(rng)
    assert f_ac(star, tuple(rng.normal(size=3)), np.empty((0, 3))) == 0.0
    # identical endpoints: placing at them changes no centroid
    same = make_star((0, 0, 1), (0, 0, 1),
                     [(1, 0, 0), (0, 1, 0), (-1, 0, 0)],
                     [(1, 0, 0), (0, -1, 0), (-1, 0, 0)])
    atoms = np.asarray(rng.normal(size=(4, 3)))
    assert f_ac(same, (0, 0, 1), atoms) == 0.0


def test_fac_single_centroid_unit_shift():
    # one upper triangle with centroid at the origin that moves to
    # (1, 0, 0); the lower ring is unchanged (placement = p1); a single
    # atom at the origin gives |0 - 1 + 0| = 1
    p2 = (0.0, 0.0, 1.0)
    p1 = (3.0, 0.0, 1.0)
    u0, u1 = (1.0, 0.0, -1.0), (-1.0, 0.0, 0.0)
    star = make_star(p1, p2, [u0, u1], [u0, (0.0, -1.0, 0.0), u1])
    before = ring_centroids(star)
    assert before[0] == (0.0, 0.0, 0.0)
    after = ring_centroids(star, p1)
    assert after[0] == (1.0, 0.0, 0.0)
    got = f_ac(star, p1, np.zeros((1, 3)))
    assert got == pytest.approx(1.0, rel=1e-12)


def test_fac_expanded_equals_direct_form():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(250):
        star = random_star(rng)
        atoms = rng.normal(scale=3.0, size=(int(rng.integers(1, 8)), 3))
        for _ in range(4):
            vbar = tuple(rng.normal(size=3))
            got = f_ac(star, vbar, atoms)
            want = direct_f_ac(star, vbar, atoms)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
            checked += 1
    assert checked >= 1000


def test_fac_nonnegative():
    rng = np.random.default_rng(43)
    for _ in range(200):
        star = random_star(rng)
        atoms = rng.normal(size=(3, 3))
        assert f_ac(star, tuple(rng.normal(size=3)), atoms) >= 0.0


# --- combined gb cost ---------------------------------------------------------


def test_fgb_edge_length_variant():
    rng = np.random.default_rng(44)
    star = random_star(rng)
    atoms = rng.normal(size=(5, 3))
    params = GbCostParams(lam=0.0)
    for _ in range(5):
        vbar = tuple(rng.normal(size=3))
        assert f_gb(star, vbar, atoms, params) == math.dist(star.p1, star.p2)


def test_fgb_defaults_match_operating_point():
    params = GbCostParams()
    assert params.rho == 5.0
    assert params.lam == 1e-8
    assert params.variant == "edge_length"


def test_fgb_qe_variant_reduces_to_fqe():
    rng = np.random.default_rng(45)
    star = random_star(rng)
    q1 = Quadric.from_planes([(1, 0, 0, 0.5), (0, 1, 0, 0)])
    q2 = Quadric.from_planes([(0, 0, 1, -0.5)])
    params = GbCostParams(lam=0.0, variant="qe_term")
    vbar = (0.3, -0.2, 0.9)
    assert f_gb(star, vbar, np.empty((0, 3)), params, q1, q2) == f_qe(q1, q2, vbar)


def test_fgb_combines_terms():
    rng = np.random.default_rng(46)
    star = random_star(rng)
    atoms = rng.normal(size=(5, 3))
    params = GbCostParams(lam=0.25)
    vbar = tuple(rng.normal(size=3))
    want = math.dist(star.p1, star.p2) + 0.25 * f_ac(star, vbar, atoms)
    assert f_gb(star, vbar, atoms, params) == pytest.approx(want, rel=1e-12)


def test_gb_params_validation():
    with pytest.raises(ValueError):
        GbCostParams(rho=0.0)
    with pytest.raises(ValueError):
        GbCostParams(lam=-1.0)
    with pytest.raises(ValueError):
        GbCostParams(variant="nope")


# --- placement policies -----------------------------------------------------------


def test_placement_qe_orthogonal_planes():
    mesh = icosphere(1)
    star = edge_star(mesh, *next(mesh.edges()))
    q1 = Quadric.from_planes([(1, 0, 0, 0), (0, 1, 0, 0)])
    q2 = Quadric.from_planes([(0, 0, 1, 0)])
    point, cost = placement_for("qe", star, q1, q2)
    assert point == (0.0, 0.0, 0.0)
    assert cost == 0.0


def test_placement_vol_minimizes_quadratic_form():
    rng = np.random.default_rng(51)
    star = random_star(rng)
    point, cost = placement_for("vol", star)
    vq = vol_quadric(star)
    assert cost == pytest.approx(vq.evaluate(point), rel=1e-12, abs=1e-15)
    mid = tuple(0.5 * (a + b) for a, b in zip(star.p1, star.p2))
    assert cost <= min(vq.evaluate(star.p1), vq.evaluate(star.p2), vq.evaluate(mid))


def test_placement_pb_prefers_midpoint_on_symmetric_star():
    # ring in the z = 0 plane, edge along z: the midpoint sits near the
    # ring's sweet spot and balances both rings where either endpoint
    # leaves one ring skinny
    upper = [(1.2, 0.0, 0.0), (0.0, 1.2, 0.0), (-1.2, 0.0, 0.0)]
    lower = [(1.2, 0.0, 0.0), (0.0, -1.2, 0.0), (-1.2, 0.0, 0.0)]
    star = make_star((0.0, 0.0, 0.4), (0.0, 0.0, 2.0), upper, lower)
    mid = (0.0, 0.0, 1.2)
    assert f_pb(star, mid) < min(f_pb(star, star.p1), f_pb(star, star.p2))
    point, cost = placement_for("pb", star)
    assert point == mid
    assert cost == pytest.approx(f_pb(star, mid), rel=1e-12)


def test_placement_pb_endpoint_tie_prefers_v1():
    # every ring vertex on the perpendicular bisector plane: both
    # endpoint placements cost exactly zero (congruent triangles); the
    # midpoint flattens the star into the ring plane and costs more, so
    # the p1/p2 tie resolves to p1
    upper = [(2.0, 0.0, 0.0), (0.0, 2.2, 0.0), (-2.0, 0.0, 0.0)]
    lower = [(2.0, 0.0, 0.0), (0.0, -2.2, 0.0), (-2.0, 0.0, 0.0)]
    star = make_star((0.0, 0.0, -2.0), (0.0, 0.0, 2.0), upper, lower)
    assert f_pb(star, star.p1) == 0.0
    assert f_pb(star, star.p2) == 0.0
    assert f_pb(star, (0.0, 0.0, 0.0)) > 0.0
    point, cost = placement_for("pb", star)
    assert point == star.p1
    assert cost == 0.0


def test_placement_gb_tie_breaks_to_midpoint():
    rng = np.random.default_rng(52)
    star = random_star(rng)
    params = GbCostParams(lam=0.0)
    point, cost = placement_for("gb", star, params=params)
    mid = tuple(0.5 * (a + b) for a, b in zip(star.p1, star.p2))
    assert point == mid
    assert cost == math.dist(star.p1, star.p2)


def test_placement_infeasible_when_star_degenerate():
    # a before-triangle is already flat: nothing to evaluate
    upper = [(1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (-1.0, 0.0, 1.0)]
    lower = [(1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (-1.0, 0.0, 1.0)]
    star = make_star((0.0, 0.0, 0.0), (1.5, 0.0, 0.0), upper, lower)
    with pytest.raises(CandidateInfeasible):
        placement_for("pb", star)


def test_placement_infeasible_when_all_candidates_degenerate():
    # each candidate placement (midpoint, p1, p2) flattens some ring
    # triangle while every before-triangle is sound: one ring segment's
    # line passes through each candidate point
    p1 = (0.0, 0.0, 0.0)
    p2 = (4.0, 0.0, 0.0)
    mid = (2.0, 0.0, 0.0)
    upper = [
        (0.0, 1.0, 1.0), (0.0, 2.0, 2.0),      # line through p1
        (2.0, 1.0, -1.0), (2.0, 2.0, -2.0),    # line through mid
    ]
    lower = [(0.0, 1.0, 1.0), (5.0, 1.0, 0.0), (6.0, 2.0, 0.0), (2.0, 2.0, -2.0)]
    # lower segment (5,1,0)-(6,2,0) extends through p2 = (4,0,0)
    star = make_star(p1, p2, upper, lower)
    for (a, b, c) in star.ring_triangles_before():
        assert np.linalg.norm(
            np.cross(np.subtract(b, a), np.subtract(c, a))
        ) > 1e-9
    from decimesh.errors import DegenerateTriangle

    for cand in (mid, p1, p2):
        with pytest.raises(DegenerateTriangle):
            f_pb(star, cand)
    with pytest.raises(CandidateInfeasible):
        placement_for("pb", star)


# --- batched pb engine ----------------------------------------------------------


def star_batch(stars):
    """One vertex table for several synthetic stars, each renumbered so
    its ids index its own positions (placeholder ids collide)."""
    verts = []

    def put(p):
        verts.append(p)
        return len(verts) - 1

    out = []
    for s in stars:
        out.append(dataclasses.replace(
            s,
            v1=put(s.p1),
            v2=put(s.p2),
            upper=tuple(put(p) for p in s.upper_pos),
            lower=tuple(put(p) for p in s.lower_pos),
        ))
    return np.array(verts, dtype=float), out


def pb_engine(stars, analytic=None, per_candidate=False):
    if analytic is None:
        analytic = [None] * len(stars)
    analytic = np.array([(math.nan,) * 3 if a is None else a for a in analytic])
    verts, renumbered = star_batch(stars)
    cands = candidate_set(np.array([s.p1 for s in stars]), np.array([s.p2 for s in stars]))
    cands[:, 3] = analytic.T
    if per_candidate:
        return cands.transpose(1, 2, 0), pb_candidate_costs(verts, renumbered, cands)
    points, costs = pb_placements(verts, renumbered, cands)
    return [tuple(p) for p in points.tolist()], costs.tolist()


def random_quadric(rng):
    planes = []
    for _ in range(int(rng.integers(1, 5))):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        planes.append((*n, float(rng.normal())))
    return Quadric.from_planes(planes)


def test_pb_engine_matches_placement_for_on_random_stars():
    rng = np.random.default_rng(71)
    stars, analytic, want = [], [], []
    for k in range(300):
        star = random_star(rng)
        q1 = q2 = None
        if k % 3:
            q1, q2 = random_quadric(rng), random_quadric(rng)
        try:
            want.append(placement_for("pb", star, q1, q2))
        except CandidateInfeasible:
            want.append(None)
        stars.append(star)
        analytic.append(
            None if q1 is None else minimize_quadric(q1 + q2, star.p1, star.p2)
        )
    points, costs = pb_engine(stars, analytic)
    assert sum(w is not None for w in want) >= 250
    for w, point, cost in zip(want, points, costs):
        if w is None:
            assert cost == math.inf
            continue
        assert point == w[0]
        assert cost == pytest.approx(w[1], rel=1e-9, abs=1e-12)


def test_pb_engine_candidates_match_fpb_oracle():
    rng = np.random.default_rng(72)
    stars = [random_star(rng) for _ in range(200)]
    # every third analytic point is missing, every other one is random
    analytic = [None if k % 3 == 0 else tuple(rng.normal(size=3))
                for k in range(len(stars))]
    cands, costs = pb_engine(stars, analytic, per_candidate=True)
    checked = 0
    for e, star in enumerate(stars):
        mid = tuple(0.5 * (a + b) for a, b in zip(star.p1, star.p2))
        assert tuple(cands[0, e]) == mid
        assert tuple(cands[1, e]) == star.p1
        assert tuple(cands[2, e]) == star.p2
        points = [mid, star.p1, star.p2, analytic[e]]
        for k, point in enumerate(points):
            if point is None:
                assert costs[k, e] == math.inf
                continue
            try:
                want = f_pb(star, point)
            except DegenerateTriangle:
                assert costs[k, e] == math.inf
                continue
            assert costs[k, e] == pytest.approx(want, rel=1e-9, abs=1e-12)
            checked += 1
    assert checked >= 600


def test_pb_engine_batch_equals_single_star_calls():
    rng = np.random.default_rng(73)
    stars = [random_star(rng) for _ in range(40)]
    analytic = [tuple(rng.normal(size=3)) for _ in stars]
    batch = pb_engine(stars, analytic)
    singles = [pb_engine([s], [a]) for s, a in zip(stars, analytic)]
    assert batch[0] == [p for (pts, _) in singles for p in pts]
    assert batch[1] == [c for (_, cs) in singles for c in cs]


def test_pb_engine_exact_zeros_and_tie_order():
    # ring vertices on the bisector plane: both endpoints cost exactly
    # zero, because each skips the ring it leaves unchanged and the
    # other ring's triangles are congruent; ties go mid, v1, v2, analytic
    upper = [(2.0, 0.0, 0.0), (0.0, 2.2, 0.0), (-2.0, 0.0, 0.0)]
    lower = [(2.0, 0.0, 0.0), (0.0, -2.2, 0.0), (-2.0, 0.0, 0.0)]
    star = make_star((0.0, 0.0, -2.0), (0.0, 0.0, 2.0), upper, lower)
    cands, costs = pb_engine([star], [star.p2], per_candidate=True)
    assert costs[1:, 0].tolist() == [0.0, 0.0, 0.0]
    assert costs[0, 0] > 0.0
    points, best = pb_engine([star, star], [None, star.p2])
    assert points == [star.p1, star.p1]
    assert best == [0.0, 0.0]

    # the mirror image of v2 across the ring plane ties with v2 exactly
    # (upper terms vanish, lower terms repeat); v2 wins the tie
    star = make_star((0.0, 0.0, -4.0), (0.0, 0.0, 1.5), upper, lower)
    mirror = (0.0, 0.0, -1.5)
    cands, costs = pb_engine([star], [mirror], per_candidate=True)
    assert costs[3, 0] == costs[2, 0] < min(costs[0, 0], costs[1, 0])
    points, best = pb_engine([star], [mirror])
    assert points == [star.p2]
    assert best == [costs[2, 0]]


@settings(max_examples=40, deadline=None)
@given(
    n_stars=st.integers(1, 60),
    max_ring=st.integers(2, 9),
    seed=st.integers(0, 2**32 - 1),
    budget=st.sampled_from([1, 5, 7, 40, 100, 2**15]),
)
def test_blocked_pb_costs_equal_one_block_bit_for_bit(n_stars, max_ring, seed, budget):
    # blocks from one star to all, over random stars with missing,
    # random and apex-equal analytic points and a flat star among them
    rng = np.random.default_rng(seed)
    stars = [random_star(rng, max_ring) for _ in range(n_stars)]
    upper = [(1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (-1.0, 0.0, 1.0)]
    lower = [(1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (-1.0, 0.0, 1.0)]
    stars.insert(int(rng.integers(0, n_stars)),
                 make_star((0.0, 0.0, 0.0), (1.5, 0.0, 0.0), upper, lower))
    analytic = [None if k % 3 == 0 else star.p2 if k % 3 == 1 else tuple(rng.normal(size=3))
                for k, star in enumerate(stars)]
    with block_budget(2**62):
        want = pb_engine(stars, analytic, per_candidate=True)
    with block_budget(budget):
        got = pb_engine(stars, analytic, per_candidate=True)
    assert bits(got[0].ravel()) == bits(want[0].ravel())
    assert bits(got[1].ravel()) == bits(want[1].ravel())


def test_pb_placements_memory_is_bounded():
    # one 2,048-edge chunk of the level-4 sphere: the parent's one pass
    # over its (3, 5, T) candidate terms peaked at 17.1 MB
    mesh = icosphere(4, radius=10.0)
    dec = Decimator(mesh, DecimationConfig(cost_kind="pb", target_faces=100))
    dec._recompute_quadric_rows(range(len(mesh.vertices)))
    edges = np.array(sorted(mesh.edges()))[:2048]
    stars = [edge_star(mesh, a, b) for a, b in edges.tolist()]
    cands = dec._quadric_minima(edges)[0]
    tracemalloc.start()
    try:
        points, costs = pb_placements(mesh.vertices, stars, cands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(costs).all()
    assert peak < 6e6


def test_pb_engine_degenerate_cases():
    # a before-triangle is flat: the whole edge is infeasible
    upper = [(1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (-1.0, 0.0, 1.0)]
    lower = [(1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (-1.0, 0.0, 1.0)]
    flat_before = make_star((0.0, 0.0, 0.0), (1.5, 0.0, 0.0), upper, lower)
    # every candidate flattens some ring triangle
    upper = [(0.0, 1.0, 1.0), (0.0, 2.0, 2.0), (2.0, 1.0, -1.0), (2.0, 2.0, -2.0)]
    lower = [(0.0, 1.0, 1.0), (5.0, 1.0, 0.0), (6.0, 2.0, 0.0), (2.0, 2.0, -2.0)]
    all_flat = make_star((0.0, 0.0, 0.0), (4.0, 0.0, 0.0), upper, lower)
    # an analytic point on the line of a ring segment is dropped alone
    rng = np.random.default_rng(74)
    star = random_star(rng)
    a, b = star.upper_pos[0], star.upper_pos[1]
    on_line = tuple(2.0 * x - y for x, y in zip(a, b))
    with pytest.raises(DegenerateTriangle):
        f_pb(star, on_line)
    cands, costs = pb_engine(
        [flat_before, all_flat, star], [(0.2, 0.1, 0.3), (2.0, 0.0, 0.0), on_line],
        per_candidate=True,
    )
    assert np.isinf(costs[:, :2]).all()
    assert costs[3, 2] == math.inf
    assert np.isfinite(costs[:3, 2]).all()
    points, best = pb_engine([flat_before, all_flat, star], [None, None, on_line])
    assert best[:2] == [math.inf, math.inf]
    want_point, want_cost = placement_for("pb", star)
    assert points[2] == want_point
    assert best[2] == pytest.approx(want_cost, rel=1e-9, abs=1e-12)


def first_cheapest(cost, candidates):
    """The first cheapest candidate under ``cost``, skipping any that
    flattens a triangle, as (None, inf) when none survives."""
    best, best_cost = None, math.inf
    for point in candidates:
        try:
            c = cost(point)
        except DegenerateTriangle:
            continue
        if c < best_cost:
            best, best_cost = point, c
    return best, best_cost


def point_quadric(x):
    """Endpoint quadrics whose sum is minimized exactly at x."""
    return (Quadric.from_planes([(1.0, 0.0, 0.0, -x[0]), (0.0, 1.0, 0.0, -x[1])]),
            Quadric.from_planes([(0.0, 0.0, 1.0, -x[2])]))


@pytest.mark.parametrize("kind", ["pb", "gb", "gb_qe"])
def test_placement_is_first_cheapest_candidate_under_oracle(kind):
    rng = np.random.default_rng(81)
    skipped = infeasible = 0
    for trial in range(300):
        star = random_star(rng)
        if trial % 3 == 0:
            # the analytic point lands on a ring vertex, where it
            # flattens that ring's triangle under pb
            q1, q2 = point_quadric(star.upper_pos[1])
        else:
            q1, q2 = random_quadric(rng), random_quadric(rng)
        atoms = rng.normal(scale=2.0, size=(int(rng.integers(0, 6)), 3))
        params = GbCostParams(lam=(0.0, 1e-8, 0.3)[trial // 3 % 3])
        p1, p2 = star.p1, star.p2
        mid = tuple(0.5 * (a + b) for a, b in zip(p1, p2))
        candidates = [mid, p1, p2, minimize_quadric(q1 + q2, p1, p2)]
        if kind == "pb":
            def cost(p):
                return f_pb(star, p)
        else:
            first = "qe_term" if kind == "gb_qe" else "edge_length"
            oracle_params = dataclasses.replace(params, variant=first)

            def cost(p):
                return f_gb(star, p, atoms, oracle_params, q1, q2)
        want = first_cheapest(cost, candidates)
        try:
            got = placement_for(kind, star, q1, q2, atoms, params)
        except CandidateInfeasible:
            got = (None, math.inf)
            infeasible += 1
        assert got == want
        if kind == "pb":
            try:
                f_pb(star, candidates[3])
            except DegenerateTriangle:
                skipped += 1
    if kind == "pb":
        assert skipped >= 100
    assert infeasible == 0


def test_placement_gb_qe_takes_quadric_first_term():
    rng = np.random.default_rng(82)
    for _ in range(50):
        star = random_star(rng)
        q1, q2 = random_quadric(rng), random_quadric(rng)
        atoms = rng.normal(scale=2.0, size=(4, 3))
        point, cost = placement_for("gb_qe", star, q1, q2, atoms, params=GbCostParams())
        qe_first = GbCostParams(variant="qe_term")
        assert cost == f_gb(star, point, atoms, qe_first, q1, q2)
        assert cost == f_qe(q1, q2, point) + 1e-8 * f_ac(star, point, atoms)
        assert (point, cost) == placement_for("gb_qe", star, q1, q2, atoms, params=qe_first)


def test_placement_unknown_kind():
    rng = np.random.default_rng(53)
    with pytest.raises(ValueError):
        placement_for("nope", random_star(rng))


def test_estimate_lambda():
    mesh = icosphere(2, radius=5.0)
    rng = np.random.default_rng(54)
    from decimesh import Atom

    atoms = [Atom(center=c, charge=1.0) for c in rng.normal(size=(12, 3)) * 3.0]
    lam = estimate_lambda(mesh, atoms, GbCostParams(rho=4.0), n_edges=200, seed=1)
    assert lam > 0 and math.isfinite(lam)
    # no atoms anywhere near: fall back to the configured default
    far = [Atom(center=(1e6, 1e6, 1e6), charge=1.0)]
    assert estimate_lambda(mesh, far, GbCostParams(rho=1.0), n_edges=50) == 1e-8


@pytest.mark.parametrize("n_edges", [2.5, 200.7])
def test_estimate_lambda_needs_whole_edge_count(n_edges):
    from decimesh import Atom

    mesh = icosphere(2, radius=5.0)
    with pytest.raises(InvalidConfig, match="whole number"):
        estimate_lambda(mesh, [Atom(center=(0, 0, 0), charge=1.0)], n_edges=n_edges)


def test_estimate_lambda_whole_float_and_infinite_edge_counts():
    from decimesh import Atom

    mesh = icosphere(2, radius=5.0)
    atoms = [Atom(center=c, charge=1.0)
             for c in np.random.default_rng(54).normal(size=(12, 3)) * 3.0]
    params = GbCostParams(rho=4.0)
    assert (estimate_lambda(mesh, atoms, params, n_edges=200.0, seed=1)
            == estimate_lambda(mesh, atoms, params, n_edges=200, seed=1))
    # inf samples every edge
    every = len(list(mesh.edges()))
    assert (estimate_lambda(mesh, atoms, params, n_edges=math.inf, seed=1)
            == estimate_lambda(mesh, atoms, params, n_edges=every, seed=1))


@pytest.mark.parametrize("n_vertices", [0, 3])
def test_estimate_lambda_edgeless_mesh_is_invalid_input(n_vertices):
    from decimesh import Atom

    mesh = TriangleMesh(np.eye(3)[:n_vertices].reshape(-1, 3), [])
    with pytest.raises(InvalidInput, match="no edges") as info:
        estimate_lambda(mesh, [Atom(center=(0, 0, 0), charge=1.0)])
    assert isinstance(info.value, InputError)


@pytest.mark.parametrize("n_edges", [0, -1, math.nan])
def test_estimate_lambda_needs_one_edge_at_least(n_edges):
    from decimesh import Atom

    mesh = icosphere(1, radius=5.0)
    with pytest.raises(InvalidConfig, match="n_edges"):
        estimate_lambda(mesh, [Atom(center=(0, 0, 0), charge=1.0)], n_edges=n_edges)
    # checked before the mesh is read
    with pytest.raises(InvalidConfig, match="n_edges"):
        estimate_lambda(TriangleMesh(np.empty((0, 3)), []), [], n_edges=n_edges)

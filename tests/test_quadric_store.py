"""The Decimator's per-vertex store, batched minimizer and batched
candidate engine against the scalar oracles (`vertex_quadric`,
`minimize_quadric`, `placement_for`): compared bit for bit for the
store, qe, pb and the atom sums, and within rounding (the benchmark's
allowance and an exact rational evaluation) for the vol, gb and gb_qe
costs, whose per-vertex sums add in another order than the oracles."""

from itertools import starmap

import numpy as np
import pytest

from decimesh import Atom, can_collapse, collapse_edge, grid_build, placement_for
from decimesh.costs import _volume_row, pb_placements
from decimesh.decimate import DecimationConfig, Decimator, _edge_keys
from decimesh.errors import CandidateInfeasible, IsolatedVertex
from decimesh.geometry import centroid
from decimesh.mesh import edge_star
from decimesh.quadrics import (
    DET_GUARD,
    HomogeneousPlane,
    Quadric,
    minimize_packed,
    minimize_quadric,
    vertex_quadric,
)
from decimesh.shapes import icosphere

from conftest import (
    assert_atom_sums_equal_grid,
    assert_near_oracle,
    bench_checks,
    bits,
    random_triangle,
)


def same_candidate(got, want):
    if got is None or want is None:
        return got is want
    return bits(got[0]) == bits(want[0]) and bits([got[1]]) == bits([want[1]])


def perturbed_sphere(level, seed, scale=0.02):
    mesh = icosphere(level)
    rng = np.random.default_rng(seed)
    mesh.vertices += rng.normal(scale=scale, size=mesh.vertices.shape)
    return mesh


def oracle_qe(mesh, a, b):
    try:
        q1, q2 = vertex_quadric(mesh, a), vertex_quadric(mesh, b)
    except IsolatedVertex:
        return None
    return placement_for("qe", edge_star(mesh, a, b), q1, q2)


def test_packed_rows_equal_vertex_quadric():
    mesh = perturbed_sphere(3, seed=71)
    cfg = DecimationConfig(cost_kind="qe", target_faces=600)
    dec = Decimator(mesh, cfg)
    dec.build_queue()
    # collapses churn the incidence sets, so rows must follow their
    # iteration order, not triangle-id order
    while mesh.n_faces > 600:
        assert dec.step() is not None
    for v in mesh.live_vertex_ids().tolist():
        want = vertex_quadric(mesh, v)
        assert bits(dec._qv[v]) == bits(want)


def test_minimize_packed_matches_minimize_quadric_on_rank_one_forms():
    # a single plane gives a singular form: the segment or discrete branch
    rng = np.random.default_rng(64)
    rows, p1s, p2s = [], [], []
    for _ in range(50):
        plane = HomogeneousPlane.from_triangle(*random_triangle(rng))
        rows.append(Quadric.from_plane(plane) + Quadric.from_plane(plane))
        p1s.append(tuple(rng.normal(size=3).tolist()))
        p2s.append(tuple(rng.normal(size=3).tolist()))
    points, costs = minimize_packed(np.array(rows), np.array(p1s), np.array(p2s))
    for q, p1, p2, point, cost in zip(rows, p1s, p2s, points, costs):
        want = minimize_quadric(q, p1, p2)
        assert bits(point) == bits(want)
        assert bits([cost]) == bits([q.evaluate(want)])


@pytest.mark.parametrize("flatten", [False, True])
def test_batch_candidates_equal_minimize_quadric(flatten):
    mesh = perturbed_sphere(3, seed=72)
    if flatten:
        mesh.vertices[:, 2] *= 1e-7
    dec = Decimator(mesh, DecimationConfig(cost_kind="qe", target_faces=100))
    dec.build_queue()
    edges = _edge_keys(mesh.live_triangle_array(), len(mesh.vertices))
    got = dec._batch_candidates(edges)
    singular = 0
    for (a, b), cand in zip(edges.tolist(), got):
        q = vertex_quadric(mesh, a) + vertex_quadric(mesh, b)
        point = minimize_quadric(q, mesh.position(a), mesh.position(b))
        assert same_candidate(cand, (point, q.evaluate(point)))
        m = q.matrix()[:3, :3]
        scale = np.linalg.norm(m, axis=1).mean()
        singular += abs(np.linalg.det(m)) <= DET_GUARD * scale**3
    if flatten:
        assert singular > len(edges) // 2
    else:
        assert singular == 0


@pytest.mark.parametrize("level", [3, 4])
def test_qe_candidate_equals_placement_for(level):
    # 1920 and 7680 edges: the same engine below and above 4096 edges
    mesh = perturbed_sphere(level, seed=73)
    target = mesh.n_faces - 200
    dec = Decimator(mesh, DecimationConfig(cost_kind="qe", target_faces=target))
    dec.build_queue()
    while mesh.n_faces > target:
        assert dec.step() is not None
    for a, b in mesh.edges():
        assert same_candidate(dec.candidate(a, b), oracle_qe(mesh, a, b))
    # and so is what the queue holds
    live = [e for e in dec._heap if dec._versions.get((e[1], e[2])) == e[3]]
    assert len(live) > 0.9 * len(list(mesh.edges()))
    for cost, a, b, _, point in live:
        assert same_candidate((point, cost), oracle_qe(mesh, a, b))


@pytest.mark.parametrize("kind", ["qe", "pb", "gb_qe"])
def test_rebuild_after_moving_vertices(kind):
    """After vertices move between collapses, a second ``build_queue``
    rebuilds the quadric store from the current positions: every live
    row equals ``vertex_quadric``, and every later committed candidate
    is the oracle's on the current mesh, bit for bit for qe and pb and
    within rounding for gb_qe."""
    rng = np.random.default_rng(4)
    checks = bench_checks()
    atoms = [Atom(center=(0.1, -0.2, 0.05), charge=1.0)]
    cfg = DecimationConfig(cost_kind=kind, target_faces=80)
    grid = grid_build(atoms, cell_size=cfg.rho)
    mesh = icosphere(2)
    dec = Decimator(mesh, cfg, atoms=atoms if kind == "gb_qe" else None)
    commits = []

    def audit(mesh, cand):
        a, b = cand.v1, cand.v2
        star = edge_star(mesh, a, b)
        q1, q2 = vertex_quadric(mesh, a), vertex_quadric(mesh, b)
        if kind == "qe":
            want = placement_for("qe", star, q1, q2)
        elif kind == "pb":
            # the queue's pb engine, fed the oracle's analytic candidate
            analytic = minimize_quadric(q1 + q2, star.p1, star.p2)
            points, costs = pb_placements(mesh.vertices, [star], [analytic])
            want = (tuple(points[0].tolist()), float(costs[0]))
        else:
            # per-vertex sums: the oracle's cost up to rounding
            got = [(cand.placement, cand.cost)]
            assert_near_oracle(checks, dec, grid, [(a, b)], got, exact_every=1)
            want = got[0]
        commits.append(same_candidate((cand.placement, cand.cost), want))

    dec.build_queue()
    while mesh.n_faces > 200:
        assert dec.step(audit=audit) is not None
    live = mesh.live_vertex_ids()
    mesh.vertices[live] += rng.normal(scale=1e-3, size=(len(live), 3))
    dec.build_queue()
    for v in live.tolist():
        assert bits(dec._qv[v]) == bits(vertex_quadric(mesh, v))
    while mesh.n_faces > 80:
        assert dec.step(audit=audit) is not None
    assert len(commits) == 120
    assert all(commits)


def test_isolated_vertex_keeps_its_meaning():
    """A vertex whose incident triangles are all degenerate has no
    quadric: qe and gb_qe candidates of its edges are infeasible, and
    counted so by the queue, and gb scores only the discrete
    candidates."""
    mesh = icosphere(4, radius=2.0)  # 7680 edges
    v = 0
    ring = sorted(mesh.vertex_neighbors(v))
    # put v and its whole ring on one line: every triangle of v is flat
    for k, u in enumerate([v] + ring):
        mesh.vertices[u] = (0.3 * k - 1.0, 0.0, 0.0)
    atoms = [Atom(center=(0.0, 0.5, 0.0), charge=1.0)]
    for kind in ("qe", "gb", "gb_qe"):
        dec = Decimator(mesh.copy(), DecimationConfig(cost_kind=kind, target_faces=60),
                        atoms=atoms if kind != "qe" else None)
        dec.build_queue()
        assert not dec._has_plane([v])[0]
        assert dec._has_plane(ring).all()
        for u in ring:
            a, b = min(u, v), max(u, v)
            got = dec.candidate(a, b)
            if kind == "gb":
                star = edge_star(dec.mesh, a, b)
                ids = dec._grid.query_edge(star.p1, star.p2, dec.params.rho)
                try:
                    want = placement_for("gb", star, None, None,
                                         dec._grid.centers[ids], dec.params)
                except CandidateInfeasible:
                    want = None
                assert got == want
            else:
                assert got is None
        if kind != "gb":
            assert dec.trace.rejections["infeasible_candidate"] >= len(ring)


# -- the star-free candidate engine of vol, gb and gb_qe -------------------


def ball_atoms(n, seed, radius=8.0):
    """``n`` atoms uniform in a ball about the origin."""
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    r = radius * rng.random(n) ** (1.0 / 3.0)
    return [Atom(center=tuple(x * s), charge=1.0) for x, s in zip(d, r)]


def assert_engine_near_oracle(dec, atoms, exact_every=10):
    """``Decimator._candidates`` over every live edge against the
    scalar oracles (see ``conftest.assert_near_oracle``), and the atom
    count and atom-center sum of every edge equal to those of a fresh
    ``grid.query_edge`` bit for bit. Returns the atom count each edge
    saw."""
    mesh = dec.mesh
    grid = grid_build(atoms, cell_size=dec.config.rho)
    edges = sorted(mesh.edges())
    assert_near_oracle(bench_checks(), dec, grid, edges, dec._candidates(edges), exact_every)
    if dec.config.cost_kind != "vol":
        return assert_atom_sums_equal_grid(dec, grid, edges)
    return [len(grid.query_edge(mesh.position(a), mesh.position(b), dec.config.rho))
            for a, b in edges]


@pytest.mark.parametrize("kind", ["vol", "gb", "gb_qe"])
@pytest.mark.parametrize("lam", [1e-8, 0.0, 1.0])
def test_engine_equals_placement_for(kind, lam):
    """On a perturbed sphere with 150 atoms inside, before and after 120
    collapses: edges near many atoms (more than the eight a pairwise sum
    would split), and edges with none. Costs within the bench allowance
    of the oracle and within rounding of the exact cost; atom sums bit
    for bit."""
    mesh = perturbed_sphere(3, seed=81, scale=0.05)
    mesh.vertices *= 10.0
    atoms = ball_atoms(150, seed=82)
    cfg = DecimationConfig(cost_kind=kind, target_faces=mesh.n_faces - 240, lam=lam)
    dec = Decimator(mesh, cfg, atoms=atoms if kind != "vol" else None)
    dec.build_queue()
    counts = assert_engine_near_oracle(dec, atoms)
    assert min(counts) == 0 and max(counts) > 8
    while mesh.n_faces > cfg.target_faces:
        assert dec.step() is not None
    assert_engine_near_oracle(dec, atoms)


@pytest.mark.parametrize("kind", ["vol", "gb", "gb_qe"])
def test_engine_equals_placement_for_on_flat_stars(kind):
    """A flattened sphere: singular quadrics take the segment and
    discrete branches of the minimizer."""
    mesh = perturbed_sphere(3, seed=83)
    mesh.vertices[:, 2] *= 1e-7
    atoms = ball_atoms(20, seed=84, radius=1.0)
    cfg = DecimationConfig(cost_kind=kind, target_faces=100, rho=0.5, lam=0.1)
    dec = Decimator(mesh, cfg, atoms=atoms if kind != "vol" else None)
    dec.build_queue()
    assert_engine_near_oracle(dec, atoms)


@pytest.mark.parametrize("kind", ["vol", "gb", "gb_qe"])
def test_engine_equals_placement_for_at_isolated_vertex(kind):
    """A vertex whose triangles are all flat has no quadric: gb_qe drops
    its edges and gb scores only the midpoint and the endpoints."""
    mesh = icosphere(3, radius=2.0)
    ring = sorted(mesh.vertex_neighbors(0))
    for k, u in enumerate([0] + ring):
        mesh.vertices[u] = (0.3 * k - 1.0, 0.0, 0.0)
    atoms = [Atom(center=(0.0, 0.5, 0.0), charge=1.0)]
    cfg = DecimationConfig(cost_kind=kind, target_faces=100, lam=0.5)
    dec = Decimator(mesh, cfg, atoms=atoms if kind != "vol" else None)
    dec.build_queue()
    assert not dec._has_plane([0])[0]
    assert_engine_near_oracle(dec, atoms)
    got = dec._candidates([(0, u) for u in ring])
    if kind == "gb_qe":
        assert got == [None] * len(ring)
    else:
        assert None not in got


def assert_store_is_fresh(dec, centers):
    """Every live vertex's store rows equal a from-scratch scalar
    recompute on the current mesh, bit for bit: the packed row
    (``vertex_quadric``, or under vol the ``_volume_row`` form of its
    triangles), and for gb and gb_qe the centroid sum, the degree and
    the atom ball (a brute-force scan)."""
    mesh, kind = dec.mesh, dec.config.cost_kind
    rho = dec.config.rho
    for v in mesh.live_vertex_ids().tolist():
        tris = [mesh.triangle_positions(t) for t in mesh.incident_triangles(v)]
        if kind == "vol":
            want = Quadric.from_planes(starmap(_volume_row, tris))
        else:
            try:
                want = vertex_quadric(mesh, v)
            except IsolatedVertex:
                want = Quadric.zero()
        assert bits(dec._qv[v]) == bits(want), v
        if kind == "vol":
            continue
        sums = [0.0, 0.0, 0.0]
        for tri in tris:
            for k, c in enumerate(centroid(*tri)):
                sums[k] += c
        assert bits(dec._centroids[v]) == bits(sums), v
        assert dec._degree[v] == len(tris)
        d2 = ((centers - mesh.vertices[v]) ** 2).sum(axis=1)
        assert dec._atom_balls[v].tolist() == np.flatnonzero(d2 <= rho * rho).tolist(), v


@pytest.mark.parametrize("kind", ["vol", "gb", "gb_qe"])
@pytest.mark.parametrize("seed", [0, 1])
def test_store_follows_random_collapses(kind, seed):
    """After every commit of a random collapse sequence (random legal
    edges and placements through ``collapse_edge`` and ``refresh``,
    mixed with greedy ``step`` commits), the per-vertex store equals a
    from-scratch recompute: the vol row, centroid sum, degree and atom
    ball of every live vertex."""
    rng = np.random.default_rng(seed)
    mesh = perturbed_sphere(2, seed=90 + seed, scale=0.05)
    mesh.vertices *= 3.0
    atoms = ball_atoms(60, seed=92 + seed, radius=3.5)
    centers = np.array([a.center for a in atoms])
    cfg = DecimationConfig(cost_kind=kind, target_faces=4, rho=1.5)
    dec = Decimator(mesh, cfg, atoms=atoms if kind != "vol" else None)
    dec.build_queue()
    assert_store_is_fresh(dec, centers)
    for _ in range(40):
        if rng.random() < 0.25:
            assert dec.step() is not None
        else:
            legal = [e for e in sorted(mesh.edges()) if can_collapse(mesh, *e).ok]
            a, b = legal[rng.integers(len(legal))]
            if rng.random() < 0.5:
                a, b = b, a
            t = rng.random()
            vbar = tuple(((1.0 - t) * mesh.vertices[a] + t * mesh.vertices[b]).tolist())
            collapse_edge(mesh, a, b, vbar, warn_on_flip=False)
            dec.refresh(a)
        assert_store_is_fresh(dec, centers)

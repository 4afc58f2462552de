"""The Decimator's packed quadric store and batched minimizer against
the scalar oracles (`vertex_quadric`, `minimize_quadric`,
`placement_for`), compared bit for bit."""

import numpy as np
import pytest

from decimesh import Atom, grid_build, placement_for
from decimesh.costs import pb_placements
from decimesh.decimate import DecimationConfig, Decimator, _edge_keys
from decimesh.errors import CandidateInfeasible, IsolatedVertex
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

from conftest import random_triangle


def bits(values):
    """Float values as raw 64-bit patterns, so -0.0 != 0.0 and NaN == NaN."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


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


@pytest.mark.parametrize("area_weight", [False, True])
def test_packed_rows_equal_vertex_quadric(area_weight):
    mesh = perturbed_sphere(3, seed=71)
    cfg = DecimationConfig(cost_kind="qe", target_faces=600, area_weight=area_weight)
    dec = Decimator(mesh, cfg)
    dec.build_queue()
    # collapses churn the incidence sets, so rows must follow their
    # iteration order, not triangle-id order
    while mesh.n_faces > 600:
        assert dec.step() is not None
    for v in mesh.live_vertex_ids().tolist():
        want = vertex_quadric(mesh, v, area_weight=area_weight)
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
def test_stage_hook_rebuilds_quadrics(kind):
    """After a hook moves vertices, every committed candidate is the
    oracle's on the current mesh, bit for bit."""
    rng = np.random.default_rng(4)

    def jiggle(mesh):
        live = mesh.live_vertex_ids()
        mesh.vertices[live] += rng.normal(scale=1e-3, size=(len(live), 3))
        return mesh

    atoms = [Atom(center=(0.1, -0.2, 0.05), charge=1.0)]
    cfg = DecimationConfig(cost_kind=kind, target_faces=80, stages=2)
    grid = grid_build(atoms, cell_size=cfg.rho)
    dec = Decimator(icosphere(2), cfg, atoms=atoms if kind == "gb_qe" else None)
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
            ids = grid.query_edge(star.p1, star.p2, cfg.rho)
            want = placement_for(kind, star, q1, q2, grid.centers[ids], dec.params)
        commits.append(same_candidate((cand.placement, cand.cost), want))

    mesh, trace = dec.run(audit=audit, stage_hook=jiggle)
    assert mesh.n_faces == 80
    assert len(trace.stages) == 2
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

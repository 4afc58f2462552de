import heapq
import math

import numpy as np
import pytest

from decimesh import Atom, TriangleMesh, decimate, grid_build, validate
from decimesh.decimate import DecimationConfig, Decimator
from decimesh.errors import InvalidConfig, InvalidInput, MissingAtoms
from decimesh.mesh import can_collapse, quality_summary, _changed_normal_flips
from decimesh.shapes import icosphere, octahedron, tetrahedron

from conftest import (
    assert_atom_sums_equal_grid,
    assert_near_oracle,
    bench_checks,
    synthetic_molecule,
)


def torus(nu=8, nv=8, big=3.0, small=1.0):
    verts = []
    for i in range(nu):
        u = 2 * math.pi * i / nu
        for j in range(nv):
            v = 2 * math.pi * j / nv
            verts.append(
                (
                    (big + small * math.cos(v)) * math.cos(u),
                    (big + small * math.cos(v)) * math.sin(u),
                    small * math.sin(v),
                )
            )

    def vid(i, j):
        return (i % nu) * nv + (j % nv)

    faces = []
    for i in range(nu):
        for j in range(nv):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i, j + 1), vid(i + 1, j + 1)
            faces += [(a, b, d), (a, d, c)]
    return TriangleMesh(verts, faces)


def test_config_validation():
    with pytest.raises(ValueError):
        DecimationConfig(cost_kind="nope", target_faces=100)
    with pytest.raises(ValueError):
        DecimationConfig(cost_kind="qe", target_faces=2)
    # one typed input error, which is a ValueError too
    with pytest.raises(InvalidConfig):
        DecimationConfig(cost_kind="qe", target_faces=100, validate_every=-3)
    for rho, lam in ((-1.0, 1e-8), (5.0, -1.0), (math.nan, 1e-8)):
        with pytest.raises(InvalidConfig):
            Decimator(icosphere(1), DecimationConfig(
                cost_kind="qe", target_faces=40, rho=rho, lam=lam))


def test_icosphere_320_to_80_qe():
    mesh = icosphere(2)
    cfg = DecimationConfig(cost_kind="qe", target_faces=80, validate_every=1)
    mesh, trace = decimate(mesh, cfg)
    assert trace.n_collapses == 120
    assert mesh.n_faces == 80
    assert not trace.queue_exhausted
    stats = validate(mesh)
    assert stats.euler_characteristic == 2
    faces = [r.faces_after for r in trace.records]
    assert faces == list(range(318, 78, -2))


@pytest.mark.parametrize("kind", ["vol", "pb"])
def test_other_costs_reach_target(kind):
    mesh = icosphere(2)
    cfg = DecimationConfig(cost_kind=kind, target_faces=80, validate_every=1)
    mesh, trace = decimate(mesh, cfg)
    assert mesh.n_faces == 80
    assert validate(mesh).euler_characteristic == 2


def test_gb_costs_reach_target():
    rng = np.random.default_rng(1)
    atoms = [Atom(center=c, charge=1.0) for c in rng.normal(size=(10, 3)) * 0.5]
    for kind in ("gb", "gb_qe"):
        mesh = icosphere(2, radius=2.0)
        cfg = DecimationConfig(cost_kind=kind, target_faces=80,
                               validate_every=1, rho=2.5)
        mesh, trace = decimate(mesh, cfg, atoms=atoms)
        assert mesh.n_faces == 80
        assert validate(mesh).euler_characteristic == 2


def test_target_at_input_is_identity(sphere320):
    mesh = sphere320.copy()
    before = mesh.vertices.copy()
    cfg = DecimationConfig(cost_kind="qe", target_faces=320)
    mesh, trace = decimate(mesh, cfg)
    assert trace.n_collapses == 0
    assert mesh.n_faces == 320
    assert np.array_equal(mesh.vertices, before)


def test_missing_atoms():
    with pytest.raises(MissingAtoms):
        decimate(icosphere(1), DecimationConfig(cost_kind="gb", target_faces=40))


def test_invalid_input_rejected(tetra):
    broken = TriangleMesh(tetra.vertices, list(tetra.live_triangles())[:3])
    with pytest.raises(InvalidInput):
        decimate(broken, DecimationConfig(cost_kind="qe", target_faces=4))


def test_queue_exhausts_on_torus():
    mesh = torus()
    cfg = DecimationConfig(cost_kind="qe", target_faces=4, validate_every=1)
    mesh, trace = decimate(mesh, cfg)
    assert trace.queue_exhausted
    # a torus cannot be decimated to a tetrahedron; chi stays 0
    assert mesh.n_faces > 4
    assert validate(mesh).euler_characteristic == 0


def test_refresh_covers_every_edge_with_ring_endpoint(octa):
    cfg = DecimationConfig(cost_kind="qe", target_faces=4)
    dec = Decimator(octa, cfg)
    dec.build_queue()
    rec = dec.step()
    assert rec is not None
    # after one octahedron collapse every remaining vertex lies in the
    # merged vertex's 1-ring, so all 9 surviving edges are refreshed
    center = rec.v1
    refreshed = dec.refresh(center)
    assert refreshed == set(octa.edges())
    assert len(refreshed) == 9


def test_refresh_leaves_one_valid_entry_per_edge(octa):
    cfg = DecimationConfig(cost_kind="qe", target_faces=4)
    dec = Decimator(octa, cfg)
    dec.build_queue()
    rec = dec.step()
    refreshed = dec.refresh(rec.v1)
    for key in refreshed:
        current = dec._versions[key]
        entries = [
            e for e in dec._heap if (e[1], e[2]) == key and e[3] == current
        ]
        assert len(entries) == 1


def test_stale_entries_are_skipped(octa):
    cfg = DecimationConfig(cost_kind="qe", target_faces=4)
    dec = Decimator(octa, cfg)
    dec.build_queue()
    key = next(octa.edges())
    # invalidate the edge and plant an irresistible stale entry
    dec._versions[key] += 1
    heapq.heappush(dec._heap, (-1e9, key[0], key[1], dec._versions[key] - 1, (0.0, 0.0, 0.0)))
    before = octa.n_faces
    dec.step()
    assert dec.trace.stale_pops >= 1
    assert octa.n_faces == before - 2  # a real candidate was committed instead


def test_flip_veto_rejects_planted_candidate(octa):
    cfg = DecimationConfig(cost_kind="qe", target_faces=4, veto_flips=True)
    dec = Decimator(octa, cfg)
    dec.build_queue()
    key = (0, 4)
    dec._versions[key] += 1
    heapq.heappush(dec._heap, (-1e9, 0, 4, dec._versions[key], (-4.0, 0.0, 0.0)))
    dec.step()
    assert dec.trace.rejections.get("flip_veto") == 1
    assert all(r.flipped == 0 for r in dec.trace.records)


def test_flip_applied_when_veto_disabled(octa):
    cfg = DecimationConfig(cost_kind="qe", target_faces=4, veto_flips=False)
    dec = Decimator(octa, cfg)
    dec.build_queue()
    key = (0, 4)
    dec._versions[key] += 1
    heapq.heappush(dec._heap, (-1e9, 0, 4, dec._versions[key], (-4.0, 0.0, 0.0)))
    rec = dec.step()
    assert (rec.v1, rec.v2) == (0, 4)
    assert dec.trace.records[0].flipped > 0


def test_deterministic_traces():
    def run():
        mesh, atoms = synthetic_molecule(n_atoms=8, level=1, radius=4.0, seed=3)
        cfg = DecimationConfig(cost_kind="gb_qe", target_faces=32)
        mesh, trace = decimate(mesh, cfg, atoms=atoms)
        return trace

    t1, t2 = run(), run()
    assert t1.records == t2.records
    assert t1.rejections == t2.rejections

    def run_qe():
        mesh = icosphere(2)
        cfg = DecimationConfig(cost_kind="qe", target_faces=60)
        _, trace = decimate(mesh, cfg)
        return trace

    assert run_qe().records == run_qe().records


def test_trace_quality_is_output_summary():
    """One pass to the target; the trace carries the output mesh's
    quality summary."""
    mesh = icosphere(2)
    cfg = DecimationConfig(cost_kind="qe", target_faces=80)
    mesh, trace = decimate(mesh, cfg)
    q = trace.quality
    assert q == quality_summary(mesh)
    assert q.n_faces == mesh.n_faces == 80
    assert q.min_quality >= 2.0
    assert 0.0 <= q.well_centered_fraction <= 1.0
    assert sum(q.histogram.values()) == q.n_faces


def test_audit_sees_greedy_minimum():
    """Exhaustive-scan oracle: each committed collapse is the cheapest
    currently-valid candidate."""
    for kind in ("qe", "pb"):
        mesh = icosphere(1, radius=2.0)
        rng = np.random.default_rng(6)
        mesh.vertices += rng.normal(scale=0.02, size=mesh.vertices.shape)
        cfg = DecimationConfig(cost_kind=kind, target_faces=40)
        dec = Decimator(mesh, cfg)
        violations = []

        def audit(m, cand):
            best = math.inf
            for (a, b) in m.edges():
                if not can_collapse(m, a, b):
                    continue
                res = dec.candidate(a, b)
                if res is None:
                    continue
                point, cost = res
                vt = m._vertex_tris
                shared = vt[a] & vt[b]
                _, nonpos = _changed_normal_flips(
                    m, a, b, tuple(point), (vt[a] | vt[b]) - shared
                )
                if nonpos:
                    continue
                best = min(best, cost)
            if cand.cost > best + 1e-12 * (1.0 + abs(best)):
                violations.append((cand.v1, cand.v2, cand.cost, best))

        dec.run(audit=audit)
        assert not violations


def test_mesh_is_mutated_in_place():
    mesh = icosphere(1)
    out, _ = decimate(mesh, DecimationConfig(cost_kind="qe", target_faces=40))
    assert out is mesh
    assert mesh.n_faces == 40


def test_rejection_counters_present():
    mesh = torus(6, 6)
    cfg = DecimationConfig(cost_kind="qe", target_faces=4)
    mesh, trace = decimate(mesh, cfg)
    assert trace.queue_exhausted
    assert sum(trace.rejections.values()) > 0


@pytest.mark.parametrize("kind", ["qe", "vol", "pb", "gb_qe"])
def test_retired_vertex_entries_go_stale(kind):
    """A collapse retires v2; its queued edges must not stay current,
    or they pop later as bogus not_an_edge rejections."""
    mesh, atoms = synthetic_molecule(n_atoms=10, level=2, radius=5.0, seed=8)
    rng = np.random.default_rng(9)
    mesh.vertices += rng.normal(scale=0.02, size=mesh.vertices.shape)
    cfg = DecimationConfig(cost_kind=kind, target_faces=80)
    dec = Decimator(mesh, cfg, atoms=atoms)
    dec.build_queue()
    zombies = 0
    while mesh.n_faces > 80:
        rec = dec.step()
        assert rec is not None
        alive = mesh._vertex_alive
        for _, a, b, version, _ in dec._heap:
            if not (alive[a] and alive[b]):
                assert dec._versions.get((a, b)) != version
                zombies += 1
    assert zombies > 0
    assert "not_an_edge" not in dec.trace.rejections
    assert dec.trace.stale_pops > 0


def test_bulk_qe_run_records_no_not_an_edge():
    # 7680 edges: the packed-quadric batch path with heap compaction
    mesh = icosphere(4)
    mesh, trace = decimate(mesh, DecimationConfig(cost_kind="qe", target_faces=1000))
    assert mesh.n_faces == 1000
    assert "not_an_edge" not in trace.rejections
    assert trace.stale_pops > 0


def test_atom_ball_cache_matches_grid_query():
    """After collapses have moved and retired vertices, the atom count
    and atom-center sum built from the cached per-vertex atom balls
    equal those of a fresh grid.query_edge, bit for bit, and every
    candidate is the oracle's up to rounding."""
    mesh, atoms = synthetic_molecule(n_atoms=16, level=3, radius=6.0, seed=11)
    checks = bench_checks()
    for kind in ("gb", "gb_qe"):
        work = mesh.copy()
        cfg = DecimationConfig(cost_kind=kind, target_faces=700, rho=3.0, lam=0.01)
        dec = Decimator(work, cfg, atoms=atoms)
        dec.run()
        assert work.n_faces == 700
        grid = grid_build(atoms, cell_size=cfg.rho)
        edges = sorted(work.edges())
        with_atoms = sum(
            bool(grid.query_edge(work.position(a), work.position(b), cfg.rho)) for a, b in edges
        )
        assert with_atoms > 100
        assert_atom_sums_equal_grid(dec, grid, edges)
        assert_near_oracle(checks, dec, grid, edges, [dec.candidate(a, b) for a, b in edges])

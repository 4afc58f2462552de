"""Output checks, run outside the timed part of a workload.

Each check returns a list of failure messages; an empty list passes.
They compare against computations made apart from the program (the
scalar cost oracles on a replayed mesh, ``reference``'s energetics) or
against properties the method must have, never against stored output.
"""

from __future__ import annotations

import json
import re

import numpy as np

import reference

RTOL = 1e-9
# allowed rounding, as a share of the size of the terms a cost cancels
ROUNDING = 1e-13
ULPS = 8 * 2.0**-52
ENERGY_RTOL = 1e-10
GB_KINDS = ("gb", "gb_qe")
DISCRETE_KINDS = ("pb", "gb", "gb_qe")
MAX_MESSAGES = 5


def _term_size(q, p):
    """The quadric ``q`` at ``p`` with every term made positive: the size
    of the terms a small cost is the difference of."""
    x, y, z = abs(p[0]), abs(p[1]), abs(p[2])
    return (abs(q.xx) * x * x + abs(q.yy) * y * y + abs(q.zz) * z * z + abs(q.ww)
            + 2.0 * (abs(q.xy) * x * y + abs(q.xz) * x * z + abs(q.yz) * y * z
                     + abs(q.xw) * x + abs(q.yw) * y + abs(q.zw) * z))


def _oracle(dm, mesh, kind, a, b, grid, params):
    """Scalar cost of collapsing (a, b) on ``mesh`` as it is now.

    Returns (cost, allowance): ``cost(p)`` is the oracle at placement
    ``p``, None where ``p`` degenerates a triangle; ``allowance(p, c)``
    is how far a cost computed another way may sit from ``c``: RTOL
    relative, plus ROUNDING times the size of the terms a small cost is
    the difference of. For gb the edge length does not depend on the
    placement, so the tolerance applies to the lam-weighted atom term
    alone, plus a few units in the last place."""
    q1 = q2 = None
    if kind in ("qe", "gb", "gb_qe"):
        try:
            q1 = dm.quadrics.vertex_quadric(mesh, a)
            q2 = dm.quadrics.vertex_quadric(mesh, b)
        except dm.errors.IsolatedVertex:
            pass
    if kind == "qe":
        q = q1 + q2
        return (lambda p: dm.quadrics.f_qe(q1, q2, p)), _quadric_allowance(q)
    star = dm.mesh.edge_star(mesh, a, b)
    if kind == "vol":
        vq = dm.costs.vol_quadric(star)
        return (lambda p: dm.costs.f_vol(star, p)), _quadric_allowance(vq)
    if kind == "pb":
        size = 2.0 * sum(dm.costs.ring_qualities(star))

        def pb(p):
            try:
                return dm.costs.f_pb(star, p)
            except dm.errors.DegenerateTriangle:
                return None
        return pb, (lambda p, c: RTOL * abs(c) + ROUNDING * size)
    positions = grid.centers[grid.query_edge(star.p1, star.p2, params.rho)]

    def gb(p):
        return dm.costs.f_gb(star, p, positions, params, q1, q2)
    if kind == "gb_qe":
        return gb, _quadric_allowance(q1 + q2)

    def atom_term(p, c):
        return RTOL * params.lam * dm.costs.f_ac(star, p, positions) + ULPS * abs(c)
    return gb, atom_term


def _quadric_allowance(q):
    return lambda p, c: RTOL * abs(c) + ROUNDING * _term_size(q, p)


def check_decimation(dm, mesh, atoms, config, out, trace):
    """Replay ``trace`` on a fresh copy of ``mesh`` through the public
    ``collapse_edge`` and audit every record against the scalar oracle.

    Checks: each recorded cost equals the oracle at the recorded
    placement within the oracle's allowance; for the discrete-placement
    kinds no member of {midpoint, v1, v2} is cheaper; the replayed mesh equals
    ``out``; ``out`` has exactly the target face count, chi = 2 and is a
    closed manifold.
    """
    kind = config.cost_kind
    fails = []
    grid = params = None
    if kind in GB_KINDS:
        grid = dm.grid.grid_build(atoms, cell_size=config.rho)
        variant = "qe_term" if kind == "gb_qe" else "edge_length"
        params = dm.costs.GbCostParams(rho=config.rho, lam=config.lam, variant=variant)
    m = mesh.copy()
    for i, rec in enumerate(trace.records):
        a, b, p = rec.v1, rec.v2, tuple(rec.placement)
        cost_at, allowance = _oracle(dm, m, kind, a, b, grid, params)
        want = cost_at(p)
        if (want is None or abs(rec.cost - want) > allowance(p, want)) \
                and len(fails) < MAX_MESSAGES:
            fails.append(f"{kind} record {i} ({a}, {b}): cost {rec.cost!r}, oracle {want!r}")
        if kind in DISCRETE_KINDS:
            p1, p2 = m.position(a), m.position(b)
            mid = (0.5 * (p1[0] + p2[0]), 0.5 * (p1[1] + p2[1]), 0.5 * (p1[2] + p2[2]))
            for label, cand in (("midpoint", mid), ("v1", p1), ("v2", p2)):
                c = cost_at(cand)
                if c is not None and rec.cost - c > allowance(cand, c):
                    if len(fails) < MAX_MESSAGES:
                        fails.append(f"{kind} record {i}: {label} costs {c!r} < {rec.cost!r}")
        dm.mesh.collapse_edge(m, a, b, p, warn_on_flip=False)
        if m.n_faces != rec.faces_after and len(fails) < MAX_MESSAGES:
            fails.append(f"{kind} record {i}: {m.n_faces} faces after replay, "
                         f"trace says {rec.faces_after}")
    if not same_mesh(m, out):
        fails.append(f"{kind}: replayed mesh differs from the returned one")
    stats = dm.mesh.validate(out)
    if stats.n_faces != config.target_faces:
        fails.append(f"{kind}: {stats.n_faces} faces, target {config.target_faces}")
    if stats.euler_characteristic != 2 or not stats.is_closed_manifold:
        fails.append(f"{kind}: chi {stats.euler_characteristic}, "
                     f"closed manifold {stats.is_closed_manifold}")
    return fails


def same_mesh(m1, m2):
    """Same live vertex ids, positions and triangle rows."""
    v1, v2 = m1.live_vertex_ids(), m2.live_vertex_ids()
    return (
        np.array_equal(v1, v2)
        and np.array_equal(m1.vertices[v1], m2.vertices[v2])
        and np.array_equal(m1.live_triangle_ids(), m2.live_triangle_ids())
        and np.array_equal(m1.live_triangle_array(), m2.live_triangle_array())
    )


def mesh_arrays(mesh):
    return mesh.vertices, mesh.live_triangle_array()


def atom_arrays(atoms):
    centers = np.array([a.center for a in atoms]).reshape(-1, 3)
    charges = np.array([a.charge for a in atoms], dtype=float)
    return centers, charges


def check_energy(mesh, atoms, rule, radii, energy, label):
    """The program's radii and G_pol against ``reference`` at ENERGY_RTOL."""
    fails = []
    vertices, tris = mesh_arrays(mesh)
    centers, charges = atom_arrays(atoms)
    want_r = reference.born_radii(vertices, tris, centers, rule)
    err = max((reference.rel_err(g, w) for g, w in zip(radii.tolist(), want_r.tolist())),
              default=0.0)
    if err > ENERGY_RTOL:
        fails.append(f"{label}: Born radii off the reference by {err:.3g} relative")
    want_g = reference.g_pol(centers, charges, want_r)
    err = reference.rel_err(energy, want_g)
    if err > ENERGY_RTOL:
        fails.append(f"{label}: G_pol {energy!r} vs reference {want_g!r} ({err:.3g} relative)")
    return fails


_WALL = re.compile(r'"wall_time_s": [^,\n]*')


def without_wall_times(report_json):
    return _WALL.sub('"wall_time_s": null', report_json)


def expected_cells(n_faces, costs, targets):
    """(cost kind, face target) of every row of a sweep, reference first,
    with percent targets resolved as round(n_faces * percent / 100)."""
    faces = [round(n_faces * float(t.rstrip("%")) / 100.0) for t in targets.split(",")]
    return [("reference", n_faces)] + [(k, f) for k in costs.split(",") for f in faces]


def check_report(report_json, mesh, atoms, costs, targets):
    """A compare report of the sweep ``costs`` x ``targets``: one row per
    cell in order, exact face counts, the reference G_pol equal to
    ``reference``'s and every drift equal to its definition. Error rows
    are failed operations, which the round counts; they are skipped."""
    fails = []
    rows = json.loads(report_json)["rows"]
    cells = [(r["cost_kind"], r["target_faces"]) for r in rows]
    if cells != expected_cells(mesh.n_faces, costs, targets):
        return [f"report rows {cells}, expected "
                f"{expected_cells(mesh.n_faces, costs, targets)}"]
    for row in rows:
        if row["error"] is None and row["actual_faces"] != row["target_faces"]:
            fails.append(f"{row['cost_kind']}@{row['target_faces']}: "
                         f"{row['actual_faces']} faces")
    vertices, tris = mesh_arrays(mesh)
    centers, charges = atom_arrays(atoms)
    want = reference.g_pol(centers, charges,
                           reference.born_radii(vertices, tris, centers, "1pt"))
    ref_g = rows[0]["g_pol"]
    if ref_g is None:
        return fails
    if reference.rel_err(ref_g, want) > ENERGY_RTOL:
        fails.append(f"reference G_pol {ref_g!r}, independent evaluation {want!r}")
    for row in rows[1:]:
        if row["error"] is None and row["delta_g_pol"] != abs(row["g_pol"] - ref_g):
            fails.append(f"{row['cost_kind']}@{row['target_faces']}: delta_g_pol "
                         f"{row['delta_g_pol']!r} != |{row['g_pol']!r} - {ref_g!r}|")
    return fails

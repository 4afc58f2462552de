import math
import sys
import tracemalloc

import numpy as np
import pytest

from decimesh import (
    Atom,
    GBParams,
    GbCostParams,
    HarnessParams,
    TriangleMesh,
    decimate,
    grid_build,
    nonpolar_energy,
    validate,
)
from decimesh.decimate import DecimationConfig, Decimator, _edge_keys
from decimesh.errors import InvalidConfig, InvalidInput, MissingAtoms
from decimesh.mesh import quality_summary
from decimesh.shapes import icosphere, octahedron, tetrahedron

from conftest import (
    assert_atom_sums_equal_grid,
    assert_near_oracle,
    bench_checks,
    block_budget,
    greedy_audit,
    live_entries,
    pinched_spheres,
    synthetic_molecule,
)


def plant(dec, a, b, point, cost=-1e9):
    """Queue (point, cost) for edge (a, b), a < b, through the queue's
    own push path: a fresh stamp, so the edge's older entries go stale."""
    n = len(dec.mesh.vertices)
    keys, slots = _edge_keys(dec.mesh.triangles, n)
    i = int(np.searchsorted(keys, a * n + b))
    assert keys[i] == a * n + b
    dec._enqueue(keys[i:i + 1], slots[i:i + 1], np.array([point]), np.array([cost]),
                 np.array([True]), append=False)


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


@pytest.mark.parametrize("settings", [
    {"target_faces": math.nan},
    {"target_faces": math.inf},
    {"target_faces": 100.7},
    {"target_faces": "100"},
    {"target_faces": 100, "validate_every": 0.5},
    {"target_faces": 100, "validate_every": math.nan},
], ids=["nan", "inf", "fraction", "string", "validate-fraction", "validate-nan"])
def test_config_needs_whole_counts(settings):
    with pytest.raises(InvalidConfig, match="whole number"):
        DecimationConfig(cost_kind="qe", **settings)


def test_config_takes_numpy_and_whole_float_counts():
    want = decimate(icosphere(2), DecimationConfig("qe", 80, validate_every=7))[1]
    for target, every in ((np.int64(80), np.int32(7)), (80.0, 7.0)):
        got = decimate(icosphere(2), DecimationConfig("qe", target, validate_every=every))[1]
        assert got.records == want.records


@pytest.mark.parametrize("make", [
    lambda: HarnessParams(gamma="0.1"),
    lambda: nonpolar_energy(icosphere(1), "0.1"),
    lambda: GbCostParams(rho="5"),
    lambda: GbCostParams(lam=None),
    lambda: GBParams(eps_p="1"),
    lambda: grid_build([], cell_size="5"),
    lambda: DecimationConfig("qe", 100, rho="5"),
    lambda: DecimationConfig("qe", 100, lam=None),
    lambda: HarnessParams(rho="5"),
    lambda: HarnessParams(lam="1e-8"),
], ids=["harness-gamma", "nonpolar-gamma", "cost-rho", "cost-lam", "eps-p", "cell-size",
        "config-rho", "config-lam", "harness-rho", "harness-lam"])
def test_settings_need_real_numbers(make):
    """A setting that is not a real number is an ``InvalidConfig`` when
    the object is built, not a bare ``TypeError`` then or later."""
    with pytest.raises(InvalidConfig):
        make()


def test_settings_take_numpy_scalars():
    assert GbCostParams(rho=np.float64(2.5), lam=np.int64(0)) == GbCostParams(rho=2.5, lam=0)
    assert HarnessParams(rho=np.int32(5), gamma=np.float32(0.25)).gamma == 0.25
    assert GBParams(eps_p=np.float64(2.0), eps_w=np.int64(80)).tau == GBParams(2.0, 80.0).tau
    assert grid_build([], cell_size=np.int64(3)).cell_size == 3.0
    assert DecimationConfig("gb", 100, rho=np.float64(4.0), lam=np.float32(0.5)).rho == 4.0


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
    broken = TriangleMesh(tetra.vertices, tetra.live_triangle_array()[:3])
    with pytest.raises(InvalidInput):
        decimate(broken, DecimationConfig(cost_kind="qe", target_faces=4))


@pytest.mark.parametrize("n_vertices", [0, 3])
def test_faceless_input_rejected(n_vertices):
    mesh = TriangleMesh(np.eye(3)[:n_vertices].reshape(-1, 3), [])
    assert not validate(mesh).is_closed_manifold
    with pytest.raises(InvalidInput, match="no faces"):
        Decimator(mesh, DecimationConfig(cost_kind="qe", target_faces=4))


@pytest.mark.parametrize("kind", ["qe", "vol"])
def test_pinched_input_rejected(kind):
    # qe and vol score edges without a star walk, so only validation
    # keeps them off the glued vertex
    mesh, top = pinched_spheres()
    with pytest.raises(InvalidInput, match=f"vertex {top} is a pinch"):
        Decimator(mesh, DecimationConfig(cost_kind=kind, target_faces=100))


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
    live = live_entries(dec)
    for key in refreshed:
        entries = [e for e in live if (e[1], e[2]) == key]
        assert len(entries) == 1


def test_stale_entries_are_skipped(octa):
    cfg = DecimationConfig(cost_kind="qe", target_faces=4)
    dec = Decimator(octa, cfg)
    dec.build_queue()
    key = next(octa.edges())
    # plant an irresistible entry, then requeue the edge over it, so the
    # planted entry is stale
    plant(dec, *key, (0.0, 0.0, 0.0))
    plant(dec, *key, *dec.candidate(*key))
    before = octa.n_faces
    dec.step()
    assert dec.trace.stale_pops >= 1
    assert octa.n_faces == before - 2  # a real candidate was committed instead


def test_flip_veto_rejects_planted_candidate(octa):
    cfg = DecimationConfig(cost_kind="qe", target_faces=4, veto_flips=True)
    dec = Decimator(octa, cfg)
    dec.build_queue()
    plant(dec, 0, 4, (-4.0, 0.0, 0.0))
    dec.step()
    assert dec.trace.rejections.get("flip_veto") == 1
    assert all(r.flipped == 0 for r in dec.trace.records)


def test_flip_applied_when_veto_disabled(octa):
    cfg = DecimationConfig(cost_kind="qe", target_faces=4, veto_flips=False)
    dec = Decimator(octa, cfg)
    dec.build_queue()
    plant(dec, 0, 4, (-4.0, 0.0, 0.0))
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
        audit, seen = greedy_audit(dec)
        dec.run(audit=audit)
        assert seen
        assert not [(cand.v1, cand.v2, cand.cost, best) for cand, best, _ in seen
                    if cand.cost > best + 1e-12 * (1.0 + abs(best))]
        assert all(same for _, _, same in seen)


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
    n = len(mesh.vertices)
    while mesh.n_faces > 80:
        rec = dec.step()
        assert rec is not None
        alive = mesh._vertex_alive
        for entry in dec._heap:
            a, b = divmod(entry[1], n)
            if not (alive[a] and alive[b]):
                assert not dec._live(entry)
                zombies += 1
    assert zombies > 0
    assert "not_an_edge" not in dec.trace.rejections
    assert dec.trace.stale_pops > 0


@pytest.mark.parametrize("kind", ["qe", "vol", "pb", "gb", "gb_qe"])
def test_candidate_of_a_non_edge_is_none(kind):
    """The audit path scores edges only: two vertices that share no
    triangle, or one vertex twice, have no candidate under any kind."""
    mesh, atoms = synthetic_molecule(n_atoms=10, level=2, radius=5.0, seed=8)
    dec = Decimator(mesh, DecimationConfig(cost_kind=kind, target_faces=80), atoms=atoms)
    dec.build_queue()
    assert 161 not in mesh.vertex_neighbors(0)
    assert dec.candidate(0, 161) is None
    assert dec.candidate(0, 0) is None
    assert dec.candidate(0, min(mesh.vertex_neighbors(0))) is not None


def test_qe_commit_python_calls():
    """Python function calls per qe commit on the level-4 sphere (5,120
    to 4,608 faces), counted with ``sys.setprofile``: unlike a time, a
    count does not move with the host. A commit makes 57 here (numpy
    2.4, Python 3.11), 18 of them in numpy's own Python-level wrappers
    (``errstate``, ``ndarray.all``, ``sort``, ``repeat``, ``argmin``),
    whose number changes between numpy versions; the bound leaves room
    for twice as many. Heap entries carrying placement tuples, a version
    dict keyed by edge tuples and a neighbourhood walked once per check
    made 244."""
    mesh = icosphere(4, radius=10.0)
    dec = Decimator(mesh, DecimationConfig(cost_kind="qe", target_faces=4608))
    dec.build_queue()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        while mesh.n_faces > 4608:
            assert dec.step() is not None
    finally:
        sys.setprofile(None)
    assert calls / 256 < 80, calls / 256


def test_qe_queue_memory_per_edge():
    """Bytes a qe Decimator keeps once its queue is built on the level-5
    sphere (30,720 edges), per edge, by tracemalloc: the per-vertex
    store, the heap of plain-number entries and the stamp and placement
    arrays by corner slot. 291 B here; the bound leaves 50 B for other
    Python and numpy versions. Entries that carried placement tuples,
    with a version dict keyed by edge tuples, kept 440 B."""
    mesh = icosphere(5, radius=10.0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        dec = Decimator(mesh, DecimationConfig(cost_kind="qe", target_faces=1000))
        dec.build_queue()
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(dec._heap) == 30720
    assert kept / 30720 < 340, kept / 30720


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


_DEFAULT_BUDGET_RUNS = {}


def molecule_run(kind):
    """Trace and output positions of the molecule decimated under
    ``kind`` with a weighty atom term, so every ball's atoms count."""
    mesh, atoms = synthetic_molecule(n_atoms=200, level=3, radius=10.0, seed=7)
    cfg = DecimationConfig(cost_kind=kind, target_faces=500, lam=0.01)
    out, trace = decimate(mesh, cfg, atoms=atoms if kind != "pb" else None)
    return repr((trace.records, trace.rejections, trace.stale_pops, trace.quality)), \
        out.vertices.tobytes()


@pytest.mark.parametrize("budget", [1, 100])
@pytest.mark.parametrize("kind", ["pb", "gb", "gb_qe"])
def test_traces_equal_default_budget_traces(kind, budget):
    # the ball queries, the pb candidate terms and the atom sums in
    # blocks from one point, star or edge up: the same trace bit for bit
    if kind not in _DEFAULT_BUDGET_RUNS:
        _DEFAULT_BUDGET_RUNS[kind] = molecule_run(kind)
    with block_budget(budget):
        assert molecule_run(kind) == _DEFAULT_BUDGET_RUNS[kind]


def test_sum_chunk_memory_is_bounded():
    # 10,000 atoms in the molecule's ball: the parent's one sort of the
    # (edge, atom) keys of a whole 2,048-edge chunk peaked at 47.3 MB
    mesh, atoms = synthetic_molecule(n_atoms=10_000, level=4, radius=10.0, seed=7)
    dec = Decimator(mesh, DecimationConfig(cost_kind="gb_qe", target_faces=100), atoms=atoms)
    sum_chunk, peaks = dec._sum_chunk, []

    def traced(edges):
        # the peak above what was allocated when the call began
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = sum_chunk(edges)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return out

    dec._sum_chunk = traced
    tracemalloc.start()
    try:
        dec.build_queue()
    finally:
        tracemalloc.stop()
    assert len(peaks) == 4  # the 7,680 edges in 2,048-edge chunks
    assert max(peaks) < 8e6, peaks

"""Greedy priority-queue edge-collapse driver: one pass per run.

The queue is a lazy-deletion binary heap: every queued entry carries a
per-edge version stamp, and a committed collapse bumps the stamps of all
edges whose cost could have changed (those with an endpoint in the
merged vertex's 1-ring) and drops the stamps of the retired vertex's
edges, so stale entries are skipped on pop instead of being removed.
Costs are always recomputed from the current mesh geometry, which keeps
every cost kind a pure function of the live star.

Everything a candidate reads lives in a per-vertex store, rebuilt from
the current positions with the queue and rewritten around each commit
(memoryless simplification in the sense of Lindstrom & Turk). Candidates
are computed in batches: ``qe`` from the packed quadrics, minimized bit
for bit as ``minimize_quadric`` does; vol, gb and gb_qe from per-vertex
sums less the two wing triangles, with no edge star, which equal
``placement_for`` up to the rounding of their summation order; pb by
walking each chunk of stars once (``mesh.edge_star``).

A run builds the queue once and commits collapses until the face target
is reached or the queue runs dry. Nothing moves a vertex except a
commit, so the per-commit refresh keeps every queued candidate exact;
callers that move vertices themselves call :meth:`Decimator.build_queue`
again, which recomputes the store and every candidate from the current
positions.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .costs import (
    COST_KINDS,
    CollapseCandidate,
    GbCostParams,
    StarSums,
    gb_placements,
    pb_placements,
    triangle_centroids,
    volume_rows,
)
from .errors import (
    DecimeshError,
    InvalidConfig,
    InvalidInput,
    MissingAtoms,
    NotAnEdge,
    StarNotDisk,
)
from .grid import grid_build
from .mesh import (
    QualitySummary,
    StarCache,
    TriangleMesh,
    _apply_collapse,
    _changed_normal_flips,
    can_collapse,
    edge_star,
    quality_summary,
    validate,
)
from .quadrics import minimize_packed, plane_quadric_rows

# Not called here any more: scalar oracles the engine reproduces. The
# benchmark's span tracer (bench/tracing.py) still patches these names
# on this module, so they stay importable from it.
from .costs import placement_for, vol_quadric  # noqa: F401
from .quadrics import minimize_quadric  # noqa: F401

# edges per candidate batch: one numpy pass of the candidate engine and
# (for pb) one shared StarCache, which bounds their scratch memory on big
# meshes; (vertex, triangle) pairs per pass when the store is rebuilt
_CHUNK = 2048

_NO_ATOMS = np.empty(0, dtype=np.int64)


def _sorted_unique(keys):
    """``np.unique`` of int keys by one sort (numpy 2's is hash-based
    and several times slower from a few hundred keys up)."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _edge_keys(tris, n, mark=None):
    """Sorted (a, b) keys, a < b, of the edges of (T, 3) triangle rows
    over ``n`` vertices as an (E, 2) array; with a boolean vertex array
    ``mark``, only the edges with a marked endpoint."""
    directed = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    lo = np.minimum(directed[:, 0], directed[:, 1])
    hi = np.maximum(directed[:, 0], directed[:, 1])
    if mark is not None:
        touched = mark[lo] | mark[hi]
        lo, hi = lo[touched], hi[touched]
    keys = _sorted_unique(lo * n + hi)
    return np.stack([keys // n, keys % n], axis=1)


@dataclass
class DecimationConfig:
    """Settings for one decimation run.

    cost_kind is one of qe | vol | pb | gb | gb_qe; for the atom-aware
    costs it also picks the first term, the edge length for gb and the
    quadric cost for gb_qe, and rho/lam parametrize them. veto_flips
    drops candidates that would reverse a ring triangle's normal.
    validate_every > 0 runs a full manifold validation every that-many
    collapses (1 = after each; 0 = never). Out-of-range settings raise
    ``InvalidConfig``.
    """

    cost_kind: str
    target_faces: int
    rho: float = 5.0
    lam: float = 1e-8
    veto_flips: bool = True
    validate_every: int = 0

    def __post_init__(self):
        if self.cost_kind not in COST_KINDS:
            raise InvalidConfig(f"cost_kind must be one of {COST_KINDS}")
        if self.target_faces < 4:
            raise InvalidConfig(f"target_faces must be at least 4, got {self.target_faces}")
        if self.validate_every < 0:
            raise InvalidConfig(
                f"validate_every must be nonnegative, got {self.validate_every}"
            )


@dataclass(frozen=True)
class TraceRecord:
    v1: int
    v2: int
    placement: tuple
    cost: float
    faces_after: int
    flipped: int = 0


@dataclass
class DecimationTrace:
    """Everything a run did: per-collapse records, rejection counters by
    reason, the output mesh's quality statistics, and whether the queue
    ran dry before reaching the target. ``stale_pops`` counts popped
    entries whose stamp was no longer current, the edges of retired
    vertices included."""

    records: list = field(default_factory=list)
    rejections: dict = field(default_factory=dict)
    quality: QualitySummary | None = None
    stale_pops: int = 0
    queue_exhausted: bool = False

    @property
    def n_collapses(self):
        return len(self.records)

    def reject(self, reason):
        self.rejections[reason] = self.rejections.get(reason, 0) + 1


class Decimator:
    """Stateful driver; use :func:`decimate` unless you need the internals.

    Mutates the mesh it is given. :meth:`run` is one greedy pass: one
    queue build, then :meth:`step` one collapse at a time. All candidate
    evaluation is pure, so only the commit path touches shared state.
    """

    def __init__(self, mesh: TriangleMesh, config: DecimationConfig, atoms=None):
        try:
            validate(mesh)
        except DecimeshError as exc:
            raise InvalidInput(f"input mesh failed validation: {exc}") from exc
        self.mesh = mesh
        self.config = config
        kind = config.cost_kind
        self.params = GbCostParams(rho=config.rho, lam=config.lam)
        self.trace = DecimationTrace()

        self._grid = None
        if kind in ("gb", "gb_qe"):
            if atoms is None:
                raise MissingAtoms(f"cost kind {kind!r} requires an atom set")
            self._grid = grid_build(atoms, cell_size=config.rho)

        self._heap = []
        self._versions = {}
        # the per-vertex store (see _recompute_quadric_rows), and for gb
        # and gb_qe the ascending ids of the atoms within rho of each
        # vertex
        n = len(mesh.vertices)
        self._qv = np.zeros((n, 10))
        self._mark = np.zeros(n, dtype=bool)
        if self._grid is not None:
            self._centroids = np.zeros((n, 3))
            self._degree = np.zeros(n, dtype=np.int64)
            self._atom_balls = [_NO_ATOMS] * n

    # -- candidate computation -------------------------------------------

    def candidate(self, a, b):
        """(placement, cost) for edge (a, b), or None when infeasible.

        This is the audit path: it runs the engine the queue runs, so it
        recomputes exactly what was queued.
        """
        if self.config.cost_kind == "qe":
            return self._batch_candidates(np.array([[a, b]]))[0]
        return self._candidates([(a, b)])[0]

    def _candidates(self, edges):
        """Candidates of (a, b) edges (a list or an (E, 2) array) under
        every kind but qe, None where infeasible; one numpy pass per
        chunk of edges."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        score = self._star_chunk if self.config.cost_kind == "pb" else self._sum_chunk
        out = [None] * len(edges)
        for start in range(0, len(edges), _CHUNK):
            slots, points, costs = score(edges[start:start + _CHUNK])
            for i, point, cost in zip(slots, points.tolist(), costs.tolist()):
                if cost != math.inf:
                    out[start + i] = (tuple(point), cost)
        return out

    def _star_chunk(self, edges):
        """pb (slots, points, costs) of the edges of an (E, 2) array
        that have a star: each is walked once by ``edge_star``."""
        cache = StarCache()
        slots, stars = [], []
        for i, (a, b) in enumerate(edges.tolist()):
            try:
                stars.append(edge_star(self.mesh, a, b, cache))
            except (NotAnEdge, StarNotDisk):
                continue
            slots.append(i)
        _, analytic, _, has_q = self._quadric_minima(edges[slots])
        analytic[~has_q] = np.nan
        return (slots, *pb_placements(self.mesh.vertices, stars, analytic))

    def _sum_chunk(self, edges):
        """vol, gb and gb_qe (slots, points, costs) of the edges of an
        (E, 2) array, from the per-vertex store with no edge star.

        Both endpoints count the two wing triangles, so an edge's star
        sums are the endpoint sums less the wings: the volume form
        (V(a) + V(b) - wings) / 36 and the ring centroid sums C(b) -
        wings, C(a) - wings over degree - 2 triangles. Edges whose ends
        share other than two triangles have no disk star: infeasible.
        """
        incident = self.mesh._vertex_tris
        slots, wings = [], []
        for i, (a, b) in enumerate(edges.tolist()):
            shared = incident[a] & incident[b]
            if len(shared) == 2:
                slots.append(i)
                wings.extend(shared)
        ends = edges[slots]
        a, b = ends.T
        vertices = self.mesh.vertices
        wing_tris = self.mesh.triangles[np.array(wings, dtype=np.int64)]
        if self.config.cost_kind == "vol":
            w = volume_rows(vertices, wing_tris)
            q = (self._qv[a] + self._qv[b] - w[0::2] - w[1::2]) * (1.0 / 36.0)
            return (slots, *minimize_packed(q, vertices[a], vertices[b]))
        q, analytic, _, has_q = self._quadric_minima(ends)
        analytic[~has_q] = np.nan
        w = triangle_centroids(vertices, wing_tris)
        cen, ring = self._centroids, self._degree - 2
        sums = StarSums((cen[b] - w[0::2] - w[1::2]).T, (cen[a] - w[0::2] - w[1::2]).T,
                        ring[b], ring[a], *self._atom_sums(ends))
        return (slots, *gb_placements(vertices[a].T, vertices[b].T, analytic, q, sums,
                                      self.params.lam, self.config.cost_kind == "gb_qe"))

    def _atom_sums(self, ends):
        """Count and (3, E) center sum of the atoms in ball(a) | ball(b)
        of each (E, 2) edge, added by ascending id as the oracle adds."""
        parts = [self._atom_balls[v] for v in ends.ravel().tolist()]
        centers = self._grid.centers
        n_edges, n_atoms = len(ends), max(len(centers), 1)
        owner = np.repeat(np.arange(2 * n_edges) >> 1, [len(p) for p in parts])
        keys = _sorted_unique(owner * n_atoms + np.concatenate([_NO_ATOMS, *parts]))
        owner, ids = np.divmod(keys, n_atoms)
        atom_sum = [np.bincount(owner, w, minlength=n_edges) for w in centers[ids].T]
        return np.bincount(owner, minlength=n_edges), np.array(atom_sum)

    def _has_plane(self, v):
        """Whether each vertex of id array ``v`` has a nondegenerate
        incident triangle, i.e. ``vertex_quadric`` does not raise
        ``IsolatedVertex``. Every entry of the trace is a sum of
        nonnegative terms, and each plane adds at least its unit
        normal's squared length, 1, so the trace is positive exactly
        when there is a plane."""
        qv = self._qv
        return qv[v, 0] + qv[v, 4] + qv[v, 7] + qv[v, 9] > 0.0

    def _quadric_minima(self, edges):
        """The summed endpoint rows of each (E, 2) edge, their
        ``minimize_quadric`` point and its cost, and whether both
        endpoints have a quadric at all (see :meth:`_has_plane`)."""
        q = self._qv[edges]
        q = q[:, 0] + q[:, 1]
        ends = self.mesh.vertices[edges]
        points, costs = minimize_packed(q, ends[:, 0], ends[:, 1])
        return q, points, costs, self._has_plane(edges).all(axis=1)

    def _batch_candidates(self, edges):
        """qe candidates of an (E, 2) edge array in one pass over the
        packed store: ``placement_for("qe", ...)`` on the endpoints'
        ``vertex_quadric`` per edge, bit for bit, and None where an
        endpoint is isolated."""
        _, points, costs, ok = self._quadric_minima(edges)
        return [
            ((x, y, z), cost) if k else None
            for (x, y, z), cost, k in zip(points.tolist(), costs.tolist(), ok.tolist())
        ]

    # -- the queue ---------------------------------------------------------

    def _push_edges(self, edges, heapify=False):
        """Queue fresh candidates for an (E, 2) array of sorted (a, b)
        keys, bumping their stamps; qe goes through :meth:`_push_batch`."""
        if self.config.cost_kind == "qe":
            self._push_batch(edges, heapify)
            return
        keys = list(zip(edges[:, 0].tolist(), edges[:, 1].tolist()))
        self._enqueue(keys, self._candidates(edges), heapify)

    def _push_batch(self, edges, heapify):
        """Queue the qe candidates of an (E, 2) edge array. They are
        ``placement_for("qe", ...)`` on the endpoints' ``vertex_quadric``
        bit for bit, at every mesh size, so an exhaustive rescan
        reproduces each queued cost exactly."""
        keys = zip(edges[:, 0].tolist(), edges[:, 1].tolist())
        self._enqueue(keys, self._batch_candidates(edges), heapify)

    def _enqueue(self, keys, cands, heapify):
        """Push one heap entry per feasible candidate; every key's stamp
        is bumped, so older entries of these edges go stale."""
        heap = self._heap
        versions = self._versions
        trace = self.trace
        for key, cand in zip(keys, cands):
            version = versions.get(key, 0) + 1
            versions[key] = version
            if cand is None:
                trace.reject("infeasible_candidate")
                continue
            point, cost = cand
            entry = (cost, key[0], key[1], version, point)
            if heapify:
                heap.append(entry)
            else:
                heapq.heappush(heap, entry)
        if heapify:
            heapq.heapify(heap)

    def build_queue(self):
        """Rebuild the per-vertex store from the current positions and
        compute a candidate for every live edge."""
        self._heap = []
        self._versions = {}
        mesh = self.mesh
        n = len(mesh.vertices)
        self._recompute_quadric_rows(range(n))
        if self._grid is not None:
            self._query_balls(mesh.live_vertex_ids())
        self._push_edges(_edge_keys(mesh.live_triangle_array(), n), heapify=True)

    def refresh(self, center, ring=None):
        """Rewrite the store rows of ``center`` (the merged vertex, the
        only one that moved, so the only atom ball to re-query) and its
        1-ring, and recompute the candidates of every edge with an
        endpoint among them.

        Any edge outside this set has an unchanged star, unchanged
        endpoint rows and an unchanged legality status, so its queued
        candidate is still exact. Returns the refreshed edge set.
        """
        if ring is None:
            ring = self.mesh.vertex_neighbors(center)
        edges = self._batch_refresh(center, ring)
        return set(zip(edges[:, 0].tolist(), edges[:, 1].tolist()))

    def _batch_refresh(self, center, ring):
        """:meth:`refresh` on numpy arrays; returns the refreshed edges
        as a sorted (E, 2) array."""
        mesh = self.mesh
        verts = sorted(ring)
        verts.append(center)
        self._recompute_quadric_rows(verts)
        if self._grid is not None:
            self._query_balls(np.array([center]))

        incident = mesh._vertex_tris
        rows = mesh.triangles[list(set().union(*(incident[v] for v in verts)))]
        mark = self._mark
        mark[verts] = True
        edges = _edge_keys(rows, len(mesh.vertices), mark)
        mark[verts] = False
        self._push_edges(edges)
        return edges

    def _recompute_quadric_rows(self, verts):
        """Rewrite the store rows of ``verts`` from the current positions.

        Row v of ``_qv`` sums over ``mesh.incident_triangles(v)``, in
        that set's order, their plane quadrics as :func:`vertex_quadric`
        does (bit for bit; zeros if all are degenerate), or under vol
        their :func:`volume_rows`. For gb and gb_qe, ``_centroids[v]``
        sums their centroids and ``_degree[v]`` counts them.
        """
        mesh = self.mesh
        incident = mesh._vertex_tris
        sets = [incident[v] for v in verts]
        sizes = [len(s) for s in sets]
        owners = np.repeat(np.asarray(verts, dtype=np.int64), sizes)
        tri_ids = np.fromiter(
            (t for s in sets for t in s), dtype=np.int64, count=len(owners)
        )
        vol = self.config.cost_kind == "vol"
        atoms = self._grid is not None
        qv = self._qv
        qv[verts] = 0.0
        if atoms:
            self._degree[verts] = sizes
            self._centroids[verts] = 0.0
        for start in range(0, len(owners), _CHUNK):
            part = slice(start, start + _CHUNK)
            tris = mesh.triangles[tri_ids[part]]
            # add.at adds pair by pair, in order, like the scalar loop
            if vol:
                np.add.at(qv, owners[part], volume_rows(mesh.vertices, tris))
                continue
            rows, good = plane_quadric_rows(mesh.vertices, tris)
            np.add.at(qv, owners[part][good], rows[good])
            if atoms:
                np.add.at(self._centroids, owners[part],
                          triangle_centroids(mesh.vertices, tris))

    def _query_balls(self, verts):
        """Re-query the atom balls of vertex id array ``verts``."""
        owner, ids = self._grid.query_balls(self.mesh.vertices[verts], self.params.rho)
        ends = np.cumsum(np.bincount(owner, minlength=len(verts)))[:-1]
        for v, ball in zip(verts.tolist(), np.split(ids, ends)):
            self._atom_balls[v] = ball

    def _compact_heap(self):
        """Drop stale entries once they dominate the heap, so push cost
        stays logarithmic in the live candidate count."""
        versions = self._versions
        self._heap = [
            e for e in self._heap if versions.get((e[1], e[2])) == e[3]
        ]
        heapq.heapify(self._heap)

    # -- the greedy loop ---------------------------------------------------

    def step(self, audit=None):
        """Commit the cheapest valid collapse; None when the queue is dry."""
        heap = self._heap
        versions = self._versions
        mesh = self.mesh
        trace = self.trace
        cfg = self.config
        if len(heap) > 10000 and len(heap) > 6 * mesh.n_faces:
            self._compact_heap()
            heap = self._heap
        vertex_tris = mesh._vertex_tris
        while heap:
            cost, a, b, version, point = heapq.heappop(heap)
            if versions.get((a, b)) != version:
                trace.stale_pops += 1
                continue
            check = can_collapse(mesh, a, b)
            if not check.ok:
                trace.reject(check.reason)
                continue
            shared = vertex_tris[a] & vertex_tris[b]
            changed = (vertex_tris[a] | vertex_tris[b]) - shared
            flipped, nonpos = _changed_normal_flips(mesh, a, b, point, changed)
            if cfg.veto_flips and nonpos:
                trace.reject("flip_veto")
                continue
            if audit is not None:
                audit(
                    mesh,
                    CollapseCandidate(a, b, point, cost, cfg.cost_kind, version),
                )
            # b retires with this commit: void the stamps of its edges so
            # their queued entries pop as stale instead of as live edges
            for x in mesh.vertex_neighbors(b):
                versions.pop((b, x) if b < x else (x, b), None)
            record = _apply_collapse(mesh, a, b, point, flipped)
            trace.records.append(
                TraceRecord(a, b, point, cost, mesh.n_faces,
                            flipped=len(record.flipped_triangles))
            )
            self._batch_refresh(a, mesh.vertex_neighbors(a))

            if cfg.validate_every and len(trace.records) % cfg.validate_every == 0:
                validate(mesh)
            return record
        return None

    def run(self, audit=None):
        """Build the queue once and commit collapses down to the face
        target, or until no valid candidate is left; returns (mesh,
        trace) with the output mesh's quality in ``trace.quality``."""
        mesh = self.mesh
        trace = self.trace
        self.build_queue()
        while mesh.n_faces > self.config.target_faces:
            if self.step(audit=audit) is None:
                trace.queue_exhausted = True
                break
        trace.quality = quality_summary(mesh)
        return mesh, trace


def decimate(mesh: TriangleMesh, config: DecimationConfig, atoms=None, audit=None):
    """Greedily collapse edges of ``mesh`` (in place) down to the target.

    Returns (mesh, trace). The trace's ``queue_exhausted`` flag is set
    when every remaining candidate was rejected before the face target
    was reached. ``audit``, if given, is called as ``audit(mesh,
    candidate)`` immediately before each commit, which is how the test
    suite checks the greedy property by exhaustive scan.
    """
    return Decimator(mesh, config, atoms=atoms).run(audit=audit)

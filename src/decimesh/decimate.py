"""Greedy priority-queue edge-collapse driver: one pass per run.

The queue is a lazy-deletion binary heap of plain-number entries
``(cost, a * n + b, stamp, slot)``. An edge (a, b), a < b, lives in the
slot of the one corner that runs a -> b (corner k of triangle t is slot
``3 * t + k``); arrays indexed by slot hold the edge's current stamp, a
push counter, and its placement. An entry is live while its stamp is
its slot's. A commit voids the slots of the triangles it rewrites or
removes, and re-pushes every edge whose cost could have changed (those
with an endpoint in the merged vertex's 1-ring) under fresh stamps, so
stale entries are skipped on pop instead of being removed. Costs are
always recomputed from the current mesh geometry, which keeps every
cost kind a pure function of the live star.

Everything a candidate reads lives in a per-vertex store, rebuilt from
the current positions with the queue and rewritten around each commit
(memoryless simplification in the sense of Lindstrom & Turk). Candidates
are computed in batches from the one candidate set {midpoint, v1, v2,
quadric point} of ``quadrics.minimize_packed``, bit for bit as
``minimize_quadric``: qe and vol (on its volume form) take the quadric
point, pb, gb and gb_qe score all four. vol, gb and gb_qe read
per-vertex sums less the two wing triangles, with no edge star, and
equal ``placement_for`` up to the rounding of their summation order; pb
walks each chunk of stars once (``mesh.edge_star``).

A run builds the queue once and commits collapses until the face target
is reached or the queue runs dry. Nothing moves a vertex except a
commit, so the per-commit refresh keeps every queued candidate exact;
callers that move vertices themselves call :meth:`Decimator.build_queue`
again, which recomputes the store and every candidate from the current
positions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import blocks
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
    _check_whole,
)
from .grid import grid_build
from .mesh import (
    QualitySummary,
    StarCache,
    TriangleMesh,
    _apply_collapse,
    _changed_normal_flips,
    _sort_keys,
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

# edges per candidate batch: one numpy pass of the candidate engine, qe's
# minimizer included, whose arrays grow with the batch (pb's walked stars
# and their StarCache do too, but pb_candidate_costs scores those stars,
# and _atom_sums sums the atom balls, in blocks of blocks.BUDGET terms);
# (vertex, triangle) pairs per pass when the store is rebuilt
_CHUNK = 2048

_NO_ATOMS = np.empty(0, dtype=np.int64)

# the corner after each corner of a triangle row
_NEXT = np.array([1, 2, 0])


def _sorted_unique(keys):
    """``np.unique`` of int keys by one sort (numpy 2's is hash-based
    and several times slower from a few hundred keys up)."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _edge_keys(tris, n, tri_ids=None, mark=None):
    """Sorted keys a * n + b, a < b, of the edges of (T, 3) triangle rows
    over ``n`` vertices, and the slot of each edge's a -> b corner: row i
    is triangle ``tri_ids[i]`` (i by default), whose corner k has slot
    ``3 * tri_ids[i] + k``. Retired rows (-1) have no edges, and a row
    given twice gives its edges once. With a boolean vertex array
    ``mark``, only the edges with a marked endpoint.

    On a closed oriented mesh each edge runs a -> b in exactly one of
    its two triangles, so every edge whose triangles are all given comes
    out once, from that corner."""
    src = tris.ravel()
    dst = tris.take(_NEXT, axis=1).ravel()
    keep = src < dst
    if mark is not None:
        keep &= mark[src] | mark[dst]
    corner = keep.nonzero()[0]
    if tri_ids is not None:
        row, k = np.divmod(corner, 3)
        corner = 3 * tri_ids[row] + k
    keys, order = _sort_keys((src * n + dst)[keep], n * n)
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first], corner[order[first]]


def _has_plane(q):
    """Whether each packed quadric row of ``q`` (..., 10) holds a plane,
    i.e. its vertex's ``vertex_quadric`` does not raise
    ``IsolatedVertex``. Every entry of the trace is a sum of nonnegative
    terms, and each plane adds at least its unit normal's squared
    length, 1, so the trace is positive exactly when there is a plane."""
    return q[..., 0] + q[..., 4] + q[..., 7] + q[..., 9] > 0.0


@dataclass
class DecimationConfig:
    """Settings for one decimation run.

    cost_kind is one of qe | vol | pb | gb | gb_qe; for the atom-aware
    costs it also picks the first term, the edge length for gb and the
    quadric cost for gb_qe, and rho/lam parametrize them. veto_flips
    drops candidates that would reverse a ring triangle's normal.
    validate_every > 0 runs a full manifold validation every that-many
    collapses (1 = after each; 0 = never). Out-of-range settings, and
    counts that are not whole numbers, raise ``InvalidConfig``.
    """

    cost_kind: str
    target_faces: int
    rho: float = GbCostParams.rho
    lam: float = GbCostParams.lam
    veto_flips: bool = True
    validate_every: int = 0

    def __post_init__(self):
        if self.cost_kind not in COST_KINDS:
            raise InvalidConfig(f"cost_kind must be one of {COST_KINDS}")
        _check_whole("target_faces", self.target_faces, 4)
        _check_whole("validate_every", self.validate_every, 0)
        GbCostParams(rho=self.rho, lam=self.lam)


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

    def reject(self, reason, count=1):
        self.rejections[reason] = self.rejections.get(reason, 0) + count


class Decimator:
    """Stateful driver; use :func:`decimate` unless you need the internals.

    Mutates the mesh it is given. :meth:`run` is one greedy pass: one
    queue build, then :meth:`step` one collapse at a time. All candidate
    evaluation is pure, so only the commit path touches shared state.
    """

    def __init__(self, mesh: TriangleMesh, config: DecimationConfig, atoms=None):
        try:
            stats = validate(mesh)
        except DecimeshError as exc:
            raise InvalidInput(f"input mesh failed validation: {exc}") from exc
        if not stats.is_closed_manifold:
            raise InvalidInput("input mesh has no faces")
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

        # the queue (see build_queue): heap entries, and by corner slot
        # each edge's current stamp and placement
        self._heap = []
        self._stamps = np.empty(0, dtype=np.int64)
        self._points = np.empty((0, 3))
        self._pushes = 0
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
        """(placement, cost) for edge (a, b), or None when infeasible or
        when a and b do not share exactly two triangles.

        This is the audit path: it runs the engine the queue runs, so it
        recomputes exactly what was queued.
        """
        incident = self.mesh._vertex_tris
        if len(incident[a] & incident[b]) != 2:
            return None
        points, costs, ok = self._candidates([(a, b)])
        if not ok[0]:
            return None
        return tuple(points[0].tolist()), costs.tolist()[0]

    def _candidates(self, edges):
        """(points (E, 3), costs (E,), feasible (E,)) of (a, b) edges (a
        list or an (E, 2) array), in one numpy pass (the queue passes at
        most ``_CHUNK`` edges)."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if self.config.cost_kind == "qe":
            return self._batch_candidates(edges)
        score = self._star_chunk if self.config.cost_kind == "pb" else self._sum_chunk
        slots, scored_points, scored_costs = score(edges)
        points = np.zeros((len(edges), 3))
        costs = np.full(len(edges), np.inf)
        points[slots] = scored_points
        costs[slots] = scored_costs
        return points, costs, costs != np.inf

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
        cands = self._quadric_minima(edges[slots])[0]
        return (slots, *pb_placements(self.mesh.vertices, stars, cands))

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
            cands, costs = minimize_packed(q, vertices[a], vertices[b])
            return slots, cands[:, 3].T, costs[3]
        cands, quadric_costs = self._quadric_minima(ends)
        w = triangle_centroids(vertices, wing_tris)
        cen, ring = self._centroids, self._degree - 2
        sums = StarSums((cen[b] - w[0::2] - w[1::2]).T, (cen[a] - w[0::2] - w[1::2]).T,
                        ring[b], ring[a], *self._atom_sums(ends))
        if self.config.cost_kind == "gb":
            quadric_costs = None
        return (slots, *gb_placements(cands, quadric_costs, sums, self.params.lam))

    def _atom_sums(self, ends):
        """Count and (3, E) center sum of the atoms in ball(a) | ball(b)
        of each (E, 2) edge, added by ascending id as the oracle adds, in
        blocks of whole edges whose two balls hold at most
        ``blocks.BUDGET`` ids together (or one edge)."""
        parts = [self._atom_balls[v] for v in ends.ravel().tolist()]
        sizes = np.array([len(p) for p in parts], dtype=np.int64)
        centers = self._grid.centers
        n_atoms = max(len(centers), 1)
        m = np.empty(len(ends), dtype=np.int64)
        atom_sum = np.empty((3, len(ends)))
        for start, stop in blocks.term_blocks(np.cumsum(sizes[0::2] + sizes[1::2])):
            owner = np.repeat(np.arange(2 * (stop - start)) >> 1, sizes[2 * start:2 * stop])
            ids = np.concatenate([_NO_ATOMS, *parts[2 * start:2 * stop]])
            owner, ids = np.divmod(_sorted_unique(owner * n_atoms + ids), n_atoms)
            m[start:stop] = np.bincount(owner, minlength=stop - start)
            for row, w in zip(atom_sum, centers[ids].T):
                row[start:stop] = np.bincount(owner, w, minlength=stop - start)
        return m, atom_sum

    def _quadric_minima(self, edges):
        """``minimize_packed`` of the summed endpoint rows of each (E, 2)
        edge: its (3, 4, E) candidates and (4, E) costs. Where an
        endpoint has no quadric (see :func:`_has_plane`) there is no
        fourth point (NaN) and every quadric cost is ``inf``."""
        q = self._qv[edges]
        lone = (~_has_plane(q).all(axis=1)).nonzero()[0]
        ends = self.mesh.vertices[edges]
        cands, costs = minimize_packed(q[:, 0] + q[:, 1], ends[:, 0], ends[:, 1])
        if len(lone):
            cands[:, 3, lone] = np.nan
            costs[:, lone] = np.inf
        return cands, costs

    def _batch_candidates(self, edges):
        """qe (points, costs, feasible) of an (E, 2) edge array in one
        pass over the packed store: ``placement_for("qe", ...)`` on the
        endpoints' ``vertex_quadric`` per edge, bit for bit, infeasible
        where an endpoint is isolated."""
        cands, costs = self._quadric_minima(edges)
        return cands[:, 3].T, costs[3], costs[3] != np.inf

    # -- the queue ---------------------------------------------------------

    def _push_edges(self, keys, slots, append=False):
        """Queue fresh candidates for the edges with sorted keys ``keys``
        in corner ``slots``, under fresh stamps, ``_CHUNK`` edges at a
        time; qe goes through :meth:`_push_batch`."""
        n = len(self.mesh.vertices)
        qe = self.config.cost_kind == "qe"
        for start in range(0, len(keys), _CHUNK):
            part, where = keys[start:start + _CHUNK], slots[start:start + _CHUNK]
            edges = np.empty((len(part), 2), dtype=np.int64)
            np.divmod(part, n, out=(edges[:, 0], edges[:, 1]))
            if qe:
                self._push_batch(edges, part, where, append)
            else:
                self._enqueue(part, where, *self._candidates(edges), append)

    def _push_batch(self, edges, keys, slots, append):
        """Queue the qe candidates of an (E, 2) edge array. They are
        ``placement_for("qe", ...)`` on the endpoints' ``vertex_quadric``
        bit for bit, at every mesh size, so an exhaustive rescan
        reproduces each queued cost exactly."""
        self._enqueue(keys, slots, *self._batch_candidates(edges), append)

    def _enqueue(self, keys, slots, points, costs, ok, append):
        """Give every edge a fresh stamp and its placement in its slot,
        so older entries of these edges go stale, and push one heap
        entry per feasible candidate; ``append`` only appends them, for
        the caller to heapify."""
        stamps = np.arange(self._pushes, self._pushes + len(keys))
        self._pushes += len(keys)
        self._stamps[slots] = stamps
        self._points[slots] = points
        if not ok.all():
            self.trace.reject("infeasible_candidate", len(ok) - int(ok.sum()))
            costs, keys, stamps, slots = costs[ok], keys[ok], stamps[ok], slots[ok]
        entries = zip(costs.tolist(), keys.tolist(), stamps.tolist(), slots.tolist())
        if append:
            self._heap.extend(entries)
            return
        heap, push = self._heap, heapq.heappush
        for entry in entries:
            push(heap, entry)

    def _live(self, entry):
        """Whether heap entry ``entry`` is its edge's current one: no
        later push or commit has restamped its slot."""
        return self._stamps[entry[3]] == entry[2]

    def build_queue(self):
        """Rebuild the per-vertex store from the current positions and
        compute a candidate for every live edge."""
        mesh = self.mesh
        n = len(mesh.vertices)
        self._heap = []
        self._stamps = np.full(mesh.triangles.size, -1, dtype=np.int64)
        self._points = np.empty((mesh.triangles.size, 3))
        self._pushes = 0
        self._recompute_quadric_rows(range(n))
        if self._grid is not None:
            self._query_balls(mesh.live_vertex_ids())
        self._push_edges(*_edge_keys(mesh.triangles, n), append=True)
        heapq.heapify(self._heap)

    def refresh(self, center):
        """Rewrite the store rows of ``center`` (the merged vertex, the
        only one that moved, so the only atom ball to re-query) and its
        1-ring, and recompute the candidates of every edge with an
        endpoint among them.

        Any edge outside this set has an unchanged star, unchanged
        endpoint rows and an unchanged legality status, so its queued
        candidate is still exact. Returns the refreshed edge set.
        """
        ring = self.mesh.vertex_neighbors(center)
        a, b = np.divmod(self._batch_refresh(center, ring), len(self.mesh.vertices))
        return set(zip(a.tolist(), b.tolist()))

    def _batch_refresh(self, center, ring):
        """:meth:`refresh` on numpy arrays; returns the sorted keys of the
        refreshed edges. The triangles gathered for the store rows give
        the edges too."""
        mesh = self.mesh
        verts = sorted(ring)
        verts.append(center)
        tri_ids = self._recompute_quadric_rows(verts)
        if self._grid is not None:
            self._query_balls(np.array([center]))

        mark = self._mark
        ids = np.array(verts)
        mark[ids] = True
        keys, slots = _edge_keys(mesh.triangles[tri_ids], len(mesh.vertices), tri_ids, mark)
        mark[ids] = False
        self._push_edges(keys, slots)
        return keys

    def _recompute_quadric_rows(self, verts):
        """Rewrite the store rows of ``verts`` from the current positions.

        Row v of ``_qv`` sums over ``mesh.incident_triangles(v)``, in
        that set's order, their plane quadrics as :func:`vertex_quadric`
        does (bit for bit; zeros if all are degenerate), or under vol
        their :func:`volume_rows`. For gb and gb_qe, ``_centroids[v]``
        sums their centroids and ``_degree[v]`` counts them. Returns the
        ids of those triangles, vertex by vertex.
        """
        mesh = self.mesh
        sets = list(map(mesh._vertex_tris.__getitem__, verts))
        sizes = list(map(len, sets))
        ids = np.asarray(verts, dtype=np.int64)
        owners = np.repeat(ids, sizes)
        tri_ids = np.fromiter(chain.from_iterable(sets), dtype=np.int64, count=len(owners))
        vol = self.config.cost_kind == "vol"
        atoms = self._grid is not None
        qv = self._qv
        qv[ids] = 0.0
        if atoms:
            self._degree[ids] = sizes
            self._centroids[ids] = 0.0
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
        return tri_ids

    def _query_balls(self, verts):
        """Re-query the atom balls of vertex id array ``verts``, one
        block of the grid's query at a time, so no array of every
        vertex's atom pairs is ever made. A ball keeps its ids as int32,
        half the memory, since no atom set comes near 2**31 atoms."""
        balls = self._atom_balls
        first = 0
        for counts, ids in self._grid.ball_blocks(self.mesh.vertices[verts], self.params.rho):
            ids = ids.astype(np.int32)
            end = 0
            for v, size in zip(verts[first:first + len(counts)].tolist(), counts.tolist()):
                balls[v] = ids[end:end + size]
                end += size
            first += len(counts)

    def _compact_heap(self):
        """Drop stale entries once they dominate the heap, so push cost
        stays logarithmic in the live candidate count."""
        self._heap = list(filter(self._live, self._heap))
        heapq.heapify(self._heap)

    # -- the greedy loop ---------------------------------------------------

    def step(self, audit=None):
        """Commit the cheapest valid collapse; None when the queue is dry."""
        heap = self._heap
        mesh = self.mesh
        trace = self.trace
        cfg = self.config
        if len(heap) > 10000 and len(heap) > 6 * mesh.n_faces:
            self._compact_heap()
            heap = self._heap
        vertex_tris = mesh._vertex_tris
        neighbors = mesh.vertex_neighbors
        n = len(mesh.vertices)
        while heap:
            entry = heapq.heappop(heap)
            if not self._live(entry):
                trace.stale_pops += 1
                continue
            cost, key, stamp, slot = entry
            a, b = divmod(key, n)
            ta, tb = vertex_tris[a], vertex_tris[b]
            shared = ta & tb
            near = (neighbors(a), neighbors(b))
            check = can_collapse(mesh, a, b, shared, near)
            if not check.ok:
                trace.reject(check.reason)
                continue
            point = tuple(self._points[slot].tolist())
            flipped, nonpos = _changed_normal_flips(mesh, a, b, point, (ta | tb) - shared)
            if cfg.veto_flips and nonpos:
                trace.reject("flip_veto")
                continue
            if audit is not None:
                audit(
                    mesh,
                    CollapseCandidate(a, b, point, cost, cfg.cost_kind, stamp),
                )
            # the commit rewrites or removes every triangle of b: void
            # their slots, so the entries of b's edges pop as stale
            self._stamps.reshape(-1, 3)[list(tb)] = -1
            record = _apply_collapse(mesh, a, b, point, flipped, shared)
            trace.records.append(
                TraceRecord(a, b, point, cost, mesh.n_faces,
                            flipped=len(record.flipped_triangles))
            )
            # a's neighbours after the commit: both ends' but the two
            ring = near[0] | near[1]
            ring -= {a, b}
            self._batch_refresh(a, ring)

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

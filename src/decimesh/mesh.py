"""Indexed, oriented, closed-manifold triangle mesh with validated edge collapse.

The mesh keeps stable ids under mutation: collapsing an edge retires the
second vertex's slot and tombstones two triangle rows, so every id handed
out before a collapse remains meaningful afterwards. A tombstoned row
holds -1 in every corner, and that -1 is the only record of which
triangles are live. Retired slots are compacted only on export (see
:mod:`decimesh.io`).

Only closed surfaces are supported: molecular interfaces have no
boundary, and rejecting open meshes at validation removes a whole class
of collapse edge cases.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import (
    CollapseRejected,
    DegenerateTriangle,
    DuplicateTriangle,
    FlippedTriangleWarning,
    NonManifoldEdge,
    NonManifoldVertex,
    NotAnEdge,
    StarNotDisk,
    UnreferencedVertexWarning,
    ValidationError,
)


class TriangleMesh:
    """Triangle surface mesh with adjacency maintained under edge collapse.

    Parameters
    ----------
    vertices : array_like, shape (n, 3)
        Vertex coordinates in Angstroms; must be finite.
    triangles : array_like, shape (m, 3)
        Vertex-index triples with consistent counter-clockwise
        orientation (outward normals for a closed surface).

    Construction performs only cheap structural checks (shapes, whole
    in-range indices, finiteness). Manifoldness, orientation consistency
    and duplicate detection are the job of :func:`validate`, so that
    tests and error paths can build deliberately broken meshes.
    """

    def __init__(self, vertices, triangles):
        verts = np.array(vertices, dtype=np.float64)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise ValidationError(f"vertices must be (n, 3), got {verts.shape}")
        if not np.isfinite(verts).all():
            raise ValidationError("vertex coordinates must be finite")
        tris = np.asarray(triangles)
        if tris.dtype.kind == "f" and not (np.isfinite(tris) & (np.trunc(tris) == tris)).all():
            raise ValidationError("triangle indices must be whole numbers")
        tris = np.array(tris, dtype=np.int64)
        if tris.size == 0:
            tris = tris.reshape(0, 3)
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ValidationError(f"triangles must be (m, 3), got {tris.shape}")
        if tris.size and (tris.min() < 0 or tris.max() >= len(verts)):
            raise ValidationError("triangle index out of range")

        self.vertices = verts
        self.triangles = tris
        self._vertex_alive = np.ones(len(verts), dtype=bool)
        self._n_vertices = len(verts)
        self._n_faces = len(tris)
        self._vertex_tris = [set() for _ in range(len(verts))]
        for t, row in enumerate(tris):
            for v in row.tolist():
                self._vertex_tris[v].add(t)
        # triangle-row tuples are read far more often than rows change;
        # a collapse rewrites the entries of the rows it rewrites and
        # drops those of the rows it removes
        self._row_cache = {}

    # -- basic queries -------------------------------------------------

    @property
    def n_vertices(self):
        """Number of live (non-retired) vertices."""
        return self._n_vertices

    @property
    def n_faces(self):
        """Number of live triangles."""
        return self._n_faces

    def position(self, v):
        """Position of vertex ``v`` as a plain float tuple."""
        x, y, z = self.vertices[v].tolist()
        return (x, y, z)

    def triangle(self, t):
        """Vertex ids of triangle ``t`` as a plain int tuple."""
        row = self._row_cache.get(t)
        if row is None:
            a, b, c = self.triangles[t].tolist()
            row = (a, b, c)
            self._row_cache[t] = row
        return row

    def triangle_positions(self, t):
        a, b, c = self.triangle(t)
        verts = self.vertices
        return (
            tuple(verts[a].tolist()),
            tuple(verts[b].tolist()),
            tuple(verts[c].tolist()),
        )

    def live_triangle_ids(self):
        return np.flatnonzero(self.triangles[:, 0] >= 0)

    def live_triangle_array(self):
        """Live triangle rows as an (F, 3) integer array."""
        return self.triangles.compress(self.triangles[:, 0] >= 0, axis=0)

    def live_vertex_ids(self):
        return np.flatnonzero(self._vertex_alive)

    def incident_triangles(self, v):
        """Set of live triangle ids touching vertex ``v`` (do not mutate)."""
        return self._vertex_tris[v]

    def vertex_neighbors(self, v):
        """Set of vertex ids sharing an edge with ``v``."""
        out = set()
        rows = self._row_cache
        for t in self._vertex_tris[v]:
            out.update(rows.get(t) or self.triangle(t))
        out.discard(v)
        return out

    def edges(self):
        """Iterate unique undirected edges as sorted (a, b) pairs, in the
        order :meth:`edge_table` first meets them."""
        return iter(self.edge_table())

    def edge_table(self):
        """Materialize the undirected edge -> incident triangle-id map."""
        table = {}
        rows = self.live_triangle_array().tolist()
        for t, (a, b, c) in zip(self.live_triangle_ids().tolist(), rows):
            for u, v in ((a, b), (b, c), (c, a)):
                key = (u, v) if u < v else (v, u)
                table.setdefault(key, []).append(t)
        return table

    def copy(self):
        out = TriangleMesh.__new__(TriangleMesh)
        out.vertices = self.vertices.copy()
        out.triangles = self.triangles.copy()
        out._vertex_alive = self._vertex_alive.copy()
        out._n_vertices = self._n_vertices
        out._n_faces = self._n_faces
        out._vertex_tris = [set(s) for s in self._vertex_tris]
        out._row_cache = {}
        return out


@dataclass(frozen=True)
class MeshStats:
    """Counts returned by :func:`validate`."""

    n_vertices: int
    n_edges: int
    n_faces: int
    euler_characteristic: int
    is_closed_manifold: bool


def validate(mesh: TriangleMesh) -> MeshStats:
    """Check all structural invariants and return mesh counts.

    Raises
    ------
    DegenerateTriangle
        A triangle repeats a vertex index.
    DuplicateTriangle
        Two triangles share the same vertex set.
    NonManifoldEdge
        An edge is not incident to exactly two triangles (covers open
        boundaries as well as fans of three or more).
    NonManifoldVertex
        The triangles around a vertex form more than one fan (a pinch,
        as where two closed surfaces touch at one vertex).
    ValidationError
        Orientation inconsistency (an edge traversed twice in the same
        direction) or a reference to a retired vertex.

    An unreferenced live vertex only emits ``UnreferencedVertexWarning``.
    """
    tris = mesh.live_triangle_array()
    n_verts = mesh.n_vertices
    n_faces = len(tris)
    if n_faces == 0:
        return MeshStats(n_verts, 0, 0, n_verts, False)

    if not mesh._vertex_alive[tris].all():
        raise ValidationError("a live triangle references a retired vertex")

    same = (
        (tris[:, 0] == tris[:, 1])
        | (tris[:, 1] == tris[:, 2])
        | (tris[:, 2] == tris[:, 0])
    )
    if same.any():
        t = int(np.argmax(same))
        raise DegenerateTriangle(f"triangle {tuple(tris[t].tolist())} repeats a vertex index")

    n = len(mesh.vertices)
    c0, c1, c2 = tris[:, 0], tris[:, 1], tris[:, 2]
    tmin = np.minimum(np.minimum(c0, c1), c2)
    tmax = np.maximum(np.maximum(c0, c1), c2)
    tmid = c0 + c1 + c2 - tmin - tmax
    keys = np.sort((tmin * n + tmid) * n + tmax)
    dup = keys[1:] == keys[:-1]
    if dup.any():
        k = int(keys[np.argmax(dup)])
        raise DuplicateTriangle((k // (n * n), (k // n) % n, k % n))

    # corner j = k * n_faces + t (vertex k of triangle t) owns the
    # directed edge src[j] -> dst[j]. Sorted by undirected edge, then
    # direction, the mesh is closed and consistently oriented iff the
    # corners pair up: each edge once forward and once reversed
    src = np.concatenate([c0, c1, c2])
    dst = np.concatenate([c1, c2, c0])
    if 2 * n * n <= np.iinfo(np.int32).max:
        # narrower arrays sort and gather about twice as fast
        src = src.astype(np.int32)
        dst = dst.astype(np.int32)
    keys = ((np.minimum(src, dst) * n + np.maximum(src, dst)) << 1) | (src > dst)
    keys, corner = _sort_keys(keys, 2 * n * n)
    # sorted, a pair differs in the direction bit alone
    if len(keys) % 2 == 0 and ((keys[0::2] ^ keys[1::2]) == 1).all():
        n_edges = len(keys) // 2
    else:
        _raise_edge_error(src, dst, n)

    # the corner whose edge reverses corner j's is its pair. Around
    # vertex src[j], the next corner after j is the one whose edge
    # reverses the edge into src[j] of j's triangle (corner j - n_faces,
    # cyclically): the corner-successor permutation, one cycle per fan
    # of triangles
    reverse = np.empty_like(corner)
    reverse[corner[0::2]] = corner[1::2]
    reverse[corner[1::2]] = corner[0::2]
    corners = np.bincount(src, minlength=n)
    _check_fans(np.concatenate((reverse[-n_faces:], reverse[:-n_faces])), src, corners)

    referenced = corners > 0
    unref = np.flatnonzero(mesh._vertex_alive & ~referenced)
    if len(unref):
        warnings.warn(
            f"{len(unref)} live vertex(es) not referenced by any triangle: "
            f"{unref[:8].tolist()}",
            UnreferencedVertexWarning,
            stacklevel=2,
        )

    chi = n_verts - n_edges + n_faces
    return MeshStats(n_verts, n_edges, n_faces, chi, True)


def _sort_keys(keys, bound):
    """(sorted ``keys``, the index each sorted key came from), for keys
    below ``bound``. Packs the index into the low bits of one int64 key
    where it fits, since a plain sort is several times faster than
    ``argsort``."""
    m = len(keys)
    bits = (m - 1).bit_length()
    if bound << bits > 2**63:
        order = np.argsort(keys)
        return keys[order], order
    packed = np.sort((keys.astype(np.int64) << bits) | np.arange(m))
    return packed >> bits, (packed & ((1 << bits) - 1)).astype(keys.dtype)


def _check_fans(succ, src, corners):
    """Raise ``NonManifoldVertex`` for the lowest vertex whose corners
    the successor permutation ``succ`` splits into more than one cycle,
    i.e. whose triangles form more than one fan; ``corners`` counts the
    corners of each vertex. Each corner's cycle is labelled by its least
    member through pointer doubling: after k rounds a label is the least
    of 2**k successive corners, and no cycle is longer than its
    vertex's corner count."""
    ids = np.arange(len(succ), dtype=succ.dtype)
    label = ids
    for k in range(int(corners.max() - 1).bit_length(), 0, -1):
        label = np.minimum(label, label.take(succ))
        if k > 1:
            succ = succ.take(succ)
    fans = np.bincount(src[label == ids], minlength=len(corners))
    if (fans > 1).any():
        v = int(np.argmax(fans > 1))
        raise NonManifoldVertex(v, int(fans[v]))


def _raise_edge_error(src, dst, n):
    """Name the first edge that breaks closedness or orientation."""
    und_keys = np.minimum(src, dst) * n + np.maximum(src, dst)
    und_uniq, und_counts = np.unique(und_keys, return_counts=True)
    bad = und_counts != 2
    if bad.any():
        k = int(und_uniq[np.argmax(bad)])
        raise NonManifoldEdge((k // n, k % n), int(und_counts[np.argmax(bad)]))

    dir_uniq, dir_counts = np.unique(src * n + dst, return_counts=True)
    k = int(dir_uniq[np.argmax(dir_counts > 1)])
    raise ValidationError(
        f"inconsistent orientation: edge ({k // n}, {k % n}) "
        "traversed twice in the same direction"
    )


@dataclass(frozen=True)
class EdgeStar:
    """The labeled neighborhood of edge (v1, v2): two vertex paths and
    the positions of every vertex on them.

    ``upper`` runs around v2 and ``lower`` around v1, both from the left
    wing vertex ``vL`` to the right wing vertex ``vR``: the wings, the
    third vertices of the two triangles on the edge, are the ends of
    both paths, so ``upper[1:-1]`` and ``lower[1:-1]`` are the interior
    ring vertices. Consecutive entries span the non-adjacent star
    triangles, {v2, upper[i], upper[i+1]} and {v1, lower[i], lower[i+1]};
    the wing triangles are {v1, v2, vL} and {v1, v2, vR}.

    ``p1``, ``p2``, ``upper_pos`` and ``lower_pos`` snapshot the
    positions, so cost functions are pure: re-evaluating a star after
    the mesh moved gives the original answer.
    """

    v1: int
    v2: int
    upper: tuple
    lower: tuple
    p1: tuple
    p2: tuple
    upper_pos: tuple
    lower_pos: tuple

    @property
    def vL(self):
        """The left wing vertex."""
        return self.upper[0]

    @property
    def vR(self):
        """The right wing vertex."""
        return self.upper[-1]

    def ring_triangles_before(self):
        """Non-adjacent triangles as (apex, ring_i, ring_i+1) position triples."""
        out = []
        for i in range(len(self.upper) - 1):
            out.append((self.p2, self.upper_pos[i], self.upper_pos[i + 1]))
        for i in range(len(self.lower) - 1):
            out.append((self.p1, self.lower_pos[i], self.lower_pos[i + 1]))
        return out

    def all_triangles_before(self):
        """Every triangle incident to v1 or v2, wings included."""
        out = self.ring_triangles_before()
        out.append((self.p1, self.p2, self.upper_pos[0]))
        out.append((self.p2, self.p1, self.lower_pos[-1]))
        return out


def _umbrella_successors(mesh, center):
    """CCW successor map around ``center``: triangle (center, u, w) -> u: w."""
    succ = {}
    rows = mesh._row_cache
    triangle = mesh.triangle
    for t in mesh._vertex_tris[center]:
        a, b, c = rows.get(t) or triangle(t)
        if a == center:
            u, w = b, c
        elif b == center:
            u, w = c, a
        else:
            u, w = a, b
        if u in succ:
            raise StarNotDisk(f"vertex {center} has a non-disk umbrella")
        succ[u] = w
    return succ


def _walk(succ, start, stop, center):
    """Follow successor pointers from start to stop; the vertex path."""
    path = [start]
    cur = start
    for _ in range(len(succ) + 1):
        cur = succ.get(cur)
        if cur is None:
            raise StarNotDisk(f"umbrella walk around {center} broke at {path[-1]}")
        path.append(cur)
        if cur == stop:
            return path
    raise StarNotDisk(f"umbrella walk around {center} did not close")


class StarCache:
    """Per-vertex umbrellas and positions shared by :func:`edge_star`
    calls on a batch of nearby edges. Only valid while the mesh does not
    change; make a fresh one after any collapse or vertex move."""

    __slots__ = ("umbrellas", "positions")

    def __init__(self):
        self.umbrellas = {}
        self.positions = {}


def edge_star(mesh: TriangleMesh, v1, v2, cache=None) -> EdgeStar:
    """Build the labeled edge neighborhood used by the cost functions.

    Raises ``NotAnEdge`` when (v1, v2) is not a mesh edge and
    ``StarNotDisk`` when the local umbrella walk fails (non-manifold
    neighborhood). ``cache`` (a :class:`StarCache`) lets a batch of
    calls share the per-vertex work.
    """
    vertex_tris = mesh._vertex_tris
    n_shared = len(vertex_tris[v1] & vertex_tris[v2])
    if n_shared == 0:
        raise NotAnEdge(v1, v2)
    if n_shared != 2:
        raise StarNotDisk(f"edge ({v1}, {v2}) has {n_shared} incident triangles")

    if cache is None:
        cache = StarCache()
    umbrellas = cache.umbrellas
    succ1 = umbrellas.get(v1)
    if succ1 is None:
        succ1 = umbrellas[v1] = _umbrella_successors(mesh, v1)
    succ2 = umbrellas.get(v2)
    if succ2 is None:
        succ2 = umbrellas[v2] = _umbrella_successors(mesh, v2)
    if v2 not in succ1 or v1 not in succ2:
        raise StarNotDisk(f"edge ({v1}, {v2}) is traversed inconsistently")
    vL = succ1[v2]
    vR = succ2[v1]
    if vL == vR:
        raise StarNotDisk(f"edge ({v1}, {v2}) has coincident wing vertices")

    # around v2 the CCW order runs v1 -> vR -> (upper vertices) -> vL,
    # so the left-to-right upper path vL..vR is the reverse of that walk
    upper = _walk(succ2, vR, vL, v2)
    upper.reverse()

    # around v1 the CCW order runs vL -> (lower vertices) -> vR -> v2
    lower = _walk(succ1, vL, vR, v1)

    # a path of k vertices crosses k - 1 distinct triangles besides the
    # two wings, so the two umbrellas are single disks exactly when the
    # counts add up
    if len(lower) + 1 != len(succ1) or len(upper) + 1 != len(succ2):
        raise StarNotDisk(
            f"star of ({v1}, {v2}) does not cover the incident triangle set"
        )

    n_up = len(upper)
    verts = mesh.vertices
    positions = cache.positions
    pos = []
    for v in (v1, v2, *upper, *lower):
        p = positions.get(v)
        if p is None:
            p = positions[v] = tuple(verts[v].tolist())
        pos.append(p)
    return EdgeStar(
        v1=v1,
        v2=v2,
        upper=tuple(upper),
        lower=tuple(lower),
        p1=pos[0],
        p2=pos[1],
        upper_pos=tuple(pos[2:2 + n_up]),
        lower_pos=tuple(pos[2 + n_up:]),
    )


@dataclass(frozen=True)
class CollapseCheck:
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


_OK = CollapseCheck(True, None)


def can_collapse(mesh: TriangleMesh, v1, v2, shared=None, neighbors=None) -> CollapseCheck:
    """Decide whether collapsing (v1, v2) keeps the mesh a closed manifold.

    Checks, in order: the pair is an edge; the result keeps at least 4
    vertices; no rewritten triangle duplicates an existing one; the link
    condition (the common neighbors of v1 and v2 are exactly the two
    wing vertices). Returns a reasoned boolean instead of raising so the
    decimation loop can count rejection causes. A caller that holds the
    shared triangle set and the two ``vertex_neighbors`` sets passes
    them as ``shared`` and ``neighbors``.
    """
    vertex_tris = mesh._vertex_tris
    if shared is None:
        shared = vertex_tris[v1] & vertex_tris[v2]
    if len(shared) == 0:
        return CollapseCheck(False, "not_an_edge")
    if len(shared) != 2:
        return CollapseCheck(False, "non_manifold_edge")
    if mesh.n_vertices - 1 < 4:
        return CollapseCheck(False, "too_few_vertices")

    rows = mesh._row_cache
    triangle = mesh.triangle
    existing = set()
    for t in vertex_tris[v1] - shared:
        existing.add(frozenset(rows.get(t) or triangle(t)))
    for t in vertex_tris[v2] - shared:
        # each of v2's rows holds v2 once: its corners with v1 for v2
        rewritten = frozenset(rows.get(t) or triangle(t)) - {v2} | {v1}
        if len(rewritten) < 3 or rewritten in existing:
            return CollapseCheck(False, "duplicate_triangle")
        existing.add(rewritten)

    wings = set()
    for t in shared:
        wings.update(rows.get(t) or triangle(t))
    wings -= {v1, v2}
    if neighbors is None:
        neighbors = (mesh.vertex_neighbors(v1), mesh.vertex_neighbors(v2))
    if neighbors[0] & neighbors[1] != wings:
        return CollapseCheck(False, "link_condition")
    return _OK


@dataclass(frozen=True)
class CollapseRecord:
    """What an applied collapse changed, for caches and tracing."""

    v1: int
    v2: int
    placement: tuple
    removed_triangles: tuple
    rewritten_triangles: tuple
    flipped_triangles: tuple


def _changed_normal_flips(mesh, v1, v2, vbar, changed):
    """Triangle ids among ``changed`` whose normal reverses when both
    endpoints move to vbar; pairs of (strictly flipped, degenerate-or-flipped).

    Each normal is ``geometry.cross(sub(p1, p0), sub(p2, p0))`` of the
    row's corners in row order, and the test is the sign of
    ``geometry.dot`` of the normals before and after, written out in the
    same operation order; one gather reads every corner position."""
    ids = list(changed)
    rows = mesh.triangles[ids]
    moved = ((rows == v1) | (rows == v2)).tolist()
    flipped = []
    nonpos = []
    for t, corners, (m0, m1, m2) in zip(ids, mesh.vertices[rows].tolist(), moved):
        (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = corners
        ux, uy, uz = x1 - x0, y1 - y0, z1 - z0
        wx, wy, wz = x2 - x0, y2 - y0, z2 - z0
        nx, ny, nz = uy * wz - uz * wy, uz * wx - ux * wz, ux * wy - uy * wx
        x0, y0, z0 = vbar if m0 else corners[0]
        x1, y1, z1 = vbar if m1 else corners[1]
        x2, y2, z2 = vbar if m2 else corners[2]
        ux, uy, uz = x1 - x0, y1 - y0, z1 - z0
        wx, wy, wz = x2 - x0, y2 - y0, z2 - z0
        d = (nx * (uy * wz - uz * wy) + ny * (uz * wx - ux * wz)
             + nz * (ux * wy - uy * wx))
        if d < 0.0:
            flipped.append(t)
            nonpos.append(t)
        elif d == 0.0:
            nonpos.append(t)
    return flipped, nonpos


def _apply_collapse(mesh, v1, v2, vbar, flipped, shared) -> CollapseRecord:
    """Bookkeeping of a collapse whose legality was already established;
    ``shared`` is the two triangles of the edge."""
    vertex_tris = mesh._vertex_tris
    tris = mesh.triangles
    row_cache = mesh._row_cache
    rewritten = sorted(vertex_tris[v2] - shared)
    for t in rewritten:
        # a valid row holds v2 once
        row = list(row_cache.get(t) or tris[t].tolist())
        k = row.index(v2)
        tris[t, k] = row[k] = v1
        row_cache[t] = tuple(row)
    vertex_tris[v1].update(rewritten)

    removed = sorted(shared)
    for t in removed:
        for v in row_cache.pop(t, None) or tris[t].tolist():
            vertex_tris[v].discard(t)
        tris[t] = -1
    # rewritten rows already replaced v2, so clear what remains
    mesh._vertex_tris[v2].clear()
    mesh._vertex_alive[v2] = False
    mesh._n_vertices -= 1
    mesh._n_faces -= 2
    mesh.vertices[v1] = vbar

    return CollapseRecord(
        v1=v1,
        v2=v2,
        placement=vbar,
        removed_triangles=tuple(removed),
        rewritten_triangles=tuple(rewritten),
        flipped_triangles=tuple(sorted(flipped)),
    )


def collapse_edge(mesh: TriangleMesh, v1, v2, vbar, warn_on_flip=True) -> CollapseRecord:
    """Collapse edge (v1, v2), moving the surviving vertex v1 to ``vbar``.

    Drops two triangles and one vertex (v2's slot is retired), rewrites
    every surviving triangle of v2 to reference v1, and leaves all other
    ids untouched. Raises ``CollapseRejected`` if :func:`can_collapse`
    fails. A ring triangle whose normal reverses is recorded in the
    returned record (and warned about) but does not block the collapse;
    vetoing flips is the decimation driver's policy decision.
    """
    check = can_collapse(mesh, v1, v2)
    if not check.ok:
        raise CollapseRejected(f"cannot collapse ({v1}, {v2}): {check.reason}")

    vbar = (float(vbar[0]), float(vbar[1]), float(vbar[2]))
    if not all(math.isfinite(c) for c in vbar):
        raise CollapseRejected("placement must be finite")

    shared = mesh._vertex_tris[v1] & mesh._vertex_tris[v2]
    changed = (mesh._vertex_tris[v1] | mesh._vertex_tris[v2]) - shared
    flipped, _ = _changed_normal_flips(mesh, v1, v2, vbar, changed)
    record = _apply_collapse(mesh, v1, v2, vbar, flipped, shared)
    if flipped and warn_on_flip:
        warnings.warn(
            f"collapse ({v1}, {v2}) reversed normals of triangles {record.flipped_triangles}",
            FlippedTriangleWarning,
            stacklevel=2,
        )
    return record


@dataclass(frozen=True)
class QualitySummary:
    """Whole-mesh triangle quality statistics."""

    n_faces: int
    min_quality: float
    mean_quality: float
    well_centered_fraction: float
    histogram: dict = field(default_factory=dict)
    n_degenerate: int = 0


_HIST_EDGES = (2.0, 2.5, 3.0, 4.0, 6.0, 10.0, math.inf)


def quality_summary(mesh: TriangleMesh) -> QualitySummary:
    """Vectorized quality survey of all live triangles.

    Degenerate triangles (area at or below tolerance) are excluded from
    the statistics and reported in ``n_degenerate``.
    """
    tris = mesh.live_triangle_array()
    if len(tris) == 0:
        return QualitySummary(0, math.nan, math.nan, math.nan)
    a, b, c = mesh.vertices.T.take(tris.T, axis=1).swapaxes(0, 1)
    good = geometry.triangle_normal(a, b, c, np.sqrt)[1] > 2.0 * geometry.EPS_AREA
    n_degen = int((~good).sum())
    a, b, c = a[:, good], b[:, good], c[:, good]
    q = geometry.triangle_quality_array(a, b, c)
    # a sliver that passes the area filter can still round to a zero angle
    q[np.isnan(q)] = math.inf
    wc = geometry.is_well_centered(a, b, c)

    hist = {}
    lo = _HIST_EDGES[0]
    for hi in _HIST_EDGES[1:]:
        label = f"[{lo:g}, {hi:g})"
        hist[label] = int(((q >= lo) & (q < hi)).sum())
        lo = hi

    return QualitySummary(
        n_faces=len(tris),
        min_quality=float(q.min()) if len(q) else math.nan,
        mean_quality=float(q.mean()) if len(q) else math.nan,
        well_centered_fraction=float(wc.mean()) if len(q) else math.nan,
        histogram=hist,
        n_degenerate=n_degen,
    )

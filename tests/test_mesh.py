import math

import numpy as np
import pytest

from decimesh import (
    CollapseCheck,
    TriangleMesh,
    can_collapse,
    collapse_edge,
    edge_star,
    quality_summary,
    validate,
)
from decimesh.errors import (
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
from decimesh.geometry import is_well_centered, triangle_quality
from decimesh.shapes import icosahedron, icosphere, octahedron, tetrahedron, uv_sphere

from conftest import (
    enclosed_volume,
    incident_rows,
    nonpositive_normals,
    pinched_spheres,
    ring_centroids,
    star_rows,
)


def bipyramid():
    """Two tetrahedra glued on a face: 5 vertices, 6 triangles."""
    s = math.sqrt(3.0) / 2.0
    verts = [
        (1.0, 0.0, 0.0),
        (-0.5, s, 0.0),
        (-0.5, -s, 0.0),
        (0.0, 0.0, 1.0),
        (0.0, 0.0, -1.0),
    ]
    faces = [
        (0, 1, 3), (1, 2, 3), (2, 0, 3),
        (1, 0, 4), (2, 1, 4), (0, 2, 4),
    ]
    return TriangleMesh(verts, faces)


# --- validate ---------------------------------------------------------------


def test_validate_tetrahedron(tetra):
    stats = validate(tetra)
    assert (stats.n_vertices, stats.n_edges, stats.n_faces) == (4, 6, 4)
    assert stats.euler_characteristic == 2
    assert stats.is_closed_manifold


def test_validate_icosahedron():
    stats = validate(icosahedron())
    # E = 3F/2 for a closed triangle mesh
    assert (stats.n_vertices, stats.n_edges, stats.n_faces) == (12, 30, 20)
    assert stats.euler_characteristic == 2


def test_three_triangles_on_one_edge_rejected():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)]
    mesh = TriangleMesh(verts, [(0, 1, 2), (1, 0, 3), (0, 1, 4)])
    with pytest.raises(NonManifoldEdge) as info:
        validate(mesh)
    assert info.value.count == 3


def test_open_mesh_rejected(tetra):
    mesh = TriangleMesh(tetra.vertices, tetra.live_triangle_array()[:3])
    with pytest.raises(NonManifoldEdge) as info:
        validate(mesh)
    assert info.value.count == 1


def test_duplicate_triangle_rejected():
    mesh = TriangleMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2), (2, 1, 0)])
    with pytest.raises(DuplicateTriangle):
        validate(mesh)


def test_repeated_vertex_index_rejected():
    mesh = TriangleMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 1)])
    with pytest.raises(DegenerateTriangle) as info:
        validate(mesh)
    assert str(info.value) == "triangle (0, 1, 1) repeats a vertex index"


def test_inconsistent_orientation_rejected(tetra):
    faces = tetra.live_triangle_array().tolist()
    a, b, c = faces[0]
    faces[0] = (a, c, b)
    mesh = TriangleMesh(tetra.vertices, faces)
    with pytest.raises(ValidationError):
        validate(mesh)


def test_unreferenced_vertex_warns(tetra):
    verts = np.vstack([tetra.vertices, [5.0, 5.0, 5.0]])
    mesh = TriangleMesh(verts, tetra.live_triangle_array())
    with pytest.warns(UnreferencedVertexWarning):
        stats = validate(mesh)
    assert stats.is_closed_manifold


def test_out_of_range_index_rejected():
    with pytest.raises(ValidationError):
        TriangleMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 3)])


def test_fractional_index_rejected():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    for bad in ([(0, 1.7, 2)], [(0, 1, math.nan)], [(0, 1, math.inf)]):
        with pytest.raises(ValidationError, match="whole numbers"):
            TriangleMesh(verts, bad)
    mesh = TriangleMesh(verts, np.array([(0.0, 1.0, 2.0)]))
    assert mesh.triangles.tolist() == [[0, 1, 2]]
    assert mesh.triangles.dtype == np.int64


def test_nonfinite_vertex_rejected():
    with pytest.raises(ValidationError):
        TriangleMesh([(0, 0, 0), (1, 0, 0), (0, math.nan, 0)], [(0, 1, 2)])


def test_shapes_are_outward_oriented():
    for mesh in (tetrahedron(), octahedron(), icosahedron(), icosphere(2)):
        validate(mesh)
        assert enclosed_volume(mesh) > 0


# --- edge_star ----------------------------------------------------------------


def test_edge_star_octahedron(octa):
    star = edge_star(octa, *next(octa.edges()))
    # one interior vertex on each ring between the two wings
    assert (len(star.upper), len(star.lower)) == (3, 3)
    assert len(star.ring_triangles_before()) == 4
    assert len(star.all_triangles_before()) == 6  # six incident triangles


def test_edge_star_tetrahedron(tetra):
    star = edge_star(tetra, *next(tetra.edges()))
    assert star.upper == star.lower == (star.vL, star.vR)
    assert len(star.ring_triangles_before()) == 2


def test_edge_star_not_an_edge(octa):
    # opposite octahedron vertices (0, +x) and (1, -x) share no edge
    with pytest.raises(NotAnEdge):
        edge_star(octa, 0, 1)


def test_edge_star_reassembles_incident_set():
    rng = np.random.default_rng(33)
    bumpy = icosphere(1)
    bumpy.vertices += rng.normal(scale=0.08, size=bumpy.vertices.shape)
    for mesh in (octahedron(), icosphere(1), bumpy):
        for (a, b) in mesh.edges():
            assert star_rows(edge_star(mesh, a, b)) == incident_rows(mesh, a, b)


def test_edge_star_non_manifold_neighborhood():
    from decimesh.errors import StarNotDisk

    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)]
    mesh = TriangleMesh(verts, [(0, 1, 2), (1, 0, 3), (0, 1, 4)])
    with pytest.raises(StarNotDisk):
        edge_star(mesh, 0, 1)


def test_edge_star_ring_paths_are_simple(octa):
    for (a, b) in octa.edges():
        star = edge_star(octa, a, b)
        # both paths run between the same two distinct wings
        assert (star.lower[0], star.lower[-1]) == (star.vL, star.vR)
        assert star.vL != star.vR
        assert len(set(star.upper)) == len(star.upper)
        assert len(set(star.lower)) == len(star.lower)


def test_edge_star_centroids_match_triangles(octa):
    star = edge_star(octa, *next(octa.edges()))
    for c, (p, q, r) in zip(ring_centroids(star), star.ring_triangles_before()):
        expect = tuple((p[i] + q[i] + r[i]) / 3.0 for i in range(3))
        assert c == expect


# --- can_collapse --------------------------------------------------------------


def test_can_collapse_octahedron_edge(octa):
    check = can_collapse(octa, *next(octa.edges()))
    assert check.ok and check.reason is None
    assert bool(check)


def test_tetrahedron_collapse_blocked_by_size(tetra):
    check = can_collapse(tetra, *next(tetra.edges()))
    assert not check.ok
    assert check.reason == "too_few_vertices"


def test_glued_tetrahedra_equator_collapse_is_duplicate():
    mesh = bipyramid()
    validate(mesh)
    check = can_collapse(mesh, 0, 1)  # edge on the shared (equator) face
    assert not check.ok
    assert check.reason == "duplicate_triangle"


def test_pinched_vertex_fails_validation():
    # every edge has two triangles and the orientation is consistent, so
    # only the fans around the glued vertex tell the pinch apart
    mesh, top = pinched_spheres()
    assert (mesh.n_vertices, mesh.n_faces) == (83, 160)
    with pytest.raises(NonManifoldVertex) as info:
        validate(mesh)
    assert (info.value.vertex, info.value.fans) == (top, 2)
    assert f"vertex {top} is a pinch" in str(info.value)
    # the star walk at the pinch fails too
    with pytest.raises(StarNotDisk):
        edge_star(mesh, top, next(iter(mesh.vertex_neighbors(top))))


@pytest.mark.parametrize("bound", [2**20, 2**62])
def test_sort_keys_packed_and_argsort_paths_agree(bound):
    # small bounds pack the index into the key; 2**62 leaves no room
    # for it, so the keys go through argsort
    from decimesh.mesh import _sort_keys

    keys = np.random.default_rng(2).permutation(2**20)[:1000]
    got, index = _sort_keys(keys, bound)
    assert np.array_equal(got, np.sort(keys))
    assert np.array_equal(keys[index], got)


def test_validate_names_lowest_pinched_vertex():
    # a third sphere glued at another vertex of the first: two pinches
    mesh, top = pinched_spheres()
    verts = mesh.vertices[:42]
    tris = mesh.live_triangle_array()[:80]
    low = int(np.argmin(verts[:, 0]))
    ids = np.arange(83, 83 + 42)
    ids[low + 1:] -= 1
    ids[low] = low
    third = np.delete(2.0 * verts[low] - verts, low, axis=0)
    glued = TriangleMesh(
        np.vstack([mesh.vertices, third]),
        np.vstack([mesh.live_triangle_array(), ids[tris[:, ::-1]]]),
    )
    with pytest.raises(NonManifoldVertex) as info:
        validate(glued)
    assert info.value.vertex == min(top, low)


def test_link_condition_rejection():
    # a pinch (two closed surfaces sharing a vertex) fails validation
    # (test_pinched_vertex_fails_validation), so exercise the link check
    # with an extra common neighbor instead: collapse across the equator
    # square of an octahedron is not an edge, but a long chain on an
    # icosphere gives common-neighbor violations only via duplicates;
    # glue case covered above. Here: non-edge.
    octa = octahedron()
    assert can_collapse(octa, 0, 1).reason == "not_an_edge"


# --- collapse_edge --------------------------------------------------------------


def test_collapse_octahedron_counts(octa):
    a, b = next(octa.edges())
    rec = collapse_edge(octa, a, b, (0.4, 0.4, 0.4))
    stats = validate(octa)
    assert (stats.n_vertices, stats.n_edges, stats.n_faces) == (5, 9, 6)
    assert stats.euler_characteristic == 2
    assert rec.v1 == a and rec.v2 == b
    assert len(rec.removed_triangles) == 2
    assert not octa._vertex_alive[b]
    assert octa.position(a) == (0.4, 0.4, 0.4)


def test_collapse_at_v1_keeps_lower_ring_geometry(octa):
    a, b = next(octa.edges())
    star = edge_star(octa, a, b)
    collapse_edge(octa, a, b, octa.position(a))
    after = {
        frozenset(octa.triangle(t)): set(octa.triangle_positions(t))
        for t in octa.incident_triangles(a)
    }
    lo, lo_pos = star.lower, star.lower_pos
    for i in range(len(lo) - 1):
        tri = frozenset((a, lo[i], lo[i + 1]))
        assert after[tri] == {star.p1, lo_pos[i], lo_pos[i + 1]}


def test_collapse_rejected_when_illegal(tetra):
    with pytest.raises(CollapseRejected):
        collapse_edge(tetra, *next(tetra.edges()), (0, 0, 0))


def test_collapse_flip_warning(octa):
    # dragging both endpoints far out along -x turns some ring triangle over
    a, b = 0, 4  # (+x vertex, +z pole)
    assert nonpositive_normals(octa, a, b, (-4.0, 0.0, 0.0))
    assert not nonpositive_normals(octa, a, b, (0.5, 0.0, 0.5))
    with pytest.warns(FlippedTriangleWarning):
        rec = collapse_edge(octa, a, b, (-4.0, 0.0, 0.0))
    assert rec.flipped_triangles
    validate(octa)  # structurally still a closed manifold


def test_repeated_collapses_320_to_80():
    mesh = icosphere(2)
    n_collapses = 0
    while mesh.n_faces > 80:
        # cheapest-edge-by-length greedy with legality screening
        best = None
        best_len = math.inf
        for (a, b) in mesh.edges():
            if not can_collapse(mesh, a, b):
                continue
            d = math.dist(mesh.position(a), mesh.position(b))
            if d < best_len:
                best, best_len = (a, b), d
        assert best is not None
        pa = mesh.position(best[0])
        pb = mesh.position(best[1])
        mid = tuple(0.5 * (pa[i] + pb[i]) for i in range(3))
        collapse_edge(mesh, best[0], best[1], mid)
        n_collapses += 1
        stats = validate(mesh)
        assert stats.euler_characteristic == 2
    assert n_collapses == (320 - 80) // 2


# --- triangle metrics on meshes ---------------------------------------------


def test_triangle_metrics_on_mesh():
    verts = [(0, 0, 0), (1, 0, 0), (0.5, math.sqrt(3) / 2, 0)]
    mesh = TriangleMesh(verts, [(0, 1, 2)])
    corners = mesh.triangle_positions(0)
    assert triangle_quality(*corners) == pytest.approx(2.0, abs=1e-12)
    assert is_well_centered(*corners)


def test_triangle_metrics_degenerate():
    mesh = TriangleMesh([(0, 0, 0), (1, 0, 0), (2, 0, 0)], [(0, 1, 2)])
    with pytest.raises(DegenerateTriangle):
        triangle_quality(*mesh.triangle_positions(0))


def test_quality_summary_matches_scalar(sphere320):
    qs = quality_summary(sphere320)
    per_tri = [
        triangle_quality(*sphere320.triangle_positions(t))
        for t in sphere320.live_triangle_ids().tolist()
    ]
    assert qs.n_faces == 320
    assert qs.min_quality == pytest.approx(min(per_tri), rel=1e-12)
    assert qs.mean_quality == pytest.approx(sum(per_tri) / len(per_tri), rel=1e-12)
    wc = [
        is_well_centered(*sphere320.triangle_positions(t))
        for t in sphere320.live_triangle_ids().tolist()
    ]
    assert qs.well_centered_fraction == pytest.approx(sum(wc) / len(wc))
    assert sum(qs.histogram.values()) == 320


def rotated_cube():
    """The cube [-1, 1]^3 turned 45 degrees about z: every face triangle
    is a right triangle, and its rounded coordinates decide whether the
    squared sides still add up exactly."""
    corners = np.array([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], float)
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    corners = corners @ np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    faces = []
    for axis in range(3):
        for side in (0, 1):
            # b and d differ from a in one bit each, e in both
            a, b, d, e = [i for i in range(8) if (i >> (2 - axis)) & 1 == side]
            faces += [(a, b, e), (a, e, d)]
    return TriangleMesh(corners, faces)


@pytest.mark.parametrize(
    "make",
    [rotated_cube, lambda: icosphere(2), lambda: uv_sphere(12, 6, radius=10.0)],
    ids=["rotated_cube", "icosphere2", "uv_sphere"],
)
def test_quality_summary_agrees_with_scalar_predicates(make):
    mesh = make()
    corners = [mesh.triangle_positions(t) for t in mesh.live_triangle_ids().tolist()]
    qs = quality_summary(mesh)
    wc = [is_well_centered(*p) for p in corners]
    assert qs.well_centered_fraction == sum(wc) / len(wc)
    assert qs.min_quality == pytest.approx(
        min(triangle_quality(*p) for p in corners), rel=1e-15
    )


def test_quality_summary_scores_needle_inf():
    # area 0.5 passes the filter, but the smallest angle rounds to zero
    mesh = TriangleMesh([(0, 0, 0), (1e6, 0, 0), (1e6, 1e-6, 0)], [(0, 1, 2)])
    qs = quality_summary(mesh)
    assert qs.n_degenerate == 0
    assert qs.min_quality == math.inf
    assert sum(qs.histogram.values()) == 0


def test_edges_and_edge_table_agree(octa):
    table = octa.edge_table()
    assert set(octa.edges()) == set(table)
    assert all(len(tris) == 2 for tris in table.values())
    for (a, b), tris in table.items():
        assert sorted(octa.incident_triangles(a) & octa.incident_triangles(b)) == sorted(tris)


def test_edges_meet_first_seen_order_after_collapses():
    """``edges()`` lists each edge where a walk over the live triangles,
    by id, first meets it, also once collapses have retired rows."""
    mesh = icosphere(2)
    for _ in range(20):
        a, b = next(e for e in mesh.edges() if can_collapse(mesh, *e))
        collapse_edge(mesh, a, b, mesh.position(a), warn_on_flip=False)
    assert mesh.n_faces == len(mesh.triangles) - 40
    seen = []
    for t in mesh.live_triangle_ids().tolist():
        a, b, c = mesh.triangles[t].tolist()
        seen += [(min(u, v), max(u, v)) for u, v in ((a, b), (b, c), (c, a))]
    assert list(mesh.edges()) == list(dict.fromkeys(seen))


def test_collapse_check_truthiness():
    assert CollapseCheck(True, None)
    assert not CollapseCheck(False, "why")

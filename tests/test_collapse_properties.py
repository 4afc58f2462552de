"""Property-based collapse sequences: random legal ``collapse_edge``
sequences on perturbed icospheres keep a valid closed manifold of Euler
characteristic 2 after every collapse, and keep ids stable. A collapse
of (a, b) retires exactly b and the edge's two triangles, rewrites b to
a in b's other triangles, moves only a, and touches no other row; a
retired slot never comes back. After every collapse, the edge star of
each edge the decimator would refresh still spans exactly the
triangles at its endpoints and snapshots the current positions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decimesh import can_collapse, collapse_edge, validate
from decimesh.mesh import StarCache, edge_star
from decimesh.shapes import icosphere

from conftest import incident_rows, star_rows

# fixed examples and no example database: the same cases on every run
SEQUENCES = settings(max_examples=40, deadline=None, derandomize=True, database=None)

PLACEMENT = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


def check_incidence(mesh):
    """Each vertex's incidence set is exactly its live triangles."""
    want = [set() for _ in range(len(mesh.vertices))]
    for t in mesh.live_triangle_ids().tolist():
        for v in mesh.triangle(t):
            want[v].add(t)
    assert [mesh.incident_triangles(v) for v in range(len(want))] == want


def check_stars_near(mesh, center):
    """Every edge with an endpoint in the 1-ring of ``center`` (center
    included), both ways round, through one shared cache as the
    decimator walks them: the star's paths give the oriented rows of
    the triangles at its two endpoints, and its positions are the
    mesh's."""
    near = mesh.vertex_neighbors(center) | {center}
    edges = {(min(u, w), max(u, w)) for u in near for w in mesh.vertex_neighbors(u)}
    cache = StarCache()
    for u, w in sorted(edges):
        for v1, v2 in ((u, w), (w, u)):
            star = edge_star(mesh, v1, v2, cache)
            assert star_rows(star) == incident_rows(mesh, v1, v2)
            assert (star.p1, star.p2) == (mesh.position(v1), mesh.position(v2))
            assert star.upper_pos == tuple(map(mesh.position, star.upper))
            assert star.lower_pos == tuple(map(mesh.position, star.lower))


# every warning is an error, but for one that Hypothesis's failure
# report raises from a third-party package: turned into an error inside
# a pytest hook, it would abort the session instead of failing the test.
# Of two filterwarnings marks, the upper one wins.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.filterwarnings("error")
@SEQUENCES
@given(
    level=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.0, 0.02, 0.2]),
    data=st.data(),
)
def test_collapse_sequences_keep_manifold_and_ids(level, seed, scale, data):
    mesh = icosphere(level)
    rng = np.random.default_rng(seed)
    mesh.vertices += rng.normal(scale=scale, size=mesh.vertices.shape)
    for _ in range(data.draw(st.integers(1, 40), label="collapses")):
        legal = [e for e in mesh.edges() if can_collapse(mesh, *e).ok]
        if not legal:
            # only the tetrahedron is left, which no collapse may shrink
            assert mesh.n_vertices == 4
            break
        a, b = data.draw(st.sampled_from(legal), label="edge")
        if data.draw(st.booleans(), label="swap"):
            a, b = b, a
        t = data.draw(PLACEMENT, label="t")
        vbar = tuple(((1.0 - t) * mesh.vertices[a] + t * mesh.vertices[b]).tolist())

        rows = mesh.triangles.copy()
        positions = mesh.vertices.copy()
        tri_alive = mesh._tri_alive.copy()
        vert_alive = mesh._vertex_alive.copy()
        wings = mesh.edge_triangles(a, b)
        record = collapse_edge(mesh, a, b, vbar, warn_on_flip=False)

        assert list(record.removed_triangles) == wings
        gone = tri_alive.copy()
        gone[wings] = False
        assert np.array_equal(mesh._tri_alive, gone)
        vert_alive[b] = False
        assert np.array_equal(mesh._vertex_alive, vert_alive)

        live = np.flatnonzero(gone)
        expect = rows[live]
        expect[expect == b] = a
        assert np.array_equal(mesh.triangles[live], expect)
        assert (mesh.triangles[wings] == -1).all()
        moved = np.ones(len(positions), dtype=bool)
        moved[a] = False
        assert np.array_equal(mesh.vertices[moved], positions[moved])
        assert mesh.position(a) == vbar

        stats = validate(mesh)
        assert stats.euler_characteristic == 2
        assert (stats.n_vertices, stats.n_faces) == (mesh.n_vertices, mesh.n_faces)
        check_incidence(mesh)
        check_stars_near(mesh, a)

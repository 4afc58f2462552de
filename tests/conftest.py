import importlib
import math
import types
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from decimesh import Atom, TriangleMesh, blocks
from decimesh.geometry import centroid, cross, dot, sub
from decimesh.mesh import _changed_normal_flips, can_collapse
from decimesh.shapes import icosphere, octahedron, tetrahedron


@pytest.fixture
def tetra():
    return tetrahedron()


@pytest.fixture
def octa():
    return octahedron()


@pytest.fixture(scope="session")
def sphere320():
    """Level-2 icosphere; session-scoped, copy before mutating."""
    return icosphere(2)


def random_rotation(rng):
    """Uniform-ish rotation matrix from a QR factorization."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _cyclic(row):
    """A triangle row rotated to start at its smallest id, which keeps
    its orientation."""
    k = row.index(min(row))
    return row[k:] + row[:k]


def star_rows(star):
    """The oriented rows of every triangle the star spans, read off its
    paths alone: the wings (v1, v2, vL) and (v2, v1, vR), then
    (v2, upper[i+1], upper[i]) and (v1, lower[i], lower[i+1]); sorted,
    each rotated by :func:`_cyclic`."""
    a, b, up, lo = star.v1, star.v2, star.upper, star.lower
    rows = [(a, b, star.vL), (b, a, star.vR)]
    rows += [(b, up[i + 1], up[i]) for i in range(len(up) - 1)]
    rows += [(a, lo[i], lo[i + 1]) for i in range(len(lo) - 1)]
    return sorted(map(_cyclic, rows))


def incident_rows(mesh, a, b):
    """The oriented rows of the live triangles at a or b, as
    :func:`star_rows` lists them."""
    tris = mesh.incident_triangles(a) | mesh.incident_triangles(b)
    return sorted(_cyclic(mesh.triangle(t)) for t in tris)


def pinched_spheres(level=1):
    """Two icospheres glued at one vertex (a pinch): the second is the
    first reflected through its vertex of largest x, with its triangles
    reversed to keep them outward. Every edge has two triangles and the
    orientation is consistent, but the glued vertex has two fans. At
    level 1: 83 vertices, 160 faces, Euler characteristic 3. Returns
    (mesh, the glued vertex)."""
    sphere = icosphere(level)
    verts = sphere.vertices
    tris = sphere.live_triangle_array()
    k = len(verts)
    top = int(np.argmax(verts[:, 0]))
    # the reflected copy's vertices follow the first's, less the shared one
    ids = np.arange(k, 2 * k)
    ids[top + 1:] -= 1
    ids[top] = top
    mirrored = np.delete(2.0 * verts[top] - verts, top, axis=0)
    mesh = TriangleMesh(np.vstack([verts, mirrored]), np.vstack([tris, ids[tris[:, ::-1]]]))
    return mesh, top


def random_triangle(rng, scale=1.0):
    while True:
        pts = rng.normal(size=(3, 3)) * scale
        n = np.cross(pts[1] - pts[0], pts[2] - pts[0])
        if np.linalg.norm(n) > 1e-6 * scale * scale:
            return [tuple(p) for p in pts]


def circumcenter(a, b, c):
    """The point of the plane of triangle (a, b, c) equidistant from its
    three corners, in closed form."""
    ab, ac = sub(b, a), sub(c, a)
    n = cross(ab, ac)
    t1, t2 = cross(n, ab), cross(ac, n)
    ab2, ac2, inv = dot(ab, ab), dot(ac, ac), 0.5 / dot(n, n)
    return tuple(a[i] + (ac2 * t1[i] + ab2 * t2[i]) * inv for i in range(3))


def enclosed_volume(mesh):
    """Signed volume of a closed mesh by the divergence theorem;
    positive when its triangles face outward."""
    a, b, c = (mesh.vertices[col] for col in mesh.live_triangle_array().T)
    return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)


def ring_centroids(star, vbar=None):
    """Centroids of the star's non-wing triangles, in the order of
    ``ring_triangles_before``; with ``vbar``, each with its apex (p2 on
    the upper ring, p1 on the lower) moved to the placement ``vbar``."""
    tris = star.ring_triangles_before()
    if vbar is not None:
        tris = [(tuple(vbar), u, w) for _, u, w in tris]
    return [centroid(*t) for t in tris]


def quadric_matrix(q):
    """The dense symmetric 4x4 form of a packed quadric."""
    xx, xy, xz, xw, yy, yz, yw, zz, zw, ww = q
    return np.array([[xx, xy, xz, xw], [xy, yy, yz, yw], [xz, yz, zz, zw], [xw, yw, zw, ww]])


def quadric_trace(q):
    """Trace of a packed quadric: the scale its rounding is judged by."""
    return q.xx + q.yy + q.zz + q.ww


def nonpositive_normals(mesh, a, b, vbar):
    """Triangles at a or b, less the two on the edge, whose normal
    reverses or vanishes when a and b move to ``vbar``: the flip test
    the Decimator and ``collapse_edge`` run."""
    vt = mesh._vertex_tris
    changed = (vt[a] | vt[b]) - (vt[a] & vt[b])
    return _changed_normal_flips(mesh, a, b, tuple(vbar), changed)[1]


def greedy_audit(dec):
    """An ``audit`` for ``dec.run`` and the list it fills, one entry per
    commit: the commit's ``TraceRecord``; the cheapest fresh cost over every
    edge that ``can_collapse`` allows and whose placement reverses no
    normal; and whether the committed edge's fresh ``dec.candidate``
    equals the committed placement and cost bit for bit."""
    seen = []

    def audit(m, cand):
        best = math.inf
        for (a, b) in m.edges():
            if not can_collapse(m, a, b):
                continue
            res = dec.candidate(a, b)
            if res is None or nonpositive_normals(m, a, b, res[0]):
                continue
            best = min(best, res[1])
        fresh = dec.candidate(cand.v1, cand.v2)
        same = fresh is not None and bits([*fresh[0], fresh[1]]) == bits([*cand.placement, cand.cost])
        seen.append((cand, best, same))

    return audit, seen


def synthetic_molecule(n_atoms=20, level=3, radius=10.0, seed=7):
    """Blobby stand-in molecule: charges in a ball inside a sphere surface.

    Atoms reach out to 0.8 * radius so some sit within the default
    atom-capture distance of the surface, keeping the atom-aware cost
    nontrivial, while staying at least 2 A clear of quadrature nodes.
    """
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(n_atoms, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    radii = 0.8 * radius * rng.random(n_atoms) ** (1.0 / 3.0)
    charges = rng.choice([-1.0, 1.0], size=n_atoms)
    atoms = [
        Atom(center=d * r, charge=q, vdw_radius=1.5)
        for d, r, q in zip(directions, radii, charges)
    ]
    mesh = icosphere(level, radius=radius)
    return mesh, atoms


# -- the vol / gb / gb_qe engine against its oracles -------------------------
#
# Those costs come from per-vertex sums, which add in another order than
# the scalar oracles walk the star, so they agree with the oracles up to
# rounding, not bit for bit. These helpers hold them to the allowance the
# benchmark audits every recorded cost with (bench/checks.py), and to an
# exact rational evaluation on the same float inputs.

BENCH = Path(__file__).resolve().parents[1] / "bench"
EPS = 2.0**-52
# |engine cost - exact cost| <= EXACT_ROUNDING * (size of the terms the
# cost is the difference of) + 4 ulp of the cost
EXACT_ROUNDING = 64 * EPS


def block_budget(terms):
    """Patch the one term budget of every blocked kernel."""
    return mock.patch.object(blocks, "BUDGET", terms)


def cores(n):
    """Patch the core count the blocked kernels share work over."""
    return mock.patch.object(blocks, "cores", lambda: n)


def bits(values):
    """Float values as raw 64-bit patterns, so -0.0 != 0.0 and NaN == NaN."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def bench_checks():
    """bench/checks.py, whose ``_oracle`` gives the scalar cost of an
    edge and the allowance the benchmark grants a cost computed another
    way."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        return importlib.import_module("checks")


def program_modules():
    """The modules ``checks._oracle`` reads, as the benchmark passes them."""
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"decimesh.{m}")
           for m in ("costs", "errors", "mesh", "quadrics")}
    )


def oracle_params(config):
    """The scalar oracle's parameters for a run, as bench/checks.py
    builds them: gb_qe names the quadric first term itself."""
    from decimesh.costs import GbCostParams

    variant = "qe_term" if config.cost_kind == "gb_qe" else "edge_length"
    return GbCostParams(rho=config.rho, lam=config.lam, variant=variant)


def _exact(p):
    return [Fraction(c) for c in p]


def _det(p, q, r):
    return (p[0] * (q[1] * r[2] - q[2] * r[1])
            - p[1] * (q[0] * r[2] - q[2] * r[0])
            + p[2] * (q[0] * r[1] - q[1] * r[0]))


def _term_size(q, p):
    """Packed quadric ``q`` at ``p`` with every term made positive."""
    xx, xy, xz, xw, yy, yz, yw, zz, zw, ww = map(abs, q)
    x, y, z = map(abs, p)
    return (xx * x * x + yy * y * y + zz * z * z + ww
            + 2.0 * (xy * x * y + xz * x * z + yz * y * z + xw * x + yw * y + zw * z))


def exact_cost(mesh, kind, a, b, point, centers, lam, q=None):
    """The cost of collapsing (a, b) to ``point``, evaluated in exact
    rational arithmetic on the float positions, and the size of the
    terms a float evaluation cancels.

    vol is the sum of det(t - x)^2 / 36 over the triangles at a or b
    (the float oracle's quadric sets the size). gb and gb_qe add lam
    times the exact atom term, the summed change of squared
    centroid-to-atom distances over the non-wing triangles, to the first
    term: the float edge length for gb, or for gb_qe the packed quadric
    sum ``q`` (the oracle's, bit for bit) at ``point``, exactly."""
    from decimesh.costs import vol_quadric
    from decimesh.geometry import dist
    from decimesh.mesh import edge_star

    x = _exact(point)
    tris = mesh.incident_triangles(a) | mesh.incident_triangles(b)
    if kind == "vol":
        total = Fraction(0)
        for t in tris:
            p, r, s = ([c - xc for c, xc in zip(_exact(mesh.position(v)), x)]
                       for v in mesh.triangle(t))
            total += _det(p, r, s) ** 2
        vq = vol_quadric(edge_star(mesh, a, b))
        return total / 36, _term_size(vq, point)

    m = len(centers)
    s = [sum(Fraction(c) for c in centers[:, k].tolist()) for k in range(3)]
    atom_term = Fraction(0)
    size = 0.0
    wings = mesh.incident_triangles(a) & mesh.incident_triangles(b)
    for t in tris - wings:
        ids = mesh.triangle(t)
        before = [sum(col) / 3 for col in zip(*(_exact(mesh.position(v)) for v in ids))]
        after = [sum(col) / 3 for col in zip(*(x if v in (a, b) else _exact(mesh.position(v))
                                               for v in ids))]
        shift = [u - w for u, w in zip(after, before)]
        atom_term += (m * sum(u * u - w * w for u, w in zip(after, before))
                      - 2 * sum(d * e for d, e in zip(shift, s)))
        size += float(m * sum(u * u + w * w for u, w in zip(after, before))
                      + 2 * sum(abs(d * e) for d, e in zip(shift, s)))
    atom_term = abs(atom_term)
    if kind == "gb":
        first = Fraction(dist(mesh.position(a), mesh.position(b)))
        first_size = 0.0
    else:
        xx, xy, xz, xw, yy, yz, yw, zz, zw, ww = _exact(q)
        px, py, pz = x
        first = (xx * px * px + yy * py * py + zz * pz * pz + ww
                 + 2 * (xy * px * py + xz * px * pz + yz * py * pz
                        + xw * px + yw * py + zw * pz))
        first_size = _term_size(q, point)
    return first + Fraction(lam) * atom_term, first_size + lam * size


def assert_near_oracle(checks, dec, grid, edges, got, exact_every=0):
    """Each engine candidate ``got[i]`` of ``edges[i]`` on ``dec.mesh``
    as it is now: None exactly where ``placement_for`` has none; else
    its cost is the bench oracle's at its placement within the bench
    allowance, and the oracle's optimum within the two placements'
    allowances. Every ``exact_every``-th candidate is also checked
    against :func:`exact_cost` within EXACT_ROUNDING. Returns how many
    candidates equal the oracle's bit for bit."""
    from decimesh import placement_for
    from decimesh.errors import CandidateInfeasible, IsolatedVertex
    from decimesh.mesh import edge_star
    from decimesh.quadrics import vertex_quadric

    mesh, kind = dec.mesh, dec.config.cost_kind
    params = oracle_params(dec.config)
    dm = program_modules()
    same = 0
    for i, ((a, b), cand) in enumerate(zip(edges, got)):
        star = edge_star(mesh, a, b)
        q1 = q2 = None
        if kind != "vol":
            try:
                q1, q2 = vertex_quadric(mesh, a), vertex_quadric(mesh, b)
            except IsolatedVertex:
                pass
        ids = [] if kind == "vol" else grid.query_edge(star.p1, star.p2, params.rho)
        centers = np.empty((0, 3)) if kind == "vol" else grid.centers[ids]
        try:
            if kind == "gb_qe" and q1 is None:
                raise CandidateInfeasible("no quadric")
            want = placement_for(kind, star, q1, q2, centers, params)
        except CandidateInfeasible:
            want = None
        if want is None or cand is None:
            assert cand is want, ((a, b), cand, want)
            continue
        same += cand == want
        point, cost = cand
        cost_at, allowance = checks._oracle(dm, mesh, kind, a, b, grid, params)
        at_point = cost_at(point)
        slack = allowance(point, at_point)
        assert abs(cost - at_point) <= slack, ((a, b), cost, at_point)
        assert abs(cost - want[1]) <= slack + allowance(want[0], want[1]), ((a, b), cand, want)
        if exact_every and i % exact_every == 0:
            q = None if q1 is None else q1 + q2
            exact, size = exact_cost(mesh, kind, a, b, point, centers, params.lam, q)
            err = abs(Fraction(cost) - exact)
            assert err <= Fraction(EXACT_ROUNDING * size + 4 * EPS * abs(cost)), \
                ((a, b), cost, float(exact), size)
    return same


def as_candidates(points, costs, feasible):
    """The candidate engine's arrays as the audit path gives them:
    (placement, cost) per edge, None where infeasible."""
    return [(tuple(p), c) if ok else None
            for p, c, ok in zip(points.tolist(), costs.tolist(), feasible.tolist())]


def live_entries(dec):
    """The live entries of ``dec``'s queue as (cost, a, b, placement),
    by the liveness check the queue itself pops and compacts with."""
    n = len(dec.mesh.vertices)
    return [(e[0], *divmod(e[1], n), tuple(dec._points[e[3]].tolist()))
            for e in dec._heap if dec._live(e)]


def assert_atom_sums_equal_grid(dec, grid, edges):
    """The engine's atom count and center sum of each edge, from the
    cached per-vertex balls, equal ``np.sum`` over a fresh
    ``grid.query_edge`` bit for bit, as the scalar oracle adds them.
    Returns the counts."""
    mesh = dec.mesh
    m, atom_sum = dec._atom_sums(np.array(edges))
    for (a, b), k, got in zip(edges, m.tolist(), atom_sum.T):
        ids = grid.query_edge(mesh.position(a), mesh.position(b), dec.config.rho)
        assert k == len(ids)
        want = np.sum(grid.centers[ids], axis=0) if ids else np.zeros(3)
        assert bits(got) == bits(want)
    return m.tolist()

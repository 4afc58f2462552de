import numpy as np
import pytest

from decimesh import Atom
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


def random_triangle(rng, scale=1.0):
    while True:
        pts = rng.normal(size=(3, 3)) * scale
        n = np.cross(pts[1] - pts[0], pts[2] - pts[0])
        if np.linalg.norm(n) > 1e-6 * scale * scale:
            return [tuple(p) for p in pts]


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

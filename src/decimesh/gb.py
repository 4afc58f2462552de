"""Generalized Born solvation energetics on a triangulated surface.

Effective Born radii come from a surface quadrature of the inverse
fourth-power flux integrand over the closed molecular boundary; the
polarization energy is the standard screened pairwise sum over atoms.

Units: lengths in Angstroms, charges in elementary charges. The raw
energy unit is then e^2/A scaled by the dielectric contrast tau;
multiply by ``KCAL_PER_E2_ANGSTROM`` for kcal/mol. The conversion is
never applied implicitly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    AtomTooCloseToSurface,
    DegenerateTriangle,
    InvalidConfig,
    InvalidRadius,
    NonPositiveIntegral,
)
from .geometry import EPS_AREA
from .mesh import TriangleMesh

# Coulomb constant in (kcal/mol) * Angstrom / e^2.
KCAL_PER_E2_ANGSTROM = 332.06

# Quadrature nodes closer to an atom than this (Angstroms) abort the
# radius computation: a clamped 1/r^4 term would silently corrupt the
# energy downstream.
EPS_DIST = 1e-6


@dataclass
class Atom:
    """Point charge with an effective Born radius output slot.

    ``vdw_radius`` is the input van-der-Waals radius carried through
    from atom files; it is distinct from ``born_radius``, which is unset
    until :func:`born_radii` fills it.
    """

    center: np.ndarray
    charge: float
    vdw_radius: float = 0.0
    born_radius: Optional[float] = None

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float).reshape(3)
        if not np.isfinite(self.center).all():
            raise ValueError("atom center must be finite")


@dataclass(frozen=True)
class GBParams:
    """Dielectric constants of solute (eps_p) and solvent (eps_w)."""

    eps_p: float = 1.0
    eps_w: float = 80.0

    def __post_init__(self):
        if not (self.eps_p > 0 and self.eps_w > 0):
            raise InvalidConfig(
                "dielectric constants must be positive, got "
                f"eps_p={self.eps_p}, eps_w={self.eps_w}"
            )

    @property
    def tau(self):
        return 1.0 / self.eps_p - 1.0 / self.eps_w


@dataclass(frozen=True)
class QuadratureRule:
    """Symmetric quadrature on a triangle.

    ``barycentric`` holds the node coordinates, ``fractions`` the weight
    of each node as a fraction of the triangle area (so per-triangle
    weights always sum to the area).
    """

    name: str
    barycentric: tuple
    fractions: tuple


CENTROID_1PT = QuadratureRule(
    "centroid_1pt",
    ((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),),
    (1.0,),
)

SYMMETRIC_3PT = QuadratureRule(
    "symmetric_3pt",
    (
        (2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0),
        (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0),
        (1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0),
    ),
    (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
)

_RULES = {
    "centroid_1pt": CENTROID_1PT,
    "1pt": CENTROID_1PT,
    "symmetric_3pt": SYMMETRIC_3PT,
    "3pt": SYMMETRIC_3PT,
}


def quadrature_rule(name) -> QuadratureRule:
    if isinstance(name, QuadratureRule):
        return name
    try:
        return _RULES[name]
    except KeyError:
        raise ValueError(
            f"unknown quadrature rule {name!r}; expected one of {sorted(_RULES)}"
        ) from None


def mesh_quadrature(mesh: TriangleMesh, rule=CENTROID_1PT):
    """Quadrature nodes, weights and outward unit normals for a mesh.

    Returns (nodes (K, 3), weights (K,), normals (K, 3)) where K is the
    number of live triangles times the rule's node count. Weights per
    triangle sum to the triangle area.
    """
    rule = quadrature_rule(rule)
    tris = mesh.live_triangle_array()
    a = mesh.vertices[tris[:, 0]]
    b = mesh.vertices[tris[:, 1]]
    c = mesh.vertices[tris[:, 2]]
    n = np.cross(b - a, c - a)
    double_area = np.linalg.norm(n, axis=1)
    if (double_area <= 2.0 * EPS_AREA).any():
        bad = int(np.argmax(double_area <= 2.0 * EPS_AREA))
        raise DegenerateTriangle(
            f"triangle {mesh.live_triangle_ids()[bad]} is degenerate"
        )
    normals = n / double_area[:, None]
    area = 0.5 * double_area

    nodes = []
    weights = []
    node_normals = []
    for (ba, bb, bc), frac in zip(rule.barycentric, rule.fractions):
        nodes.append(ba * a + bb * b + bc * c)
        weights.append(frac * area)
        node_normals.append(normals)
    return (
        np.concatenate(nodes),
        np.concatenate(weights),
        np.concatenate(node_normals),
    )


def born_radii(mesh: TriangleMesh, atoms, rule=CENTROID_1PT, eps_dist=EPS_DIST):
    """Effective Born radii from the surface flux quadrature.

    The inverse radius of each atom is the quadrature sum of
    (r - x) . n(r) / |r - x|^4 over the surface, divided by 4 pi; for a
    sphere of radius R centered on the atom it integrates to exactly
    1/R. Requires the mesh closed and outward-oriented and every atom
    strictly inside.

    Fills each atom's ``born_radius`` slot and returns the radii array.
    Raises ``AtomTooCloseToSurface`` if a quadrature node falls within
    ``eps_dist`` of an atom, ``NonPositiveIntegral`` (listing the atom
    indices) if any integral is non-positive.
    """
    nodes, weights, normals = mesh_quadrature(mesh, rule)
    inv_4pi = 1.0 / (4.0 * math.pi)
    radii = np.empty(len(atoms))
    bad = []
    eps2 = eps_dist * eps_dist
    for i, atom in enumerate(atoms):
        d = nodes - atom.center
        r2 = np.einsum("kj,kj->k", d, d)
        if (r2 < eps2).any():
            raise AtomTooCloseToSurface(i, math.sqrt(float(r2.min())))
        flux = np.einsum("kj,kj->k", d, normals) * weights / (r2 * r2)
        integral = inv_4pi * float(flux.sum())
        if integral <= 0.0:
            bad.append(i)
            radii[i] = math.nan
        else:
            radii[i] = 1.0 / integral
    if bad:
        raise NonPositiveIntegral(bad)
    for atom, r in zip(atoms, radii.tolist()):
        atom.born_radius = r
    return radii


def g_pol(atoms, params: GBParams = GBParams(), radii=None) -> float:
    """Generalized Born polarization energy in raw units (e^2/A * tau).

    Sums the screened pair interaction over all ordered pairs including
    the self terms, so a single atom gives exactly -tau q^2 / (2 R).
    The final reduction uses exact summation, making the result
    independent of atom ordering.
    """
    if radii is None:
        radii = [a.born_radius for a in atoms]
    r = np.asarray(radii, dtype=float).reshape(-1)
    if len(r) != len(atoms):
        raise ValueError("radii length does not match atoms")
    for i, v in enumerate(r.tolist()):
        if not math.isfinite(v) or v <= 0.0:
            raise InvalidRadius(i, v)
    if len(atoms) == 0:
        return 0.0
    tau = params.tau
    if tau == 0.0:
        return 0.0
    centers = np.array([a.center for a in atoms])
    charges = np.array([a.charge for a in atoms])
    # rows of about 2**18 pair terms at a time bound the scratch memory;
    # fsum is exactly rounded, so the blocking cannot change the result
    step = max(1, 2**18 // len(r))

    def blocks():
        for start in range(0, len(r), step):
            rows = slice(start, start + step)
            diff = centers[rows, None, :] - centers[None, :, :]
            r2 = np.einsum("ijk,ijk->ij", diff, diff)
            rr = np.outer(r[rows], r)
            denom = np.sqrt(r2 + rr * np.exp(-r2 / (4.0 * rr)))
            yield (np.outer(charges[rows], charges) / denom).ravel().tolist()

    return -0.5 * tau * math.fsum(itertools.chain.from_iterable(blocks()))


def surface_area(mesh: TriangleMesh) -> float:
    """Total area of the live triangles (A^2)."""
    tris = mesh.live_triangle_array()
    if len(tris) == 0:
        return 0.0
    a = mesh.vertices[tris[:, 0]]
    b = mesh.vertices[tris[:, 1]]
    c = mesh.vertices[tris[:, 2]]
    return float(0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1).sum())


def nonpolar_energy(mesh: TriangleMesh, gamma=0.005) -> float:
    """Placeholder non-polar term: gamma * surface area.

    A conventional surface-tension estimate (gamma in raw energy units
    per A^2), provided so reports can carry a complete energy row; it is
    not a calibrated cavity/dispersion model.
    """
    return gamma * surface_area(mesh)

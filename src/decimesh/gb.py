"""Generalized Born solvation energetics on a triangulated surface.

Effective Born radii come from a surface quadrature of the inverse
fourth-power flux integrand over the closed molecular boundary; the
polarization energy is the standard screened pairwise sum over atoms.
That sum is exact before its one rounding: the pair matrix is
symmetric, so only its upper triangle is evaluated, and the terms are
added as integer mantissa halves in per-exponent bins (a small
superaccumulator; R. M. Neal, arXiv:1505.05571), which gives the same
correctly rounded result as ``math.fsum`` of all N^2 terms.

Units: lengths in Angstroms, charges in elementary charges. The raw
energy unit is then e^2/A scaled by the dielectric contrast tau;
multiply by ``KCAL_PER_E2_ANGSTROM`` for kcal/mol. The conversion is
never applied implicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    AtomTooCloseToSurface,
    DegenerateTriangle,
    InvalidCharge,
    InvalidConfig,
    InvalidRadius,
    NonPositiveIntegral,
    NumericalError,
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

    Works on the node and normal coordinates as (3, K) rows, one atom
    at a time. Both dot products add their three products in the fixed
    order ``(x + z) + y``, the order ``np.einsum("kj,kj->k")`` uses on
    numpy 2.4, and the flux terms are summed by ``ndarray.sum``.

    Fills each atom's ``born_radius`` slot and returns the radii array.
    Raises ``AtomTooCloseToSurface`` for the first atom (in list order)
    with a quadrature node within ``eps_dist``, ``NonPositiveIntegral``
    (listing the atom indices) if any integral is non-positive.
    """
    nodes, weights, normals = mesh_quadrature(mesh, rule)
    nx, ny, nz = np.ascontiguousarray(nodes.T)
    mx, my, mz = np.ascontiguousarray(normals.T)
    inv_4pi = 1.0 / (4.0 * math.pi)
    radii = np.empty(len(atoms))
    bad = []
    eps2 = eps_dist * eps_dist
    for i, atom in enumerate(atoms):
        cx, cy, cz = atom.center.tolist()
        dx = nx - cx
        dy = ny - cy
        dz = nz - cz
        r2 = (dx * dx + dz * dz) + dy * dy
        if (r2 < eps2).any():
            raise AtomTooCloseToSurface(i, math.sqrt(float(r2.min())))
        flux = ((dx * mx + dz * mz) + dy * my) * weights / (r2 * r2)
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


# Pair terms per row block of g_pol. Blocks this small hold its scratch
# memory near 5 MB and ran faster than 2**18 at 10^4 atoms; any size up
# to 2**26 keeps each block's bin sums of mantissa halves below 2**53,
# so exact in float64 (and the int64 totals for up to 2**36 terms a bin).
_BLOCK_TERMS = 2**16
# frexp exponents run from -1073 (smallest subnormal) to 1024; bin k holds
# exponent k - _EXP_OFFSET, and integer mantissas carry 53 bits.
_EXP_OFFSET = 1074
_N_BINS = _EXP_OFFSET + 1025
_UNIT = 1 << (_EXP_OFFSET + 53)


def _exact_bins(terms):
    """Exact sum of float ``terms`` as (2, _N_BINS) int64 bins (high,
    low) by exponent: the sum is ``sum((high[k] * 2**26 + low[k]) *
    2**k) / _UNIT``. Each 53-bit integer mantissa is split into a 27-bit
    and a 26-bit half, and ``np.bincount`` adds the halves per exponent
    in float64, exactly for up to 2**26 terms. Raises ``NumericalError``
    if a term is not finite."""
    m, e = np.frexp(terms)
    high = np.trunc(m * 2.0**27)
    low = m * 2.0**53 - high * 2.0**26
    e += _EXP_OFFSET
    sums = np.array([np.bincount(e, high, _N_BINS), np.bincount(e, low, _N_BINS)])
    if not np.isfinite(sums).all():
        raise NumericalError("a G_pol pair term is not finite")
    return sums.astype(np.int64)


def _pair_terms(centers, r, charges, rows, cols):
    """The screened pair terms q_i q_j / f_GB(i, j) of a block of rows
    and columns of the pair matrix; a function of its own, so that its
    scratch arrays are freed before the terms are summed."""
    diff = centers[rows, None, :] - centers[None, cols, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    rr = np.outer(r[rows], r[cols])
    denom = np.sqrt(r2 + rr * np.exp(-r2 / (4.0 * rr)))
    return np.outer(charges[rows], charges[cols]) / denom


def g_pol(atoms, params: GBParams = GBParams(), radii=None) -> float:
    """Generalized Born polarization energy in raw units (e^2/A * tau).

    Sums the screened pair interaction over all ordered pairs including
    the self terms, so a single atom gives exactly -tau q^2 / (2 R).

    Each pair term is bitwise symmetric in i and j (the difference
    negates exactly, the products commute), so only the terms with
    j >= i are evaluated, in row blocks of about 2**16. The diagonal and
    the strict upper triangle are summed exactly into per-exponent
    integer bins, and ``diag + 2 * upper`` is rounded once: the result
    is the correctly rounded sum of all N^2 terms, as ``math.fsum`` of
    them gives, independent of atom order and blocking. An exactly zero
    sum is +0.0, so the energy is -0.0 when tau > 0.

    Raises ``InvalidRadius`` or ``InvalidCharge`` (naming the first bad
    atom) before any work, and ``NumericalError`` if a pair term or the
    energy is not finite.
    """
    if radii is None:
        radii = [a.born_radius for a in atoms]
    r = np.asarray(radii, dtype=float).reshape(-1)
    if len(r) != len(atoms):
        raise ValueError("radii length does not match atoms")
    for i, v in enumerate(r.tolist()):
        if not math.isfinite(v) or v <= 0.0:
            raise InvalidRadius(i, v)
    charges = np.array([a.charge for a in atoms], dtype=float)
    for i, q in enumerate(charges.tolist()):
        if not math.isfinite(q):
            raise InvalidCharge(i, q)
    n = len(r)
    if n == 0:
        return 0.0
    tau = params.tau
    if tau == 0.0:
        return 0.0
    centers = np.array([a.center for a in atoms])
    # (diagonal, strict upper triangle) x (high, low) exponent bins
    bins = np.zeros((2, 2, _N_BINS), dtype=np.int64)
    start = 0
    # a non-finite term raises NumericalError from _exact_bins instead
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while start < n:
            rows = slice(start, start + max(1, _BLOCK_TERMS // (n - start)))
            cols = slice(start, n)
            terms = _pair_terms(centers, r, charges, rows, cols)
            b = len(terms)
            square = terms[:, :b]
            bins[0] += _exact_bins(square.diagonal())
            # each pair below the diagonal repeats one above it
            np.copyto(square, 0.0, where=np.tri(b, dtype=bool))
            bins[1] += _exact_bins(terms.ravel())
            start += b
    used = np.flatnonzero(bins.any(axis=(0, 1)))
    (dh, dl), (uh, ul) = bins[:, :, used].tolist()
    total = 0
    for k, d_high, d_low, u_high, u_low in zip(used.tolist(), dh, dl, uh, ul):
        total += (((d_high + 2 * u_high) << 26) + d_low + 2 * u_low) << k
    try:
        energy = -0.5 * tau * (total / _UNIT)
    except OverflowError:
        energy = math.inf
    if not math.isfinite(energy):
        raise NumericalError("G_pol is not finite")
    return energy


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

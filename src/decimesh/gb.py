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

from . import blocks
from .errors import (
    AtomTooCloseToSurface,
    DegenerateTriangle,
    InvalidAtom,
    InvalidCharge,
    InvalidConfig,
    InvalidRadius,
    NonPositiveIntegral,
    NumericalError,
    RadiiMismatch,
    _check_real,
)
from .geometry import EPS_AREA, triangle_normal
from .mesh import TriangleMesh

# Coulomb constant in (kcal/mol) * Angstrom / e^2.
KCAL_PER_E2_ANGSTROM = 332.06

# Quadrature nodes closer to an atom than this (Angstroms) abort the
# radius computation: a clamped 1/r^4 term would silently corrupt the
# energy downstream.
EPS_DIST = 1e-6

# Default surface tension of the placeholder non-polar term, in raw
# energy units per A^2 (see :func:`nonpolar_energy`).
GAMMA = 0.005


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
        try:
            self.center = np.asarray(self.center, dtype=float).reshape(3)
        except (TypeError, ValueError):
            raise InvalidAtom(f"atom center must be 3 coordinates, got {self.center!r}") from None
        if not np.isfinite(self.center).all():
            raise InvalidAtom(f"atom center must be finite, got {self.center.tolist()}")


@dataclass(frozen=True)
class GBParams:
    """Dielectric constants of solute (eps_p) and solvent (eps_w)."""

    eps_p: float = 1.0
    eps_w: float = 80.0

    def __post_init__(self):
        _check_real("eps_p", self.eps_p, positive=True, finite=False)
        _check_real("eps_w", self.eps_w, positive=True, finite=False)

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
        raise InvalidConfig(
            f"unknown quadrature rule {name!r}; expected one of {sorted(_RULES)}"
        ) from None


def mesh_quadrature(mesh: TriangleMesh, rule=CENTROID_1PT):
    """Quadrature nodes, weights and outward unit normals for a mesh.

    Returns (nodes (K, 3), weights (K,), normals (K, 3)) where K is the
    number of live triangles times the rule's node count. Weights per
    triangle sum to the triangle area. Nodes and normals are transposed
    views of coordinate-first (3, K) arrays, the layout
    :func:`born_radii` reads.
    """
    rule = quadrature_rule(rule)
    a, b, c = mesh.vertices.T.take(mesh.live_triangle_array().T, axis=1).swapaxes(0, 1)
    n, double_area = triangle_normal(a, b, c, np.sqrt)
    if (double_area <= 2.0 * EPS_AREA).any():
        bad = int(np.argmax(double_area <= 2.0 * EPS_AREA))
        raise DegenerateTriangle(
            f"triangle {mesh.live_triangle_ids()[bad]} is degenerate"
        )
    normals = np.array(n) / double_area
    area = 0.5 * double_area

    nodes = []
    weights = []
    for (ba, bb, bc), frac in zip(rule.barycentric, rule.fractions):
        nodes.append(ba * a + bb * b + bc * c)
        weights.append(frac * area)
    return (
        np.concatenate(nodes, axis=1).T,
        np.concatenate(weights),
        np.concatenate([normals] * len(weights), axis=1).T,
    )


def born_radii(mesh: TriangleMesh, atoms, rule=CENTROID_1PT):
    """Effective Born radii from the surface flux quadrature.

    The inverse radius of each atom is the quadrature sum of
    (r - x) . n(r) / |r - x|^4 over the surface, divided by 4 pi; for a
    sphere of radius R centered on the atom it integrates to exactly
    1/R. Requires the mesh closed and outward-oriented and every atom
    strictly inside.

    Works on blocks of atoms against the node and normal coordinates as
    (3, K) rows: a (B, K) array per block of at most ``blocks.BUDGET``
    node-atom pairs, the blocks shared out over the cores. Both dot
    products add their three products in the fixed order ``(x + z) + y``,
    the order ``np.einsum("kj,kj->k")`` uses on numpy 2.4, and each row
    of flux terms is summed by ``ndarray.sum(axis=1)``, which on numpy
    2.4 gives the bits of the 1-D sum of that row. So each radius is its
    own row sum, the same bits on any block size or core count.

    Fills each atom's ``born_radius`` slot and returns the radii array.
    Raises ``AtomTooCloseToSurface`` for the first atom (in list order)
    with a quadrature node within ``EPS_DIST``, ``NonPositiveIntegral``
    (listing the atom indices) if any integral is non-positive.
    """
    nodes, weights, normals = mesh_quadrature(mesh, rule)
    n = len(atoms)
    if n == 0:
        return np.empty(0)
    if len(weights) == 0:
        # every integral over an empty surface is 0
        raise NonPositiveIntegral(list(range(n)))
    nodes = np.ascontiguousarray(nodes.T)
    normals = np.ascontiguousarray(normals.T)
    centers = np.array([a.center for a in atoms])
    bounds = list(blocks.term_blocks(len(weights) * np.arange(1, n + 1)))
    rows = bounds[0][1]  # the first block is the longest
    sums = np.empty(n)
    # the least squared node distance of each atom in a block that has
    # one within EPS_DIST; +inf elsewhere
    near = np.full(n, math.inf)
    eps2 = EPS_DIST * EPS_DIST

    def work(draws, scratch):
        for lo, hi in draws:
            _flux_sums(nodes, normals, weights, centers[lo:hi], eps2,
                       scratch[:, :hi - lo], sums[lo:hi], near[lo:hi])

    blocks.share_out(work, bounds, lambda: np.empty((5, rows, len(weights))))
    too_close = np.flatnonzero(near < eps2)
    if len(too_close):
        i = int(too_close[0])
        raise AtomTooCloseToSurface(i, math.sqrt(float(near[i])))
    integral = (1.0 / (4.0 * math.pi)) * sums
    bad = integral <= 0.0
    if bad.any():
        raise NonPositiveIntegral(np.flatnonzero(bad).tolist())
    radii = 1.0 / integral
    for atom, r in zip(atoms, radii.tolist()):
        atom.born_radius = r
    return radii


def _flux_sums(nodes, normals, weights, centers, eps2, scratch, sums, near):
    """The flux sums of one block of atoms into ``sums``, in the five
    (B, K) arrays of ``scratch``. If a node lies within sqrt(eps2) of an
    atom of the block, the block's least squared distances go to
    ``near`` instead and no sum is formed."""
    dx, dy, dz, r2, t = scratch
    for d, x, c in zip((dx, dy, dz), nodes, centers.T):
        np.subtract(x, c[:, None], out=d)
    # r2 = (dx * dx + dz * dz) + dy * dy
    np.multiply(dx, dx, out=r2)
    r2 += np.multiply(dz, dz, out=t)
    r2 += np.multiply(dy, dy, out=t)
    # with finite nodes and centres r2 holds no NaN, so its least
    # element tells whether any is below eps2
    if r2.min() < eps2:
        near[:] = r2.min(axis=1)
        return
    mx, my, mz = normals
    # flux = ((dx * mx + dz * mz) + dy * my) * weights / (r2 * r2)
    dx *= mx
    dx += np.multiply(dz, mz, out=t)
    dx += np.multiply(dy, my, out=t)
    dx *= weights
    r2 *= r2
    dx /= r2
    dx.sum(axis=1, out=sums)


# frexp exponents run from -1073 (smallest subnormal) to 1024; bin k holds
# exponent k - _EXP_OFFSET, and integer mantissas carry 53 bits. The int64
# bins hold the sums of up to 2**36 terms a bin.
_EXP_OFFSET = 1074
_N_BINS = _EXP_OFFSET + 1025
_UNIT = 1 << (_EXP_OFFSET + 53)


def _exact_bins(terms, mant, high, exp):
    """Exact sum of float ``terms`` as (2, _N_BINS) int64 bins (high,
    low) by exponent: the sum is ``sum((high[k] * 2**26 + low[k]) *
    2**k) / _UNIT``. Each 53-bit integer mantissa is split into a 27-bit
    and a 26-bit half, and ``np.bincount`` adds the halves per exponent
    in float64, exactly for up to 2**26 terms. Works in the float arrays
    ``mant`` and ``high`` and the intp array ``exp``, each at least as
    long as ``terms``. Raises ``NumericalError`` if a term is not
    finite."""
    k = len(terms)
    mant, high, exp = mant[:k], high[:k], exp[:k]
    np.frexp(terms, out=(mant, exp))
    mant *= 2.0**27
    np.trunc(mant, out=high)
    # low = m * 2**53 - high * 2**26, exactly: scaling by a power of two
    # and taking a number less its truncation are exact
    mant -= high
    mant *= 2.0**26
    exp += _EXP_OFFSET
    sums = np.array([np.bincount(exp, high, _N_BINS), np.bincount(exp, mant, _N_BINS)])
    if not np.isfinite(sums).all():
        raise NumericalError("a G_pol pair term is not finite")
    return sums.astype(np.int64)


def _pair_terms(coords, r, charges, rows, cols, scratch):
    """The screened pair terms q_i q_j / f_GB(i, j) of a block of rows
    and columns of the pair matrix, from the atom centres as (3, N)
    coordinate rows. Works in the four flat float arrays of
    ``scratch``; the (rows, cols) terms returned are a view of the
    third."""
    shape = (rows.stop - rows.start, cols.stop - cols.start)
    dx, dy, dz, rr = (a[:shape[0] * shape[1]].reshape(shape) for a in scratch)
    for d, x in zip((dx, dy, dz), coords):
        np.subtract.outer(x[rows], x[cols], out=d)
    # r2 = (dx * dx + dz * dz) + dy * dy, the order in which
    # np.einsum("ijk,ijk->ij") adds the three squares on numpy 2.4
    r2 = np.multiply(dx, dx, out=dx)
    r2 += np.multiply(dz, dz, out=dz)
    r2 += np.multiply(dy, dy, out=dy)
    np.multiply.outer(r[rows], r[cols], out=rr)
    # denom = sqrt(r2 + rr * exp(-r2 / (4 rr)))
    denom = np.negative(r2, out=dy)
    denom /= np.multiply(rr, 4.0, out=dz)
    np.exp(denom, out=denom)
    denom *= rr
    denom += r2
    np.sqrt(denom, out=denom)
    terms = np.multiply.outer(charges[rows], charges[cols], out=dz)
    terms /= denom
    return terms


def _block_bins(coords, r, charges, start, stop, scratch, exp):
    """(diagonal, strict upper triangle) x (high, low) exponent bins of
    the pair terms of rows ``start:stop`` and columns ``start:``, in the
    four flat float arrays of ``scratch`` and the intp array ``exp``."""
    n = len(r)
    # a non-finite term raises NumericalError from _exact_bins instead
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        terms = _pair_terms(coords, r, charges, slice(start, stop), slice(start, n), scratch)
        mant, high = scratch[0], scratch[1]
        b = stop - start
        square = terms[:, :b]
        diag = _exact_bins(square.diagonal(), mant, high, exp)
        # each pair below the diagonal repeats one above it
        np.copyto(square, 0.0, where=np.tri(b, dtype=bool))
        return np.array([diag, _exact_bins(terms.ravel(), mant, high, exp)])


def g_pol(atoms, params: GBParams = GBParams(), radii=None) -> float:
    """Generalized Born polarization energy in raw units (e^2/A * tau).

    Sums the screened pair interaction over all ordered pairs including
    the self terms, so a single atom gives exactly -tau q^2 / (2 R).

    Each pair term is bitwise symmetric in i and j (the difference
    negates exactly, the products commute), so only the terms with
    j >= i are evaluated, in row blocks of at most ``blocks.BUDGET``
    terms (one row at least) shared out over the cores. The diagonal and
    the strict upper triangle are summed exactly into per-exponent
    integer bins, the blocks' bins are added as integers in any order,
    and ``diag + 2 * upper`` is rounded once: the result is the correctly
    rounded sum of all N^2 terms, as ``math.fsum`` of them gives,
    independent of atom order, blocking and core count. An exactly zero
    sum is +0.0, so the energy is -0.0 when tau > 0.

    Raises ``RadiiMismatch`` if ``radii`` has the wrong length, and
    ``InvalidRadius`` or ``InvalidCharge`` (naming the first bad atom),
    all before any work, and ``NumericalError`` if a pair term or the
    energy is not finite.
    """
    if radii is None:
        radii = [a.born_radius for a in atoms]
    r = np.asarray(radii, dtype=float).reshape(-1)
    if len(r) != len(atoms):
        raise RadiiMismatch(len(r), len(atoms))
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
    coords = np.array([a.center for a in atoms]).T.copy()
    # a block is a rows x (n - start) rectangle of the pair matrix: the
    # running row widths term_blocks would cut by do not bound it (a
    # tail block would reach twice the budget)
    starts = [0]
    while starts[-1] < n:
        start = starts[-1]
        starts.append(min(n, start + max(1, blocks.BUDGET // (n - start))))
    bounds = list(zip(starts, starts[1:]))
    size = max((stop - start) * (n - start) for start, stop in bounds)

    def work(draws, scratch):
        bins = np.zeros((2, 2, _N_BINS), dtype=np.int64)
        for start, stop in draws:
            bins += _block_bins(coords, r, charges, start, stop, *scratch)
        return bins

    def scratch():
        return np.empty((4, size)), np.empty(size, dtype=np.intp)

    bins = sum(blocks.share_out(work, bounds, scratch))
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
    a, b, c = mesh.vertices.T.take(mesh.live_triangle_array().T, axis=1).swapaxes(0, 1)
    return float(0.5 * triangle_normal(a, b, c, np.sqrt)[1].sum())


def nonpolar_energy(mesh: TriangleMesh, gamma=GAMMA) -> float:
    """Placeholder non-polar term: gamma * surface area.

    A conventional surface-tension estimate (gamma in raw energy units
    per A^2), provided so reports can carry a complete energy row; it is
    not a calibrated cavity/dispersion model. A gamma that is not finite
    and nonnegative raises ``InvalidConfig``.
    """
    _check_real("gamma", gamma, positive=False)
    return gamma * surface_area(mesh)

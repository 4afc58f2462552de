"""Edge-collapse cost functions and their placement policies.

Four costs are provided, each as a plain function of an edge star, a
candidate placement and (for the atom-aware cost) nearby atom centers.
:func:`placement_for` scores its candidates with them, and the tests
and benchmark checks hold the Decimator's batched engine below to them:

- ``qe``: combined vertex quadrics (squared plane distances).
- ``vol``: squared signed tetrahedron volumes over the incident
  triangles, which weights plane distances by squared triangle area.
- ``pb``: change in summed triangle quality over the non-adjacent star
  triangles; guards quadrature-point spacing for boundary-integral
  solvers whose kernels blow up as 1/r.
- ``gb`` / ``gb_qe``: a short-edge (or quadric) term plus a weighted
  cumulative change in centroid-to-atom squared distances, guarding
  surface-integral Born radii.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from itertools import starmap
from typing import NamedTuple, Optional

import numpy as np

from . import blocks
from .errors import (
    CandidateInfeasible,
    DegenerateTriangle,
    InvalidConfig,
    InvalidInput,
    _check_real,
    _check_whole,
)
from .geometry import centroid as geometry_centroid
from .geometry import _squared_side, cross, dist, dot, midpoint, sub
from .geometry import triangle_quality, triangle_quality_array
from .grid import grid_build
from .mesh import EdgeStar, edge_star
from .quadrics import (
    Quadric,
    f_qe,
    first_cheapest,
    minimize_quadric,
    packed_outer,
    vertex_quadric,
)

COST_KINDS = ("qe", "vol", "pb", "gb", "gb_qe")

GB_VARIANTS = ("edge_length", "qe_term")


@dataclass(frozen=True)
class GbCostParams:
    """Parameters of the atom-aware cost.

    rho is the capture radius (Angstroms) for atom centers near either
    edge endpoint; lam weights the atomic-center term against the first
    term; variant picks that first term: the edge length, or the quadric
    cost of the placement.
    """

    rho: float = 5.0
    lam: float = 1e-8
    variant: str = "edge_length"

    def __post_init__(self):
        _check_real("rho", self.rho, positive=True)
        _check_real("lam", self.lam, positive=False)
        if self.variant not in GB_VARIANTS:
            raise InvalidConfig(f"variant must be one of {GB_VARIANTS}")


@dataclass(frozen=True)
class CollapseCandidate:
    """One queued collapse: an edge, its chosen placement and cost."""

    v1: int
    v2: int
    placement: tuple
    cost: float
    cost_kind: str
    version: int = 0


# --- volumetric cost --------------------------------------------------------


def _volume_row(a, b, c):
    """Row G with G . [v, 1] = det(a-v, b-v, c-v), i.e. 6x the signed
    volume of the tetrahedron (v, a, b, c) up to orientation. Corners
    may be coordinate-first arrays, for a row per column."""
    n = cross(sub(b, a), sub(c, a))
    d = dot(a, cross(b, c))
    return (-n[0], -n[1], -n[2], d)


def vol_quadric(star: EdgeStar) -> Quadric:
    """Quadratic form (1/36) sum G^T G over every triangle incident to
    either endpoint, wings included; evaluating it at v gives the sum of
    squared signed tet volumes of v over those triangles."""
    q = Quadric.from_planes(starmap(_volume_row, star.all_triangles_before()))
    s = 1.0 / 36.0
    return Quadric._make([s * x for x in q])


def f_vol(star: EdgeStar, vbar) -> float:
    """Volume-preservation collapse cost at placement vbar."""
    return vol_quadric(star).evaluate(vbar)


# --- triangle-quality cost --------------------------------------------------


def ring_qualities(star: EdgeStar):
    """Quality of each non-adjacent star triangle before the collapse."""
    return [triangle_quality(a, b, c) for (a, b, c) in star.ring_triangles_before()]


def f_pb(star: EdgeStar, vbar) -> float:
    """Summed quality change of the non-adjacent star triangles.

    Negative values mean the collapse improves element quality. Raises
    ``DegenerateTriangle`` when the placement flattens any surviving
    triangle; callers treat that as an infeasible candidate. A ring whose
    apex already sits at vbar keeps its triangles, so its exactly-zero
    terms are skipped.
    """
    vbar = tuple(vbar)
    total = 0.0
    for (apex, u, w), before in zip(star.ring_triangles_before(), ring_qualities(star)):
        if apex != vbar:
            total += triangle_quality(vbar, u, w) - before
    return total


# --- the batched candidate engine -------------------------------------------
#
# The Decimator scores a whole chunk of edges at once, each kind on the
# one (3, 4, E) ``quadrics.candidate_set`` {midpoint, v1, v2, quadric
# point} that ``minimize_packed`` returns, with a NaN fourth point where
# an endpoint has no quadric; ``first_cheapest`` picks. vol, gb and
# gb_qe read only sums over each star's triangles and atoms, which it
# keeps per vertex (from :func:`volume_rows` and
# :func:`triangle_centroids`); they add in another order than the scalar
# oracles walk the star, so these costs agree with ``placement_for`` up
# to rounding. pb walks each star and agrees up to the last bits of
# ``arccos``.


def volume_rows(vertices, tris):
    """Packed ``G^T G`` of each (T, 3) triangle row, with G the
    :func:`_volume_row` of its corners in row order: 36 times the term
    the triangle adds to :func:`vol_quadric`, up to rounding."""
    p = vertices[tris].T
    return packed_outer(np.array(_volume_row(p[:, 0], p[:, 1], p[:, 2])))


def triangle_centroids(vertices, tris):
    """``geometry.centroid`` of each (T, 3) triangle row's corners in
    row order, as a (T, 3) array."""
    p = vertices[tris].T
    return np.array(geometry_centroid(p[:, 0], p[:, 1], p[:, 2])).T


def pb_placements(vertices, stars, cands):
    """``placement_for("pb", ...)`` for a chunk of stars and their
    (3, 4, E) candidates in one numpy pass: (points (E, 3), costs (E,)),
    cost ``inf`` where no candidate survives."""
    return first_cheapest(cands, pb_candidate_costs(vertices, stars, cands))


def pb_candidate_costs(vertices, stars, cands):
    """:func:`f_pb` of the (3, 4, E) candidates of every star, batched.

    Evaluates every ring triangle before the collapse and at each
    candidate together, in one call of
    :func:`geometry.triangle_quality_array` per block of whole stars,
    the array form of the :func:`geometry.triangle_quality` that
    :func:`f_pb` sums. A block's ring triangles times those five apexes
    number at most ``blocks.BUDGET`` (a block holds one star at
    least), so the working memory does not grow with the number of
    stars. The sums run upper ring then lower, term by term, as in
    :func:`f_pb`, and an endpoint candidate skips the ring it leaves
    unchanged, so those terms are exactly zero. Returns the (4, E)
    costs, ``inf`` for a candidate that flattens a ring triangle and
    for every candidate of a star that is already flat (where the
    scalar path raises). Agrees with :func:`f_pb` up to the last bits
    of ``arccos``.
    """
    costs = np.empty((4, len(stars)))
    # whole stars per block, by their ring triangles
    terms = 5 * np.cumsum([len(star.upper) + len(star.lower) - 2 for star in stars])
    for start, stop in blocks.term_blocks(terms):
        costs[:, start:stop] = _pb_block_costs(vertices, stars[start:stop],
                                               cands[:, :, start:stop])
    return costs


def _pb_block_costs(vertices, stars, cands):
    """The (4, E) costs of :func:`pb_candidate_costs` for one block of
    stars and their (3, 4, E) candidates."""
    n_edges = len(stars)
    # one gather of the ring paths, upper then lower per edge; ring
    # triangle k spans a path vertex and the next one on its path, which
    # is 2e for the upper ring of edge e and 2e + 1 for its lower ring,
    # with apex p2 on the upper ring and p1 on the lower
    paths = [v for star in stars for v in (*star.upper, *star.lower)]
    lengths = np.array([len(p) for star in stars for p in (star.upper, star.lower)])
    path_pts = vertices.take(np.array(paths), axis=0).T.copy()
    starts = np.ones(len(paths), dtype=bool)
    starts[np.cumsum(lengths) - 1] = False
    starts = np.flatnonzero(starts)
    path = np.repeat(np.arange(2 * n_edges), lengths - 1)
    owner = path >> 1

    # apex before the collapse, then at each candidate: (3, 5, T)
    apex = np.empty((3, 5, len(path)))
    apex[:, 0] = cands[:, 2 - (path & 1), owner]  # v2 on upper rings, v1 on lower
    apex[:, 1:] = cands.take(owner, axis=2)
    q = triangle_quality_array(apex, path_pts.take(starts, axis=1),
                               path_pts.take(starts + 1, axis=1))
    terms = q[1:] - q[0]
    # a candidate equal to the ring's own apex leaves that ring unchanged
    ax, ay, az = apex
    terms[(ax[1:] == ax[0]) & (ay[1:] == ay[0]) & (az[1:] == az[0])] = 0.0

    # per edge, bincount adds the upper-ring terms and then the lower
    # ones in order, from 0.0, exactly like the scalar loop
    bins = owner + n_edges * np.arange(4)[:, None]
    costs = np.bincount(bins.ravel(), terms.ravel(), minlength=4 * n_edges)
    costs = costs.reshape(4, n_edges)
    costs[np.isnan(costs)] = np.inf
    costs[:, np.isnan(np.bincount(owner, q[0], minlength=n_edges))] = np.inf
    return costs


class StarSums(NamedTuple):
    """What the atom term reads of E edges: the centroid sums of the
    ring triangles at v2 (upper) and v1 (lower), their counts, and the
    count and center sum of the atoms within rho of either endpoint.
    :func:`f_ac` fills one with the floats of a single edge."""

    upper: np.ndarray     # (3, E)
    lower: np.ndarray     # (3, E)
    n_upper: np.ndarray   # (E,)
    n_lower: np.ndarray   # (E,)
    m: np.ndarray         # (E,)
    atom_sum: np.ndarray  # (3, E)


def gb_placements(cands, quadric_costs, sums, lam):
    """``placement_for("gb"|"gb_qe", ...)`` for E edges from their sums.

    ``cands`` and ``quadric_costs`` are ``minimize_packed``'s (3, 4, E)
    candidates and (4, E) costs for the packed endpoint sums; the costs
    are the first term for gb_qe, and for gb, None, the edge length is.
    :func:`f_ac`'s expanded form is evaluated at each candidate. Returns
    (points (E, 3), costs (E,)), cost ``inf`` where no candidate
    survives.
    """
    p1, p2 = cands[:, 1], cands[:, 2]
    with np.errstate(invalid="ignore", over="ignore"):
        atom_term = _atom_term(cands, p1, p2, sums)
        atom_term[:, sums.m == 0] = 0.0

        first = quadric_costs
        if first is None:
            first = np.broadcast_to(np.sqrt(_squared_side(p1, p2)), (4, p1.shape[1]))
        costs = first if lam == 0.0 else first + lam * atom_term
    # a NaN fourth point (no quadric) is never picked: where the cost
    # reads the point it is NaN, so inf, and elsewhere it ties the midpoint
    return first_cheapest(cands, np.where(np.isnan(costs), np.inf, costs))


# --- atomic-center cost -----------------------------------------------------


def _atom_term(vbar, p1, p2, sums):
    """:func:`f_ac`'s expanded form at vbar, from the edge's endpoints
    and :class:`StarSums`; each ring centroid moves by a third of the
    step from its apex (p2 upper, p1 lower) to vbar."""
    d2 = ((vbar[0] - p2[0]) / 3.0, (vbar[1] - p2[1]) / 3.0, (vbar[2] - p2[2]) / 3.0)
    d1 = ((vbar[0] - p1[0]) / 3.0, (vbar[1] - p1[1]) / 3.0, (vbar[2] - p1[2]) / 3.0)
    nu, nl = sums.n_upper, sums.n_lower
    # sum of (c.c - cbar.cbar) with cbar = c + shift
    sq_change = -(2.0 * (dot(d2, sums.upper) + dot(d1, sums.lower))
                  + nu * dot(d2, d2) + nl * dot(d1, d1))
    # sum of (cbar - c), dotted with the atom-center sum
    shift = (nu * d2[0] + nl * d1[0], nu * d2[1] + nl * d1[1], nu * d2[2] + nl * d1[2])
    return abs(sums.m * sq_change + 2.0 * dot(shift, sums.atom_sum))


def f_ac(star: EdgeStar, vbar, atom_positions) -> float:
    """Cumulative change in squared centroid-to-atom distances.

    ``atom_positions`` is an (m, 3) array of the atom centers within the
    capture radius of either endpoint (the caller fetches them, normally
    from the spatial grid). Each ring centroid moves by (vbar - apex)/3,
    so the expanded form is a few dot products against per-ring centroid
    sums and the atom-center sum, linear in the atom count; the
    quadratic direct form is kept in the test suite as its oracle.
    """
    m = len(atom_positions)
    if m == 0:
        return 0.0
    rings = []  # (centroid sum, triangles): upper, lower
    for apex, path in ((star.p2, star.upper_pos), (star.p1, star.lower_pos)):
        sx = sy = sz = 0.0
        for u, w in zip(path, path[1:]):
            cx, cy, cz = geometry_centroid(apex, u, w)
            sx += cx; sy += cy; sz += cz
        rings.append(((sx, sy, sz), len(path) - 1))
    (su, nu), (sl, nl) = rings
    atom_sum = tuple(np.sum(atom_positions, axis=0).tolist())
    return _atom_term(tuple(vbar), star.p1, star.p2, StarSums(su, sl, nu, nl, m, atom_sum))


def f_gb(
    star: EdgeStar,
    vbar,
    atom_positions,
    params: GbCostParams,
    q1: Optional[Quadric] = None,
    q2: Optional[Quadric] = None,
) -> float:
    """Atom-aware collapse cost: first term plus lam * f_ac.

    ``params.variant`` picks the first term: the edge length, or
    :func:`f_qe` at vbar, which needs both endpoint quadrics.
    ``atom_positions`` None means no nearby atoms.
    """
    vbar = tuple(vbar)
    if params.variant == "qe_term":
        if q1 is None or q2 is None:
            raise ValueError("qe_term variant needs both endpoint quadrics")
        first = f_qe(q1, q2, vbar)
    else:
        first = dist(star.p1, star.p2)
    if params.lam == 0.0:
        return first
    if atom_positions is None:
        atom_positions = ()
    return first + params.lam * f_ac(star, vbar, atom_positions)


# --- placement policies -----------------------------------------------------


def placement_for(
    cost_kind: str,
    star: EdgeStar,
    q1: Optional[Quadric] = None,
    q2: Optional[Quadric] = None,
    atom_positions=None,
    params: Optional[GbCostParams] = None,
):
    """Choose the placement and cost for an edge under a given cost kind.

    qe and vol minimize their quadratic forms analytically (with the
    shared fallback chain). pb and gb evaluate the discrete candidate
    set {midpoint, v1, v2, quadric-optimal point}, dropping candidates
    that flatten a triangle; ties break toward the earlier candidate in
    that order. Raises ``CandidateInfeasible`` when no candidate
    survives.
    """
    if cost_kind not in COST_KINDS:
        raise ValueError(f"unknown cost kind {cost_kind!r}")
    p1, p2 = star.p1, star.p2

    if cost_kind == "qe":
        if q1 is None or q2 is None:
            raise ValueError("qe cost needs both endpoint quadrics")
        q = q1 + q2
        point = minimize_quadric(q, p1, p2)
        return point, q.evaluate(point)

    if cost_kind == "vol":
        vq = vol_quadric(star)
        point = minimize_quadric(vq, p1, p2)
        return point, vq.evaluate(point)

    candidates = [midpoint(p1, p2), p1, p2]
    if q1 is not None and q2 is not None:
        candidates.append(minimize_quadric(q1 + q2, p1, p2))

    if cost_kind == "pb":
        try:
            ring_qualities(star)
        except DegenerateTriangle as exc:
            raise CandidateInfeasible(
                f"star of ({star.v1}, {star.v2}) has a degenerate triangle"
            ) from exc
    else:  # gb / gb_qe
        params = params or GbCostParams()
        if cost_kind == "gb_qe":
            params = replace(params, variant="qe_term")

    best, best_cost = None, math.inf
    for point in candidates:
        try:
            if cost_kind == "pb":
                c = f_pb(star, point)
            else:
                c = f_gb(star, point, atom_positions, params, q1, q2)
        except DegenerateTriangle:
            continue
        if c < best_cost:
            best, best_cost = point, c
    if best is None:
        raise CandidateInfeasible(
            f"every placement for ({star.v1}, {star.v2}) degenerates a triangle"
        )
    return best, best_cost


def estimate_lambda(mesh, atoms, params: Optional[GbCostParams] = None,
                    n_edges=1000, seed=0) -> float:
    """Data-driven weight for the atomic-center term.

    Samples random edges, evaluates the first term and f_ac at the edge
    midpoint, and returns median(first) / median(f_ac) over the samples
    with a nonzero atom term, so the two terms land on the same order of
    magnitude. Falls back to the stock default when no sampled edge sees
    a nearby atom. Raises ``InvalidConfig`` unless ``n_edges`` is a
    whole number at least 1 (``inf`` samples every edge) and
    ``InvalidInput`` for a mesh without edges.
    """
    if n_edges != math.inf:
        _check_whole("n_edges", n_edges, 1)
    if params is None:
        params = GbCostParams()
    edges = sorted(mesh.edges())
    if not edges:
        raise InvalidInput("mesh has no edges")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(edges), size=int(min(n_edges, len(edges))), replace=False)
    grid = grid_build(atoms, cell_size=params.rho)
    first_term = replace(params, lam=0.0)

    firsts, acs = [], []
    for i in picks.tolist():
        a, b = edges[i]
        star = edge_star(mesh, a, b)
        mid = midpoint(star.p1, star.p2)
        q1 = q2 = None
        if params.variant == "qe_term":
            q1, q2 = vertex_quadric(mesh, a), vertex_quadric(mesh, b)
        first = f_gb(star, mid, None, first_term, q1, q2)
        ids = grid.query_edge(star.p1, star.p2, params.rho)
        ac = f_ac(star, mid, grid.centers[list(ids)])
        if ac > 0.0:
            firsts.append(first)
            acs.append(ac)
    if not acs:
        return params.lam
    return statistics.median(firsts) / statistics.median(acs)

"""Edge-collapse cost functions and their placement policies.

Four costs are provided, all pure functions of an edge star, a candidate
placement and (for the atom-aware cost) nearby atom centers:

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

from .errors import CandidateInfeasible, DegenerateTriangle, InvalidConfig
from .geometry import centroid as geometry_centroid
from .geometry import cross, dist, dot, sub, triangle_quality, triangle_quality_array
from .mesh import EdgeStar, edge_star
from .quadrics import (
    _PACK_I,
    _PACK_J,
    Quadric,
    evaluate_packed,
    minimize_quadric,
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
        if not 0 < self.rho < math.inf:
            raise InvalidConfig(f"rho must be positive and finite, got {self.rho}")
        if not 0 <= self.lam < math.inf:
            raise InvalidConfig(f"lam must be nonnegative and finite, got {self.lam}")
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


class _QualityChangeEvaluator:
    """Per-edge evaluator of the summed ring-quality change.

    Precomputes the before-collapse qualities once; evaluations at the
    original endpoint positions skip the ring whose triangles are
    unchanged (their terms are exactly zero)."""

    def __init__(self, star: EdgeStar):
        self.star = star
        up = star.upper_pos
        lo = star.lower_pos
        p1, p2 = star.p1, star.p2
        self.before_upper = [
            triangle_quality(p2, up[i], up[i + 1]) for i in range(len(up) - 1)
        ]
        self.before_lower = [
            triangle_quality(p1, lo[i], lo[i + 1]) for i in range(len(lo) - 1)
        ]

    def __call__(self, vbar):
        star = self.star
        total = 0.0
        if vbar != star.p2:
            up = star.upper_pos
            for i, qb in enumerate(self.before_upper):
                total += triangle_quality(vbar, up[i], up[i + 1]) - qb
        if vbar != star.p1:
            lo = star.lower_pos
            for i, qb in enumerate(self.before_lower):
                total += triangle_quality(vbar, lo[i], lo[i + 1]) - qb
        return total


def f_pb(star: EdgeStar, vbar) -> float:
    """Summed quality change of the non-adjacent star triangles.

    Negative values mean the collapse improves element quality. Raises
    ``DegenerateTriangle`` when the placement flattens any surviving
    triangle; callers treat that as an infeasible candidate.
    """
    return _QualityChangeEvaluator(star)(tuple(vbar))


# --- the batched candidate engine -------------------------------------------
#
# The Decimator scores a whole chunk of edges at once. vol, gb and gb_qe
# read only sums over each star's triangles and atoms, which it keeps per
# vertex (from :func:`volume_rows` and :func:`triangle_centroids`); they
# add in another order than the scalar oracles walk the star, so these
# costs agree with ``placement_for`` up to rounding. pb walks each star
# and agrees up to the last bits of ``arccos``. An analytic candidate
# comes as an (E, 3) array with NaN rows for "none".


def volume_rows(vertices, tris):
    """Packed ``G^T G`` of each (T, 3) triangle row, with G the
    :func:`_volume_row` of its corners in row order: 36 times the term
    the triangle adds to :func:`vol_quadric`, up to rounding."""
    p = vertices[tris].T
    row = np.array(_volume_row(p[:, 0], p[:, 1], p[:, 2]))
    return (row[_PACK_I] * row[_PACK_J]).T


def triangle_centroids(vertices, tris):
    """``geometry.centroid`` of each (T, 3) triangle row's corners in
    row order, as a (T, 3) array."""
    p = vertices[tris].T
    return np.array(geometry_centroid(p[:, 0], p[:, 1], p[:, 2])).T


def _candidate_points(p1, p2, analytic):
    """(3, 4, E) candidate array {midpoint, v1, v2, analytic} per edge
    from (3, E) endpoints and (E, 3) analytic points."""
    cands = np.empty((3, 4, p1.shape[1]))
    cands[:, 1] = p1
    cands[:, 2] = p2
    cands[:, 0] = 0.5 * (cands[:, 1] + cands[:, 2])
    cands[:, 3] = np.asarray(analytic, dtype=float).reshape(-1, 3).T
    return cands


def _pick(cands, costs):
    """The first cheapest of (4, E, 3) candidates per edge, as
    ``placement_for``'s strict ``<`` picks it: (points (E, 3), costs
    (E,))."""
    pick = np.argmin(costs, axis=0)
    edge_ids = np.arange(costs.shape[1])
    return cands[pick, edge_ids], costs[pick, edge_ids]


def pb_placements(vertices, stars, analytic):
    """``placement_for("pb", ...)`` for a chunk of stars in one numpy pass.

    ``analytic`` is the (E, 3) quadric-optimal candidate of each star,
    NaN where there is none. Returns (points (E, 3), costs (E,)): the
    first cheapest of {midpoint, v1, v2, analytic} per star, with cost
    ``inf`` where no candidate survives.
    """
    return _pick(*pb_candidate_costs(vertices, stars, analytic))


def pb_candidate_costs(vertices, stars, analytic):
    """:func:`f_pb` of every candidate of every star, batched.

    Evaluates every ring triangle before the collapse and at each
    candidate {midpoint, v1, v2, analytic} together, in one call of
    :func:`geometry.triangle_quality_array`, the array form of the
    :func:`geometry.triangle_quality` that :func:`f_pb` sums. The sums
    run upper ring then lower, term by term, as in :func:`f_pb`, and an
    endpoint candidate skips the ring it leaves unchanged, so those
    terms are exactly zero. Returns (candidates (4, E, 3), costs (4, E))
    with ``inf`` for a candidate that flattens a ring triangle and for
    every candidate of a star that is already flat (where the scalar
    path raises). Agrees with :func:`f_pb` up to the last bits of
    ``arccos``.
    """
    n_edges = len(stars)
    if n_edges == 0:
        return np.empty((4, 0, 3)), np.empty((4, 0))
    # one gather of the endpoints and ring paths, upper then lower per
    # edge; ring triangle k spans a path vertex and the next one on its
    # path, which is 2e for the upper ring of edge e and 2e + 1 for its
    # lower ring, with apex p2 on the upper ring and p1 on the lower
    ids = [v for star in stars for v in (star.v1, star.v2)]
    paths = [v for star in stars for v in (*star.upper, *star.lower)]
    lengths = np.array([len(p) for star in stars for p in (star.upper, star.lower)])
    pts = vertices.take(np.array(ids + paths), axis=0).T.copy()
    ends, path_pts = pts[:, : 2 * n_edges], pts[:, 2 * n_edges:]
    starts = np.ones(len(paths), dtype=bool)
    starts[np.cumsum(lengths) - 1] = False
    starts = np.flatnonzero(starts)
    path = np.repeat(np.arange(2 * n_edges), lengths - 1)
    owner = path >> 1
    cands = _candidate_points(ends[:, 0::2], ends[:, 1::2], analytic)

    # apex before the collapse, then at each candidate: (3, 5, T)
    apex = np.empty((3, 5, len(path)))
    apex[:, 0] = ends.take(path ^ 1, axis=1)
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
    return cands.transpose(1, 2, 0), costs


class StarSums(NamedTuple):
    """What the atom term reads of E edges: the centroid sums of the
    ring triangles at v2 (upper) and v1 (lower), their counts, and the
    count and center sum of the atoms within rho of either endpoint."""

    upper: np.ndarray     # (3, E)
    lower: np.ndarray     # (3, E)
    n_upper: np.ndarray   # (E,)
    n_lower: np.ndarray   # (E,)
    m: np.ndarray         # (E,)
    atom_sum: np.ndarray  # (3, E)


def gb_placements(p1, p2, analytic, q, sums, lam, quadric_first):
    """``placement_for("gb"|"gb_qe", ...)`` for E edges from their sums.

    ``p1``, ``p2`` are the (3, E) endpoints and ``analytic`` the (E, 3)
    ``minimize_quadric`` point of the (E, 10) packed endpoint sums
    ``q``. ``quadric_first`` picks the first term: the quadric cost
    (gb_qe; infeasible without quadrics) or the edge length (gb).
    :class:`_AtomTermEvaluator`'s expression is evaluated at {midpoint,
    v1, v2, analytic}. Returns (points (E, 3), costs (E,)), cost ``inf``
    where no candidate survives.
    """
    cands = _candidate_points(p1, p2, analytic)
    with np.errstate(invalid="ignore", over="ignore"):
        d2 = (cands - p2[:, None]) / 3.0
        d1 = (cands - p1[:, None]) / 3.0
        sq_change = -(
            2.0 * (dot(d2, sums.upper) + dot(d1, sums.lower))
            + sums.n_upper * dot(d2, d2) + sums.n_lower * dot(d1, d1)
        )
        shift = sums.n_upper * d2 + sums.n_lower * d1
        atom_term = np.abs(sums.m * sq_change + 2.0 * dot(shift, sums.atom_sum))
        atom_term[:, sums.m == 0] = 0.0

        if quadric_first:
            first = evaluate_packed(q, *cands)
        else:
            dx, dy, dz = p1 - p2
            first = np.broadcast_to(np.sqrt(dx * dx + dy * dy + dz * dz), (4, p1.shape[1]))
        costs = first if lam == 0.0 else first + lam * atom_term
    costs = np.where(np.isnan(costs), np.inf, costs)
    # no analytic point: no quadric, so gb_qe has no candidate at all
    costs[slice(None) if quadric_first else 3, np.isnan(cands[0, 3])] = np.inf
    return _pick(cands.transpose(1, 2, 0), costs)


# --- atomic-center cost -----------------------------------------------------


class _AtomTermEvaluator:
    """Per-edge evaluator of the cumulative squared-distance change.

    Using that each after-centroid is its before-centroid shifted by
    (vbar - apex)/3, the expanded form collapses to a handful of dot
    products against per-ring centroid sums and the atom-center sum, so
    one evaluation is O(1) after an O(triangles + atoms) setup.
    """

    def __init__(self, star: EdgeStar, atom_positions):
        self.star = star
        self.m = len(atom_positions)
        if self.m == 0:
            return
        s = np.sum(atom_positions, axis=0)
        self.atom_sum = (float(s[0]), float(s[1]), float(s[2]))
        up = star.upper_pos
        lo = star.lower_pos
        p1, p2 = star.p1, star.p2
        sux = suy = suz = 0.0
        for i in range(len(up) - 1):
            cx, cy, cz = geometry_centroid(p2, up[i], up[i + 1])
            sux += cx; suy += cy; suz += cz
        slx = sly = slz = 0.0
        for i in range(len(lo) - 1):
            cx, cy, cz = geometry_centroid(p1, lo[i], lo[i + 1])
            slx += cx; sly += cy; slz += cz
        self.upper_centroid_sum = (sux, suy, suz)
        self.lower_centroid_sum = (slx, sly, slz)
        self.n_upper_tris = len(up) - 1
        self.n_lower_tris = len(lo) - 1

    def __call__(self, vbar):
        if self.m == 0:
            return 0.0
        star = self.star
        d2 = (
            (vbar[0] - star.p2[0]) / 3.0,
            (vbar[1] - star.p2[1]) / 3.0,
            (vbar[2] - star.p2[2]) / 3.0,
        )
        d1 = (
            (vbar[0] - star.p1[0]) / 3.0,
            (vbar[1] - star.p1[1]) / 3.0,
            (vbar[2] - star.p1[2]) / 3.0,
        )
        nu = self.n_upper_tris
        nl = self.n_lower_tris
        # sum of (c.c - cbar.cbar) with cbar = c + delta
        sq_change = -(
            2.0 * (dot(d2, self.upper_centroid_sum) + dot(d1, self.lower_centroid_sum))
            + nu * dot(d2, d2) + nl * dot(d1, d1)
        )
        # sum of (cbar - c), dotted with the atom-center sum
        shift = (
            nu * d2[0] + nl * d1[0],
            nu * d2[1] + nl * d1[1],
            nu * d2[2] + nl * d1[2],
        )
        return abs(self.m * sq_change + 2.0 * dot(shift, self.atom_sum))


def f_ac(star: EdgeStar, vbar, atom_positions) -> float:
    """Cumulative change in squared centroid-to-atom distances.

    ``atom_positions`` is an (m, 3) array of the atom centers within the
    capture radius of either endpoint (the caller fetches them, normally
    from the spatial grid). Uses the expanded form, linear in the atom
    count; the quadratic direct form is kept in the test suite as its
    oracle.
    """
    return _AtomTermEvaluator(star, atom_positions)(tuple(vbar))


def f_gb(
    star: EdgeStar,
    vbar,
    atom_positions,
    params: GbCostParams,
    q1: Optional[Quadric] = None,
    q2: Optional[Quadric] = None,
) -> float:
    """Atom-aware collapse cost: first term plus lam * f_ac."""
    q = q1 + q2 if q1 is not None and q2 is not None else None
    return _gb_evaluator(star, atom_positions, params, q)(tuple(vbar))


def _gb_evaluator(star, atom_positions, params, q):
    """Per-edge closure for f_gb with the atom term precomputed; ``q`` is
    the combined endpoint quadric or None."""
    if atom_positions is None:
        atom_positions = np.empty((0, 3))
    atom_term = _AtomTermEvaluator(star, atom_positions)
    lam = params.lam
    if params.variant == "qe_term":
        if q is None:
            raise ValueError("qe_term variant needs both endpoint quadrics")
        if lam == 0.0:
            return q.evaluate
        return lambda vbar: q.evaluate(vbar) + lam * atom_term(vbar)
    edge_len = dist(star.p1, star.p2)
    if lam == 0.0:
        return lambda vbar: edge_len
    return lambda vbar: edge_len + lam * atom_term(vbar)


# --- placement policies -----------------------------------------------------


def _midpoint(p1, p2):
    return (0.5 * (p1[0] + p2[0]), 0.5 * (p1[1] + p2[1]), 0.5 * (p1[2] + p2[2]))


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

    candidates = [_midpoint(p1, p2), p1, p2]
    q = None
    if q1 is not None and q2 is not None:
        q = q1 + q2
        candidates.append(minimize_quadric(q, p1, p2))

    if cost_kind == "pb":
        try:
            evaluate = _QualityChangeEvaluator(star)
        except DegenerateTriangle as exc:
            raise CandidateInfeasible(
                f"star of ({star.v1}, {star.v2}) has a degenerate triangle"
            ) from exc
    else:  # gb / gb_qe
        if params is None:
            params = GbCostParams()
        if cost_kind == "gb_qe" and params.variant != "qe_term":
            params = GbCostParams(rho=params.rho, lam=params.lam, variant="qe_term")
        evaluate = _gb_evaluator(star, atom_positions, params, q)

    best = None
    best_cost = math.inf
    for point in candidates:
        try:
            c = evaluate(point)
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
    a nearby atom.
    """
    from .grid import grid_build, grid_query_edge

    if params is None:
        params = GbCostParams()
    edges = sorted(mesh.edges())
    if not edges:
        raise ValueError("mesh has no edges")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(edges), size=min(n_edges, len(edges)), replace=False)
    grid = grid_build(atoms, cell_size=params.rho)
    first_term = replace(params, lam=0.0)

    firsts, acs = [], []
    for i in picks.tolist():
        a, b = edges[i]
        star = edge_star(mesh, a, b)
        mid = _midpoint(star.p1, star.p2)
        q1 = q2 = None
        if params.variant == "qe_term":
            q1, q2 = vertex_quadric(mesh, a), vertex_quadric(mesh, b)
        first = f_gb(star, mid, None, first_term, q1, q2)
        ids = grid_query_edge(grid, star.p1, star.p2, params.rho)
        ac = f_ac(star, mid, grid.centers[list(ids)])
        if ac > 0.0:
            firsts.append(first)
            acs.append(ac)
    if not acs:
        return params.lam
    return statistics.median(firsts) / statistics.median(acs)

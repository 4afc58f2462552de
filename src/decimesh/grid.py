"""Uniform cell grid for radius queries over atom centers.

Candidate cells give a superset; every query filters exactly, so results
equal a brute-force linear scan (closed balls: distance exactly equal to
the radius is included).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InvalidAtom, InvalidConfig


@functools.lru_cache(maxsize=64)
def _box_offsets(nx, ny, nz):
    """(nx * ny * nz, 3) cell offsets of a box of cells; do not mutate."""
    return np.indices((nx, ny, nz)).reshape(3, -1).T


class UniformGrid:
    """Immutable cell table over a fixed set of points.

    Each point lives in exactly one cell of a dense table over the box
    of occupied cells, of side ``cell_size`` doubled while the box has
    over ``8 * len(points) + 64`` cells. Queries return sorted indices.
    """

    def __init__(self, centers, cell_size):
        if not 0 < cell_size < math.inf:
            raise InvalidConfig(f"cell_size must be positive and finite, got {cell_size}")
        self.cell_size = float(cell_size)
        centers = np.asarray(centers, dtype=float)
        if centers.size == 0:
            centers = centers.reshape(0, 3)
        if centers.ndim != 2 or centers.shape[1] != 3:
            raise InvalidAtom(f"centers must be (m, 3), got {centers.shape}")
        if not np.isfinite(centers).all():
            raise InvalidAtom("atom centers must be finite")
        self.centers = centers.copy()
        side = self.cell_size
        cells = np.zeros((0, 3), dtype=np.int64)
        origin, dims = np.zeros(3, dtype=np.int64), np.ones(3, dtype=np.int64)
        while len(centers):
            cells = np.floor(centers / side).astype(np.int64)
            origin = cells.min(axis=0)
            dims = cells.max(axis=0) - origin + 1
            if math.prod(dims.tolist()) <= 8 * len(centers) + 64:
                break
            side *= 2.0
        self._inv = 1.0 / side
        self._origin = origin.astype(float)
        self._top = (dims - 1).astype(float)
        self._strides = np.array([dims[1] * dims[2], dims[2], 1])
        keys = (cells - origin) @ self._strides
        # point ids grouped by cell, ascending within a cell
        self._order = np.argsort(keys, kind="stable")
        self._counts = np.bincount(keys, minlength=math.prod(dims.tolist()))
        self._starts = np.cumsum(self._counts) - self._counts

    def __len__(self):
        return len(self.centers)

    def query_balls(self, points, radius):
        """Every pair (i, j) with |centers[j] - points[i]| <= radius for
        an (n, 3) array of points, as two id arrays sorted by i, then j.
        A negative or NaN radius holds no point."""
        none = np.empty(0, dtype=np.int64)
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        if not len(self.centers) or not radius >= 0 or not len(points):
            return none, none
        # each point's box of cells, clipped to the table
        lo = np.maximum(np.floor((points - radius) * self._inv) - self._origin, 0.0)
        hi = np.minimum(np.floor((points + radius) * self._inv) - self._origin, self._top)
        lo = lo.astype(np.int64)
        span = np.maximum(hi.astype(np.int64) - lo + 1, 0)
        # every cell of every box, as (point, cell) pairs
        offsets = _box_offsets(*span.max(axis=0).tolist())
        owner, cell = np.nonzero((offsets < span[:, None]).all(axis=2))
        cell = (lo[owner] + offsets[cell]) @ self._strides
        # expanded to (point, candidate id) pairs
        counts = self._counts[cell]
        first = self._starts[cell] - (np.cumsum(counts) - counts)
        owner = np.repeat(owner, counts)
        ids = self._order[np.repeat(first, counts) + np.arange(len(owner))]

        d2 = ((self.centers[ids] - points[owner]) ** 2).sum(axis=1)
        near = d2 <= radius * radius
        pairs = owner[near] * len(self.centers) + ids[near]
        pairs.sort()
        return np.divmod(pairs, len(self.centers))

    def query_ball(self, point, radius):
        """Sorted indices of points with |x - point| <= radius: the
        one-point case of :meth:`query_balls`."""
        return self.query_balls([point], radius)[1].tolist()

    def query_edge(self, p1, p2, radius):
        """Sorted indices within ``radius`` of either endpoint (closed balls)."""
        return np.unique(self.query_balls([p1, p2], radius)[1]).tolist()


def _atom_centers(atoms):
    if isinstance(atoms, np.ndarray):
        return atoms
    return np.array([np.asarray(a.center, dtype=float) for a in atoms]).reshape(-1, 3)


def grid_build(atoms, cell_size=5.0) -> UniformGrid:
    """Build a grid over atoms (a list of Atom or an (m, 3) array).

    The default cell size matches the default atom-capture radius of the
    atom-aware cost, which makes edge queries touch few cells.
    """
    return UniformGrid(_atom_centers(atoms), cell_size)

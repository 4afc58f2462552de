"""Uniform hashed grid for radius queries over atom centers.

Candidate cells give a superset; every query filters exactly, so results
equal a brute-force linear scan (closed balls: distance exactly equal to
the radius is included).
"""

from __future__ import annotations

import math

import numpy as np


class UniformGrid:
    """Immutable cell hash over a fixed set of points.

    Built once from atom centers; each point lives in exactly one cell
    of side ``cell_size``. Query methods return sorted point indices.
    """

    def __init__(self, centers, cell_size):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        centers = np.asarray(centers, dtype=float)
        if centers.size == 0:
            centers = centers.reshape(0, 3)
        if centers.ndim != 2 or centers.shape[1] != 3:
            raise ValueError(f"centers must be (m, 3), got {centers.shape}")
        if centers.size and not np.isfinite(centers).all():
            raise ValueError("atom centers must be finite")
        self.centers = centers.copy()
        self._cells = {}
        if len(centers):
            keys = np.floor(centers / self.cell_size).astype(np.int64)
            for i, key in enumerate(map(tuple, keys.tolist())):
                self._cells.setdefault(key, []).append(i)

    def __len__(self):
        return len(self.centers)

    def _candidates(self, point, radius):
        inv = 1.0 / self.cell_size
        lo = [math.floor((point[k] - radius) * inv) for k in range(3)]
        hi = [math.floor((point[k] + radius) * inv) for k in range(3)]
        cells = self._cells
        out = []
        for i in range(lo[0], hi[0] + 1):
            for j in range(lo[1], hi[1] + 1):
                for k in range(lo[2], hi[2] + 1):
                    bucket = cells.get((i, j, k))
                    if bucket:
                        out.extend(bucket)
        return out

    def query_ball(self, point, radius):
        """Sorted indices of points with |x - point| <= radius."""
        if not len(self.centers) or radius < 0:
            return []
        cand = self._candidates(point, radius)
        if not cand:
            return []
        c = self.centers[cand]
        d2 = ((c - np.asarray(point, dtype=float)) ** 2).sum(axis=1)
        r2 = radius * radius
        return sorted(i for i, ok in zip(cand, d2 <= r2) if ok)

    def query_edge(self, p1, p2, radius):
        """Sorted indices within ``radius`` of either endpoint (closed balls)."""
        return sorted(set(self.query_ball(p1, radius)).union(self.query_ball(p2, radius)))


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


def grid_query_edge(grid: UniformGrid, v1, v2, rho):
    """Atoms within ``rho`` of either edge endpoint, as sorted indices."""
    return grid.query_edge(v1, v2, rho)

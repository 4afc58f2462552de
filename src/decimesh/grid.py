"""Uniform cell grid for radius queries over atom centers.

Candidate cells give a superset; every query filters exactly, so results
equal a brute-force linear scan (closed balls: distance exactly equal to
the radius is included).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import blocks
from .errors import InvalidAtom, _check_real

# the corners of a box as 0/1 offsets along each axis, and the sign of
# each corner's summed-area count in the box's count
_CORNERS = np.indices((2, 2, 2)).reshape(3, -1).T
_CORNER_SIGNS = np.where(_CORNERS.sum(axis=1) % 2, 1, -1)

_NONE = np.empty(0, dtype=np.int64)


@functools.lru_cache(maxsize=64)
def _row_offsets(nx, ny, x_stride, y_stride):
    """The (x, y) offsets of the rows of an nx by ny box of cells, as an
    (nx * ny, 2) array, and each row's key offset; do not mutate."""
    offsets = np.indices((nx, ny)).reshape(2, -1).T
    return offsets, offsets @ np.array([x_stride, y_stride])


class UniformGrid:
    """Immutable cell table over a fixed set of points.

    Each point lives in exactly one cell of a dense table over the box
    of occupied cells, of side ``cell_size`` doubled while the box has
    over ``8 * len(points) + 64`` cells. Queries return sorted indices.
    """

    def __init__(self, centers, cell_size):
        _check_real("cell_size", cell_size, positive=True)
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
        # the (2, 3) bounds of a box's lowest and highest cell: the
        # lowest at most one past the table's top, so every box's
        # corners index the summed-area table
        self._ends_min = np.array([[0.0] * 3, [-1.0] * 3])
        self._ends_max = np.stack([dims, dims - 1]).astype(float)
        self._strides = np.array([dims[1] * dims[2], dims[2], 1])
        keys = (cells - origin) @ self._strides
        # point ids grouped by cell, ascending within a cell; the ids of
        # cells k..l-1 are _order[_cum[k]:_cum[l]]
        self._order = np.argsort(keys, kind="stable")
        counts = np.bincount(keys, minlength=math.prod(dims.tolist()))
        self._cum = np.concatenate([[0], np.cumsum(counts)])
        # summed-area table: _box_sums[x, y, z] counts the points in the
        # cells below (x, y, z) on every axis
        box_sums = np.zeros(tuple((dims + 1).tolist()), dtype=np.int64)
        box_sums[1:, 1:, 1:] = counts.reshape(dims.tolist()).cumsum(0).cumsum(1).cumsum(2)
        self._box_sums = box_sums.ravel()
        self._box_strides = np.array([(dims[1] + 1) * (dims[2] + 1), dims[2] + 1, 1])

    def __len__(self):
        return len(self.centers)

    def query_balls(self, points, radius):
        """Every pair (i, j) with |centers[j] - points[i]| <= radius for
        an (n, 3) array of points, as two id arrays sorted by i, then j.
        A negative or NaN radius holds no point.

        The balls are gathered by :meth:`ball_blocks`, so the working
        memory beside the result is bounded by its term budget whatever
        the point count, the radius or the atom density."""
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        counts, ids = [_NONE], [_NONE]
        for block_counts, block_ids in self.ball_blocks(points, radius):
            counts.append(block_counts)
            ids.append(block_ids)
        return np.repeat(np.arange(len(points)), np.concatenate(counts)), np.concatenate(ids)

    def ball_blocks(self, points, radius):
        """The balls of :meth:`query_balls` one block of points at a
        time: yields (counts, ids) per block, in point order, with the
        ball sizes of the block's points and their ids, each ball sorted.

        A point's box of cells is walked as rows of cells along the last
        axis, each a contiguous run of ids. A block's (point, row) and
        (point, candidate) pairs number at most ``blocks.BUDGET``
        together, counted up front from a summed-area table of the cell
        counts, except that a block holds at least one point, whose
        pairs are bounded by the table's size and the grid's points."""
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        budget = blocks.BUDGET
        # a point's box takes about 30 words to lay out and count: the
        # boxes are laid out 1/32 of the budget in points at a time
        step = max(1, budget >> 5)
        for first in range(0, len(points), step):
            chunk = points[first:first + step]
            lo, span = self._boxes(chunk, radius)
            # every box's rows are walked as the chunk's widest box's
            nx, ny = span[:, :2].max(axis=0).tolist()
            # a chunk that fits even if every ball held every point needs
            # no counts
            if len(chunk) * (nx * ny + len(self.centers)) <= budget:
                yield self._ball_block(chunk, lo, span, nx, ny, radius)
                continue
            terms = np.cumsum(nx * ny + self._box_counts(lo, span))
            for start, stop in blocks.term_blocks(terms):
                yield self._ball_block(chunk[start:stop], lo[start:stop], span[start:stop],
                                       nx, ny, radius)

    def _boxes(self, points, radius):
        """Each point's box of cells of the table: its lowest cell (n, 3)
        and its extent (n, 3) on each axis, zero on some axis for an
        empty box."""
        if not len(self.centers) or not radius >= 0:
            empty = np.zeros((len(points), 3), dtype=np.int64)
            return empty, empty
        ends = np.floor((points[:, None] + np.array([[-radius], [radius]])) * self._inv)
        ends -= self._origin
        ends = np.minimum(np.maximum(ends, self._ends_min), self._ends_max).astype(np.int64)
        lo, hi = ends[:, 0], ends[:, 1]
        return lo, np.maximum(hi - lo + 1, 0)

    def _box_counts(self, lo, span):
        """The number of points in each box, by inclusion-exclusion over
        the eight corners of the summed-area table."""
        keys = (lo @ self._box_strides)[:, None] + (span * self._box_strides) @ _CORNERS.T
        return self._box_sums[keys] @ _CORNER_SIGNS

    def _ball_block(self, points, lo, span, nx, ny, radius):
        """(counts, ids) of one block of points whose boxes span at most
        ``nx`` by ``ny`` rows; see :meth:`ball_blocks`."""
        n, m = len(points), max(len(self.centers), 1)
        # every row of every box, as (point, row) pairs
        offsets, offset_keys = _row_offsets(nx, ny, self._strides[0], self._strides[1])
        owner, row = np.nonzero((offsets < span[:, None, :2]).all(axis=2))
        key = (lo @ self._strides)[owner] + offset_keys[row]
        begin = self._cum[key]
        sizes = self._cum[key + span[:, 2][owner]] - begin
        # expanded to (point, candidate id) pairs, still grouped by point
        owner = np.repeat(owner, sizes)
        ids = self._order[np.repeat(begin - (np.cumsum(sizes) - sizes), sizes)
                          + np.arange(len(owner))]

        d = self.centers[ids] - points[owner]
        near = (d * d).sum(axis=1) <= radius * radius
        owner = owner[near]
        # sorting the keys moves ids only within their point's group
        pairs = owner * m + ids[near]
        pairs.sort()
        return np.bincount(owner, minlength=n), pairs - owner * m

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

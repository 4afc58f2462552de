import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decimesh import Atom, DecimationConfig, UniformGrid, decimate, grid_build
from decimesh.errors import InvalidAtom, InvalidConfig
from decimesh.shapes import icosphere

from conftest import block_budget, synthetic_molecule


def brute_ball(centers, point, radius):
    if len(centers) == 0:
        return []
    d = np.linalg.norm(centers - np.asarray(point, dtype=float), axis=1)
    return sorted(np.flatnonzero(d <= radius).tolist())


def brute_edge(centers, p1, p2, radius):
    if len(centers) == 0:
        return []
    d1 = np.linalg.norm(centers - np.asarray(p1, dtype=float), axis=1)
    d2 = np.linalg.norm(centers - np.asarray(p2, dtype=float), axis=1)
    return sorted(np.flatnonzero(np.minimum(d1, d2) <= radius).tolist())


def test_empty_grid():
    grid = grid_build([], cell_size=5.0)
    assert len(grid) == 0
    assert grid.query_ball((0, 0, 0), 100.0) == []
    assert grid.query_edge((0, 0, 0), (1, 1, 1), 100.0) == []


def test_self_retrieval():
    rng = np.random.default_rng(1)
    centers = rng.uniform(-50, 50, size=(1000, 3))
    grid = grid_build(centers, cell_size=5.0)
    for i in range(0, 1000, 7):
        assert i in grid.query_ball(tuple(centers[i]), 0.1)


def test_ball_queries_match_brute_force():
    rng = np.random.default_rng(2)
    centers = rng.uniform(-30, 30, size=(1000, 3))
    grid = grid_build(centers, cell_size=4.0)
    for _ in range(100):
        point = tuple(rng.uniform(-35, 35, size=3))
        radius = float(rng.uniform(0.0, 12.0))
        assert grid.query_ball(point, radius) == brute_ball(centers, point, radius)


def test_edge_queries_match_brute_force():
    rng = np.random.default_rng(3)
    centers = rng.uniform(-30, 30, size=(1000, 3))
    grid = grid_build(centers, cell_size=5.0)
    for _ in range(100):
        p1 = tuple(rng.uniform(-32, 32, size=3))
        p2 = tuple(p1 + rng.normal(scale=2.0, size=3))
        rho = float(rng.uniform(0.5, 8.0))
        assert grid.query_edge(p1, p2, rho) == brute_edge(centers, p1, p2, rho)


def test_query_balls_is_query_ball_per_point():
    rng = np.random.default_rng(5)
    centers = rng.uniform(-20, 20, size=(500, 3))
    grid = grid_build(centers, cell_size=5.0)
    points = rng.uniform(-25, 25, size=(60, 3))
    for radius in (0.0, 3.0, 5.0, 40.0):
        owner, ids = grid.query_balls(points, radius)
        for i, point in enumerate(points.tolist()):
            assert ids[owner == i].tolist() == brute_ball(centers, point, radius)
    owner, ids = grid.query_balls(np.empty((0, 3)), 5.0)
    assert len(owner) == len(ids) == 0


def test_sparse_points_keep_the_table_small():
    # 0.5-A cells over a 1000-A box would be 8e9 cells: the side doubles
    centers = np.array([[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0], [0.0, 1000.0, 1000.0],
                        [0.3, 0.0, 0.0]])
    grid = grid_build(centers, cell_size=0.5)
    assert len(grid._cum) - 1 <= 8 * len(centers) + 64
    for point in [(0.0, 0.0, 0.0), (1000.2, 0.0, 0.0), (500.0, 500.0, 500.0)]:
        assert grid.query_ball(point, 0.5) == brute_ball(centers, point, 0.5)


def test_boundary_is_closed_ball():
    grid = grid_build(np.array([[1.0, 0.0, 0.0]]), cell_size=5.0)
    assert grid.query_ball((0.0, 0.0, 0.0), 1.0) == [0]
    assert grid.query_edge((0.0, 0.0, 0.0), (9.0, 9.0, 9.0), 1.0) == [0]
    assert grid.query_ball((0.0, 0.0, 0.0), 0.999999) == []


def test_atoms_accepted_directly():
    atoms = [Atom(center=(0, 0, 0), charge=1.0), Atom(center=(3, 0, 0), charge=-1.0)]
    grid = grid_build(atoms, cell_size=2.0)
    assert grid.query_ball((0, 0, 0), 1.0) == [0]
    assert grid.query_edge((0, 0, 0), (3, 0, 0), 0.5) == [0, 1]


def test_every_atom_in_exactly_one_cell():
    rng = np.random.default_rng(4)
    centers = rng.uniform(-10, 10, size=(200, 3))
    grid = UniformGrid(centers, cell_size=1.7)
    assert sorted(grid._order.tolist()) == list(range(200))
    assert grid._cum[-1] == 200
    cells = np.floor(centers * grid._inv)
    occupied = 0
    for start, count in zip(grid._cum[:-1].tolist(), np.diff(grid._cum).tolist()):
        bucket = grid._order[start:start + count]
        assert (cells[bucket] == cells[bucket[:1]]).all()
        assert (np.diff(bucket) > 0).all()
        occupied += count > 0
    assert len({tuple(c) for c in cells.tolist()}) == occupied


def test_invalid_inputs():
    with pytest.raises(ValueError):
        grid_build([], cell_size=0.0)
    with pytest.raises(ValueError):
        UniformGrid(np.array([[np.inf, 0, 0]]), 1.0)


@pytest.mark.parametrize("cell_size", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_cell_size_must_be_positive_and_finite(cell_size):
    with pytest.raises(InvalidConfig, match="cell_size"):
        grid_build(np.zeros((2, 3)), cell_size=cell_size)


def test_nan_radius_holds_no_point():
    centers = np.random.default_rng(5).uniform(-5, 5, size=(30, 3))
    grid = grid_build(centers, cell_size=2.0)
    assert grid.query_ball((0.0, 0.0, 0.0), math.nan) == []
    assert grid.query_edge((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), math.nan) == []
    owners, ids = grid.query_balls(centers, math.nan)
    assert len(owners) == len(ids) == 0
    assert grid.query_ball((0.0, 0.0, 0.0), -1.0) == []


@pytest.mark.parametrize("centers", [
    np.array([[math.nan, 0.0, 0.0]]),
    np.array([[0.0, math.inf, 0.0], [1.0, 1.0, 1.0]]),
    np.zeros((2, 4)),
    np.zeros(3),
])
def test_bad_centers_are_invalid_atoms(centers):
    with pytest.raises(InvalidAtom):
        grid_build(centers)
    config = DecimationConfig(cost_kind="gb", target_faces=40)
    with pytest.raises(InvalidAtom):
        decimate(icosphere(1, radius=5.0), config, atoms=centers)


def brute_balls(centers, points, radius):
    """query_balls by a scan of every (point, center) pair, with the
    grid's own squared-distance test."""
    owner, ids = [], []
    for i, point in enumerate(points):
        near = np.flatnonzero(((centers - point) ** 2).sum(axis=1) <= radius * radius)
        owner += [i] * len(near)
        ids += near.tolist()
    return owner, ids


def assert_blocked_balls_exact(grid, points, radius, budget):
    """query_balls under ``budget`` equals the one-block query and the
    brute-force scan, and ball_blocks covers every point once."""
    with block_budget(2**62):
        whole = grid.query_balls(points, radius)
    with block_budget(budget):
        owner, ids = grid.query_balls(points, radius)
        blocks = list(grid.ball_blocks(points, radius))
    assert owner.tolist() == whole[0].tolist()
    assert ids.tolist() == whole[1].tolist()
    assert (owner.tolist(), ids.tolist()) == brute_balls(grid.centers, points, radius)
    assert sum(len(counts) for counts, _ in blocks) == len(points)
    assert np.concatenate([ids[:0]] + [b for _, b in blocks]).tolist() == ids.tolist()
    return blocks


@settings(max_examples=60, deadline=None)
@given(
    n_atoms=st.integers(0, 300),
    n_points=st.integers(0, 120),
    cell_size=st.floats(0.3, 6.0),
    reach=st.floats(0.0, 20.0),
    seed=st.integers(0, 2**32 - 1),
    budget=st.sampled_from([1, 2, 7, 100, 2**12, 2**15]),
)
def test_blocked_ball_queries_equal_brute_force_bit_for_bit(
    n_atoms, n_points, cell_size, reach, seed, budget
):
    # radii from 0 to 20 cells, points inside and around the atoms (some
    # on an atom), blocks from one point to all
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-15, 15, size=(n_atoms, 3)) * rng.uniform(0.05, 1.0)
    points = rng.uniform(-25, 25, size=(n_points, 3))
    k = min(n_atoms, n_points // 3)
    points[:k] = centers[:k]
    grid = grid_build(centers, cell_size=cell_size)
    assert_blocked_balls_exact(grid, points, reach * cell_size, budget)


@pytest.mark.parametrize("budget", [1, 7, 2**10, 2**15])
def test_wide_balls_over_many_atoms_in_tiny_blocks(budget):
    # a radius 20 cells wide over 1,000 atoms: every box spans the whole
    # table, and at a budget of one pair each point is a block of its own
    rng = np.random.default_rng(11)
    centers = rng.uniform(-20, 20, size=(1000, 3))
    grid = grid_build(centers, cell_size=2.0)
    points = rng.uniform(-30, 30, size=(40, 3))
    blocks = assert_blocked_balls_exact(grid, points, 40.0, budget)
    if budget == 1:
        assert len(blocks) == len(points)


def test_box_counts_are_the_points_in_each_box():
    # the summed-area counts size the blocks: each box's count is the
    # number of atoms whose cell lies in the box, empty boxes included
    rng = np.random.default_rng(12)
    centers = rng.uniform(-10, 10, size=(300, 3))
    grid = grid_build(centers, cell_size=2.5)
    points = rng.uniform(-16, 16, size=(200, 3))
    radii = rng.uniform(0.0, 12.0, size=200)
    cells = np.floor(centers * grid._inv) - grid._origin
    for point, radius in zip(points, radii):
        lo, span = grid._boxes(point[None], radius)
        inside = ((cells >= lo) & (cells < lo + span)).all(axis=1)
        assert grid._box_counts(lo, span).tolist() == [int(inside.sum())]


def test_ball_query_memory_is_bounded():
    # the parent's one pass over every (vertex, cell) and (vertex,
    # candidate) pair peaked at 53.7 MB here; the result is 1.5 MB
    mesh, atoms = synthetic_molecule(n_atoms=1000, level=4, radius=10.0, seed=3)
    grid = grid_build(atoms, cell_size=5.0)
    tracemalloc.start()
    try:
        owner, ids = grid.query_balls(mesh.vertices, 5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(mesh.vertices) == 2562 and len(ids) > 50_000
    assert peak < 6e6

import numpy as np
import pytest

from decimesh import Atom, UniformGrid, grid_build, grid_query_edge


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
        assert grid_query_edge(grid, p1, p2, rho) == brute_edge(centers, p1, p2, rho)


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
    assert len(grid._counts) <= 8 * len(centers) + 64
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
    assert grid._counts.sum() == 200
    cells = np.floor(centers * grid._inv)
    occupied = 0
    for start, count in zip(grid._starts.tolist(), grid._counts.tolist()):
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

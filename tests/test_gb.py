import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decimesh.blocks as blocks_module

from decimesh import (
    Atom,
    CENTROID_1PT,
    GBParams,
    SYMMETRIC_3PT,
    TriangleMesh,
    born_radii,
    g_pol,
    mesh_quadrature,
    nonpolar_energy,
    quadrature_rule,
    surface_area,
)
from decimesh.errors import (
    AtomTooCloseToSurface,
    DecimeshError,
    InputError,
    InvalidAtom,
    InvalidCharge,
    InvalidConfig,
    InvalidRadius,
    NonPositiveIntegral,
    NumericalError,
    RadiiMismatch,
)
from decimesh.shapes import icosphere

from conftest import bits, block_budget, cores, random_rotation, synthetic_molecule


def flipped(mesh):
    faces = [(a, c, b) for (a, b, c) in mesh.live_triangle_array().tolist()]
    return TriangleMesh(mesh.vertices, faces)


# --- quadrature ---------------------------------------------------------------


@pytest.mark.parametrize("rule", [CENTROID_1PT, SYMMETRIC_3PT])
def test_weights_sum_to_area(rule, sphere320):
    nodes, weights, normals = mesh_quadrature(sphere320, rule)
    per_tri = weights.reshape(len(rule.fractions), -1).sum(axis=0)
    tris = sphere320.live_triangle_array()
    a = sphere320.vertices[tris[:, 0]]
    b = sphere320.vertices[tris[:, 1]]
    c = sphere320.vertices[tris[:, 2]]
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    assert np.allclose(per_tri, areas, rtol=1e-12)
    assert (weights > 0).all()


@pytest.mark.parametrize("rule", [CENTROID_1PT, SYMMETRIC_3PT])
def test_nodes_lie_on_their_triangles(rule, sphere320):
    nodes, weights, normals = mesh_quadrature(sphere320, rule)
    tris = sphere320.live_triangle_array()
    n_tris = len(tris)
    a = sphere320.vertices[tris[:, 0]]
    b = sphere320.vertices[tris[:, 1]]
    c = sphere320.vertices[tris[:, 2]]
    for k, (ba, bb, bc) in enumerate(rule.barycentric):
        assert min(ba, bb, bc) >= 0 and ba + bb + bc == pytest.approx(1.0)
        block = nodes[k * n_tris:(k + 1) * n_tris]
        assert np.allclose(block, ba * a + bb * b + bc * c, rtol=1e-12)


def test_quadrature_normals_point_outward(sphere320):
    nodes, weights, normals = mesh_quadrature(sphere320, CENTROID_1PT)
    assert (np.einsum("ij,ij->i", nodes, normals) > 0).all()


def test_quadrature_rule_lookup():
    assert quadrature_rule("1pt") is CENTROID_1PT
    assert quadrature_rule("symmetric_3pt") is SYMMETRIC_3PT
    assert quadrature_rule(CENTROID_1PT) is CENTROID_1PT
    with pytest.raises(ValueError):
        quadrature_rule("9pt")


def test_unknown_quadrature_name_is_invalid_config(sphere320):
    with pytest.raises(InvalidConfig, match="unknown quadrature rule '5pt'"):
        quadrature_rule("5pt")
    with pytest.raises(InvalidConfig):
        born_radii(sphere320, [Atom(center=(0, 0, 0), charge=1.0)], rule="5pt")


# --- Born radii ----------------------------------------------------------------


def test_born_radius_unit_sphere_level3():
    mesh = icosphere(3)
    atom = Atom(center=(0, 0, 0), charge=1.0)
    radii = born_radii(mesh, [atom])
    assert abs(1.0 / radii[0] - 1.0) < 0.02
    assert atom.born_radius == radii[0]


def test_born_radius_unit_sphere_level4():
    mesh = icosphere(4)
    radii = born_radii(mesh, [Atom(center=(0, 0, 0), charge=1.0)])
    assert abs(1.0 / radii[0] - 1.0) < 0.005


def test_born_radius_error_decreases_with_refinement():
    errors = []
    for level in (1, 2, 3, 4):
        radii = born_radii(icosphere(level), [Atom(center=(0, 0, 0), charge=1.0)])
        errors.append(abs(1.0 / radii[0] - 1.0))
    assert errors == sorted(errors, reverse=True)


def test_born_radius_scaled_sphere():
    mesh = icosphere(3, radius=2.0)
    radii = born_radii(mesh, [Atom(center=(0, 0, 0), charge=1.0)])
    assert radii[0] == pytest.approx(2.0, rel=0.02)


def test_inward_oriented_sphere_fails():
    mesh = flipped(icosphere(2))
    with pytest.raises(NonPositiveIntegral) as info:
        born_radii(mesh, [Atom(center=(0, 0, 0), charge=1.0)])
    assert info.value.atom_indices == [0]


def test_atom_outside_reports_index():
    mesh = icosphere(2)
    atoms = [Atom(center=(0, 0, 0), charge=1.0), Atom(center=(5, 0, 0), charge=1.0)]
    with pytest.raises(NonPositiveIntegral) as info:
        born_radii(mesh, atoms)
    assert info.value.atom_indices == [1]


def test_atom_too_close_to_surface():
    mesh = icosphere(2)
    nodes, _, _ = mesh_quadrature(mesh, CENTROID_1PT)
    near = nodes[0] - 1e-8 * nodes[0] / np.linalg.norm(nodes[0])
    with pytest.raises(AtomTooCloseToSurface) as info:
        born_radii(mesh, [Atom(center=near, charge=1.0)])
    assert info.value.atom_index == 0


def test_atom_too_close_names_first_atom_and_distance():
    mesh = icosphere(2)
    nodes, _, _ = mesh_quadrature(mesh, CENTROID_1PT)
    unit = nodes / np.linalg.norm(nodes, axis=1)[:, None]
    atoms = [
        Atom(center=(0, 0, 0), charge=1.0),
        Atom(center=nodes[5] - 1e-8 * unit[5], charge=1.0),
        Atom(center=nodes[7] - 1e-9 * unit[7], charge=1.0),
    ]
    with pytest.raises(AtomTooCloseToSurface) as info:
        born_radii(mesh, atoms)
    assert info.value.atom_index == 1
    assert info.value.distance == pytest.approx(1e-8, rel=1e-6)
    assert "atom 1 is 1e-08 A" in str(info.value)


def born_radii_fsum(mesh, atoms, rule):
    """Born radii from Python floats, each dot product and the flux sum
    by ``math.fsum``."""
    nodes, weights, normals = mesh_quadrature(mesh, rule)
    rows = list(zip(nodes.tolist(), weights.tolist(), normals.tolist()))
    radii = []
    for atom in atoms:
        c = atom.center.tolist()
        flux = []
        for p, w, n in rows:
            d = [p[k] - c[k] for k in range(3)]
            r2 = math.fsum(x * x for x in d)
            flux.append(math.fsum(x * y for x, y in zip(d, n)) * w / (r2 * r2))
        radii.append(4.0 * math.pi / math.fsum(flux))
    return radii


@pytest.mark.parametrize("rule", [CENTROID_1PT, SYMMETRIC_3PT])
def test_born_radii_match_fsum_reference(rule):
    mesh, atoms = synthetic_molecule(n_atoms=12, level=3, radius=10.0, seed=31)
    mesh.vertices += np.random.default_rng(31).normal(scale=0.2, size=mesh.vertices.shape)
    got = born_radii(mesh, atoms, rule=rule)
    want = born_radii_fsum(mesh, atoms, rule)
    assert np.abs(got / want - 1.0).max() <= 1e-14


def born_radii_per_atom(mesh, atoms, rule=CENTROID_1PT):
    """The one-atom-per-pass loop that ``born_radii`` replaced: the
    same per-element order on (K,) rows, summed by the 1-D ``sum``."""
    nodes, weights, normals = mesh_quadrature(mesh, rule)
    nx, ny, nz = np.ascontiguousarray(nodes.T)
    mx, my, mz = np.ascontiguousarray(normals.T)
    radii = []
    for atom in atoms:
        cx, cy, cz = atom.center.tolist()
        dx, dy, dz = nx - cx, ny - cy, nz - cz
        r2 = (dx * dx + dz * dz) + dy * dy
        flux = ((dx * mx + dz * mz) + dy * my) * weights / (r2 * r2)
        radii.append(1.0 / ((1.0 / (4.0 * math.pi)) * float(flux.sum())))
    return radii


_SPHERES = {}


@settings(max_examples=40, deadline=None)
@given(
    level=st.integers(0, 3),
    rule=st.sampled_from([CENTROID_1PT, SYMMETRIC_3PT]),
    n=st.integers(1, 70),
    seed=st.integers(0, 2**32 - 1),
    workers=st.sampled_from([1, 2, 3]),
    budget=st.sampled_from([1, 7, 100, 2**12, 2**15, 2**20]),
)
def test_blocked_energetics_equal_oracles_bit_for_bit(level, rule, n, seed, workers, budget):
    # K runs from 20 to 3,840 nodes and the blocks from one atom (or one
    # pair row) to the whole set, on 1 to 3 workers: every radius is its
    # own row sum and G_pol an exact sum, so no bit may move
    if level not in _SPHERES:
        _SPHERES[level] = icosphere(level, radius=10.0)
    mesh = _SPHERES[level]
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(n, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    centers = directions * 6.0 * rng.random((n, 1)) ** (1.0 / 3.0)
    atoms = [Atom(center=c, charge=q) for c, q in zip(centers, rng.uniform(-2, 2, n))]
    with cores(workers), block_budget(budget):
        radii = born_radii(mesh, atoms, rule=rule)
        energy = g_pol(atoms)
    assert bits(radii) == bits(born_radii_per_atom(mesh, atoms, rule))
    assert bits([a.born_radius for a in atoms]) == bits(radii)
    assert bits([energy]) == bits([gpol_full_matrix(atoms, GBParams())])


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_atom_too_close_in_many_blocks_names_first(workers):
    # one atom per block: the later blocks' bad atoms may be seen first
    mesh = icosphere(2)
    nodes, _, _ = mesh_quadrature(mesh, CENTROID_1PT)
    unit = nodes / np.linalg.norm(nodes, axis=1)[:, None]
    atoms = [Atom(center=(0, 0, 0.1 * k), charge=1.0) for k in range(8)]
    for i, node, gap in ((3, 5, 1e-8), (5, 7, 1e-9), (7, 9, 1e-10)):
        atoms[i] = Atom(center=nodes[node] - gap * unit[node], charge=1.0)
    atoms[1] = Atom(center=(5, 0, 0), charge=1.0)  # outside: reported only if none is too close
    with cores(workers), block_budget(1):
        with pytest.raises(AtomTooCloseToSurface) as info:
            born_radii(mesh, atoms)
    assert info.value.atom_index == 3
    assert info.value.distance == pytest.approx(1e-8, rel=1e-6)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_non_positive_integrals_listed_in_order(workers):
    mesh = icosphere(2)
    atoms = [Atom(center=(0, 0, 0.05 * k), charge=1.0) for k in range(12)]
    for i in (2, 5, 6, 11):
        atoms[i] = Atom(center=(3 + i, 0, 0), charge=1.0)
    with cores(workers), block_budget(80):  # one atom per block
        with pytest.raises(NonPositiveIntegral) as info:
            born_radii(mesh, atoms)
    assert info.value.atom_indices == [2, 5, 6, 11]


@pytest.mark.parametrize("n_vertices", [0, 3])
def test_faceless_mesh_integrals_are_zero(n_vertices):
    # every integral over an empty surface is 0, so every atom is listed
    mesh = TriangleMesh(np.eye(3)[:n_vertices].reshape(-1, 3), [])
    atoms = [Atom(center=(0, 0, 0.1 * k), charge=1.0) for k in range(3)]
    with pytest.raises(NonPositiveIntegral) as info:
        born_radii(mesh, atoms)
    assert info.value.atom_indices == [0, 1, 2]
    assert len(born_radii(mesh, [])) == 0


def test_energetics_leave_no_thread_behind():
    mesh, atoms = synthetic_molecule(n_atoms=60, level=3, radius=10.0, seed=5)
    before = threading.active_count()
    with cores(3), block_budget(100):
        radii = born_radii(mesh, atoms)
        assert threading.active_count() == before
        g_pol(atoms, radii=radii)
        assert threading.active_count() == before
        # a worker's error is raised on the calling thread, and the pool
        # is still joined
        atoms[40].born_radius = atoms[41].born_radius = 1e-200
        with pytest.raises(NumericalError):
            g_pol(atoms)
    assert threading.active_count() == before


def test_workers_draw_every_block_once():
    # more workers than cores, one-row blocks and a thread switch every
    # microsecond: a block lost or drawn twice would move a radius (left
    # unset) or G_pol (counted twice)
    mesh, atoms = synthetic_molecule(n_atoms=40, level=2, radius=10.0, seed=9)
    with cores(1):
        radii = born_radii(mesh, atoms)
        energy = g_pol(atoms)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with cores(8), block_budget(1):
            for _ in range(5):
                assert bits(born_radii(mesh, atoms)) == bits(radii)
                assert bits([g_pol(atoms)]) == bits([energy])
    finally:
        sys.setswitchinterval(interval)


def test_one_block_or_one_core_runs_inline():
    mesh, atoms = synthetic_molecule(n_atoms=20, level=3, radius=10.0, seed=5)
    no_pool = mock.patch.object(blocks_module, "Thread", side_effect=AssertionError)
    with no_pool:
        with cores(1), block_budget(1):
            radii = born_radii(mesh, atoms)
            energy = g_pol(atoms)
        # 20 atoms x 1,280 nodes and 210 pair terms: one block each
        with cores(2):
            assert bits(born_radii(mesh, atoms)) == bits(radii)
            assert bits([g_pol(atoms)]) == bits([energy])


def test_born_radii_memory_is_bounded():
    # the (atoms, nodes) flux matrix would take 20 MB here; the blocks
    # hold about 1.3 MB of scratch per worker beside the quadrature
    mesh, atoms = synthetic_molecule(n_atoms=500, level=4, radius=10.0, seed=3)
    with cores(2):
        tracemalloc.start()
        try:
            born_radii(mesh, atoms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 5e6


def test_atom_non_finite_center_is_input_error():
    with pytest.raises(InvalidAtom) as info:
        Atom(center=(math.nan, 0, 0), charge=1.0)
    assert isinstance(info.value, InputError)
    assert isinstance(info.value, ValueError)
    with pytest.raises(DecimeshError):
        Atom(center=(0, math.inf, 0), charge=1.0)


def test_gpol_radii_length_mismatch_is_input_error():
    atoms = [Atom(center=(0, 0, 0), charge=1.0)]
    with pytest.raises(RadiiMismatch, match="2 radii given for 1 atoms") as info:
        g_pol(atoms, radii=[1.0, 2.0])
    assert isinstance(info.value, InputError)
    assert isinstance(info.value, ValueError)
    with pytest.raises(DecimeshError):
        g_pol(atoms, radii=[])


def test_quadrature_rules_converge_together():
    gaps = []
    for level in (2, 3, 4):
        mesh = icosphere(level)
        atom = [Atom(center=(0.2, 0.1, -0.15), charge=1.0)]
        r1 = born_radii(mesh, atom, rule="1pt")[0]
        r3 = born_radii(mesh, atom, rule="3pt")[0]
        gaps.append(abs(r1 - r3) / r3)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 1e-3


def test_born_radius_rigid_motion_invariant():
    rng = np.random.default_rng(8)
    mesh = icosphere(2)
    center = np.array([0.3, -0.1, 0.2])
    base = born_radii(mesh, [Atom(center=center, charge=1.0)])[0]
    for _ in range(5):
        rot = random_rotation(rng)
        shift = rng.normal(scale=10.0, size=3)
        moved = mesh.copy()
        moved.vertices = mesh.vertices @ rot.T + shift
        r = born_radii(moved, [Atom(center=rot @ center + shift, charge=1.0)])[0]
        assert r == pytest.approx(base, rel=1e-9)


# --- polarization energy ---------------------------------------------------------


def test_gpol_single_atom_closed_form():
    params = GBParams(eps_p=1.0, eps_w=80.0)
    atom = Atom(center=(0, 0, 0), charge=1.0, born_radius=1.0)
    expect = -params.tau * 0.5
    assert g_pol([atom], params) == pytest.approx(expect, rel=1e-12)
    atom2 = Atom(center=(0, 0, 0), charge=-2.0, born_radius=2.5)
    expect2 = -params.tau * 4.0 / (2.0 * 2.5)
    assert g_pol([atom2], params) == pytest.approx(expect2, rel=1e-12)


def test_gpol_tau_zero():
    atoms = [Atom(center=(0, 0, 0), charge=1.0, born_radius=1.0)]
    assert g_pol(atoms, GBParams(eps_p=2.0, eps_w=2.0)) == 0.0


def test_gpol_two_distant_atoms():
    params = GBParams(eps_p=1.0, eps_w=1e18)  # tau = 1 exactly in floats
    assert params.tau == 1.0
    atoms = [
        Atom(center=(0, 0, 0), charge=1.0, born_radius=1.0),
        Atom(center=(100, 0, 0), charge=1.0, born_radius=1.0),
    ]
    got = g_pol(atoms, params)
    # independent evaluation of the closed-form double sum
    want = 0.0
    for i in range(2):
        for j in range(2):
            r2 = 0.0 if i == j else 100.0**2
            denom = math.sqrt(r2 + 1.0 * math.exp(-r2 / 4.0))
            want += 1.0 / denom
    want *= -0.5
    assert got == pytest.approx(want, rel=1e-12)
    # pair terms decay like 1/r; the total is near -1 - 1/100
    assert got == pytest.approx(-1.0 - 0.01, abs=1e-4)


def test_gpol_permutation_invariance_exact():
    rng = np.random.default_rng(9)
    params = GBParams()
    for _ in range(100):
        atoms = [
            Atom(
                center=rng.uniform(-5, 5, size=3),
                charge=float(rng.uniform(-2, 2)),
                born_radius=float(rng.uniform(0.5, 3.0)),
            )
            for _ in range(10)
        ]
        base = g_pol(atoms, params)
        perm = [atoms[i] for i in rng.permutation(10)]
        assert g_pol(perm, params) == base


def gpol_full_matrix(atoms, params):
    """g_pol from the whole N x N pair matrix in one piece."""
    centers = np.array([a.center for a in atoms])
    charges = np.array([a.charge for a in atoms])
    r = np.array([a.born_radius for a in atoms])
    diff = centers[:, None, :] - centers[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    rr = np.outer(r, r)
    denom = np.sqrt(r2 + rr * np.exp(-r2 / (4.0 * rr)))
    terms = np.outer(charges, charges) / denom
    return -0.5 * params.tau * math.fsum(terms.ravel().tolist())


def random_atoms(rng, n):
    return [
        Atom(center=c, charge=q, born_radius=b)
        for c, q, b in zip(
            rng.uniform(-20, 20, size=(n, 3)).tolist(),
            rng.uniform(-2, 2, size=n).tolist(),
            rng.uniform(0.5, 3.0, size=n).tolist(),
        )
    ]


@pytest.mark.parametrize("n", [1, 3, 1025, 1500])
def test_gpol_blocks_equal_full_matrix(n):
    # 1025 and 1500 atoms are not multiples of the block's row count
    atoms = random_atoms(np.random.default_rng(n), n)
    params = GBParams()
    assert g_pol(atoms, params) == gpol_full_matrix(atoms, params)


def mixed_atoms(rng, n, n_centers, zero_share):
    """Atoms on ``n_centers`` distinct centres (so many coincide), with
    mixed-sign charges of magnitude 1e-100 to 1e100, a share of them
    zero, and Born radii from 1e-3 to 1e3."""
    pool = rng.uniform(-20, 20, size=(n_centers, 3))
    centers = pool[rng.integers(0, n_centers, size=n)]
    charges = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-100, 100, size=n)
    charges[rng.random(n) < zero_share] = 0.0
    radii = 10.0 ** rng.uniform(-3, 3, size=n)
    return [
        Atom(center=c, charge=q, born_radius=b)
        for c, q, b in zip(centers.tolist(), charges.tolist(), radii.tolist())
    ]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    distinct=st.floats(0.0, 1.0),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    block=st.sampled_from([1, 7, 100, 4096, 2**16, 2**18]),
)
def test_gpol_equals_full_matrix_bit_for_bit(n, seed, distinct, zero_share, block):
    # the exact sum rounds once, so neither the row blocks (whose size is
    # drawn here, to cross block edges at every N) nor the halved pair
    # matrix can move a bit
    rng = np.random.default_rng(seed)
    atoms = mixed_atoms(rng, n, max(1, round(distinct * n)), zero_share)
    params = GBParams()
    with block_budget(block):
        got = g_pol(atoms, params)
    assert bits([got]) == bits([gpol_full_matrix(atoms, params)])


def test_gpol_all_zero_charges_sign():
    # fsum of the all-zero terms is +0.0, so the energy is -tau / 2 * +0.0:
    # -0.0 for tau > 0 (eps_p < eps_w) and +0.0 for tau < 0
    atoms = random_atoms(np.random.default_rng(3), 40)
    for k, atom in enumerate(atoms):
        atom.charge = -0.0 if k % 2 else 0.0
    for params, sign in ((GBParams(), -1.0), (GBParams(eps_p=80.0, eps_w=1.0), 1.0)):
        got = g_pol(atoms, params)
        assert bits([got]) == bits([math.copysign(0.0, sign)])
        assert bits([got]) == bits([gpol_full_matrix(atoms, params)])


def test_gpol_extreme_exponents_equal_full_matrix():
    # subnormal pair terms (about 1e-320) beside terms near the largest
    # float (about 1e307) and exact cancellation between them
    atoms = [
        Atom(center=(0, 0, 0), charge=1e-160, born_radius=1.0),
        Atom(center=(0, 0, 1), charge=-3e-161, born_radius=2.0),
        Atom(center=(5, 0, 0), charge=3e153, born_radius=1.0),
        Atom(center=(5, 0, 0), charge=-3e153, born_radius=1.0),
        Atom(center=(0, 7, 0), charge=1.0, born_radius=0.5),
    ]
    params = GBParams()
    got = g_pol(atoms, params)
    assert bits([got]) == bits([gpol_full_matrix(atoms, params)])
    assert got == pytest.approx(-0.5 * params.tau * 1.0 / 0.5, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gpol_non_finite_charge(bad):
    atoms = random_atoms(np.random.default_rng(4), 5)
    atoms[3].charge = bad
    with pytest.raises(InvalidCharge) as info:
        g_pol(atoms)
    assert info.value.atom_index == 3


@pytest.mark.parametrize(
    "charges, radius",
    [
        ((1e200, -1e200), 1.0),   # pair terms of +-inf
        ((1e300, 1e300), 1.0),    # every pair term +inf
        ((1e154, 1e154), 1.0),    # four finite terms of 1e308, whose sum overflows
        ((1.0, 1.0), 1e-200),     # the radius product underflows: 0 / 0
    ],
)
def test_gpol_non_finite_terms_raise(charges, radius):
    atoms = [
        Atom(center=(0, 0, 0), charge=charges[0], born_radius=radius),
        Atom(center=(0, 0, 0), charge=charges[1], born_radius=radius),
    ]
    with pytest.raises(NumericalError, match="not finite"):
        g_pol(atoms)


def test_gpol_memory_is_bounded():
    # the one-piece pair matrix peaks near 200 MB here; the row blocks
    # hold the peak near 1.6 MB per worker (about 3 MB on two cores) at
    # any atom count
    atoms = random_atoms(np.random.default_rng(1500), 1500)
    tracemalloc.start()
    try:
        g_pol(atoms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_gpol_invalid_radius():
    atoms = [Atom(center=(0, 0, 0), charge=1.0)]
    with pytest.raises(InvalidRadius):
        g_pol(atoms)
    atoms[0].born_radius = -1.0
    with pytest.raises(InvalidRadius) as info:
        g_pol(atoms)
    assert info.value.atom_index == 0


def test_gpol_radii_override():
    params = GBParams(eps_p=1.0, eps_w=1e18)
    atoms = [Atom(center=(0, 0, 0), charge=1.0)]
    assert g_pol(atoms, params, radii=[2.0]) == pytest.approx(-0.25, rel=1e-12)


def test_gpol_empty():
    assert g_pol([], GBParams()) == 0.0


def test_gb_params():
    p = GBParams()
    assert p.tau == pytest.approx(1.0 - 1.0 / 80.0, rel=1e-15)
    with pytest.raises(ValueError):
        GBParams(eps_p=0.0)


# --- areas ---------------------------------------------------------------------


def test_surface_area_sphere():
    area = surface_area(icosphere(4))
    assert area == pytest.approx(4.0 * math.pi, rel=0.005)


def test_surface_area_single_triangle():
    mesh = TriangleMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])
    assert surface_area(mesh) == 0.5


def test_surface_area_rigid_invariant(sphere320):
    rng = np.random.default_rng(10)
    base = surface_area(sphere320)
    moved = sphere320.copy()
    moved.vertices = sphere320.vertices @ random_rotation(rng).T + rng.normal(size=3)
    assert surface_area(moved) == pytest.approx(base, rel=1e-12)


def test_nonpolar_placeholder(sphere320):
    assert nonpolar_energy(sphere320, gamma=0.005) == pytest.approx(
        0.005 * surface_area(sphere320), rel=1e-15
    )


@pytest.mark.parametrize("gamma", [math.nan, -1.0, math.inf])
def test_nonpolar_energy_rejects_gamma_not_finite_and_nonnegative(sphere320, gamma):
    with pytest.raises(InvalidConfig, match="gamma"):
        nonpolar_energy(sphere320, gamma)

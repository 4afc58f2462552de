import numpy as np
import pytest

from decimesh import (
    decimate,
    load_atoms,
    load_mesh,
    parse_atoms,
    parse_obj,
    parse_off,
    save_atoms,
    save_mesh,
    validate,
    write_atoms,
    write_off,
)
from decimesh.decimate import DecimationConfig
from decimesh.errors import NonManifoldEdge, ParseError
from decimesh.shapes import icosphere, tetrahedron

TET_OFF = """OFF
4 4 6
1.0 1.0 1.0
1.0 -1.0 -1.0
-1.0 1.0 -1.0
-1.0 -1.0 1.0
3 0 1 2
3 0 3 1
3 0 2 3
3 1 3 2
"""


def test_parse_minimal_tetrahedron():
    mesh = parse_off(TET_OFF)
    stats = validate(mesh)
    assert (stats.n_vertices, stats.n_faces) == (4, 4)
    assert mesh.position(0) == (1.0, 1.0, 1.0)


def test_parse_skips_comments_and_blanks():
    text = "# a comment\nOFF\n\n# counts\n" + TET_OFF.split("\n", 1)[1]
    mesh = parse_off(text)
    assert mesh.n_faces == 4


def test_parse_rejects_non_triangle_face():
    text = TET_OFF.replace("3 0 1 2", "4 0 1 2 3")
    with pytest.raises(ParseError) as info:
        parse_off(text)
    assert "triangle" in str(info.value)
    assert info.value.line is not None


def test_parse_rejects_bad_header():
    with pytest.raises(ParseError):
        parse_off("PLY\n0 0 0\n")


def test_parse_rejects_short_file():
    with pytest.raises(ParseError):
        parse_off("OFF\n4 4 6\n0 0 0\n")


def test_parse_rejects_over_claiming_header():
    # 25 bytes that claim 10**15 vertices: fail before allocating them
    with pytest.raises(ParseError) as info:
        parse_off("OFF\n1000000000000000 0 0\n")
    assert "header claims 1000000000000000 vertices" in str(info.value)


def test_parse_rejects_out_of_range_index():
    text = TET_OFF.replace("3 1 3 2", "3 1 3 9")
    with pytest.raises(ParseError):
        parse_off(text)


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_off(TET_OFF + "extra stuff\n")


def test_parse_rejects_nonfinite():
    text = TET_OFF.replace("1.0 1.0 1.0", "1.0 nan 1.0")
    with pytest.raises(ParseError):
        parse_off(text)


def test_parse_validates_by_default():
    open_mesh = "OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
    with pytest.raises(NonManifoldEdge):
        parse_off(open_mesh)
    mesh = parse_off(open_mesh, validate_mesh=False)
    assert mesh.n_faces == 1


def test_round_trip_exact():
    mesh = parse_off(TET_OFF)
    again = parse_off(write_off(mesh))
    assert np.array_equal(again.vertices, mesh.vertices)
    assert list(again.live_triangles()) == list(mesh.live_triangles())


def test_round_trip_after_decimation_compacts():
    mesh = icosphere(2)
    mesh, _ = decimate(mesh, DecimationConfig(cost_kind="qe", target_faces=80))
    text = write_off(mesh)
    again = parse_off(text)
    stats = validate(again)
    assert stats.n_faces == 80
    assert stats.n_vertices == 42
    # compaction is lossless: identical geometry after one more cycle
    assert write_off(again) == text


def test_write_off_leaves_row_cache_alone():
    """Writing reads the triangle array, not the per-row tuples that
    ``TriangleMesh.triangle`` caches for the collapse loop."""
    mesh = icosphere(3)
    write_off(mesh)
    assert mesh._row_cache == {}
    mesh, _ = decimate(mesh, DecimationConfig(cost_kind="qe", target_faces=600))
    cached = dict(mesh._row_cache)
    text = write_off(mesh)
    assert mesh._row_cache == cached
    # the faces, remapped to the compacted vertex ids, in live-row order
    remap = {v: i for i, v in enumerate(mesh.live_vertex_ids().tolist())}
    want = [f"3 {remap[a]} {remap[b]} {remap[c]}" for (a, b, c) in mesh.live_triangles()]
    assert text.splitlines()[-600:] == want


def test_round_trip_full_precision():
    rng = np.random.default_rng(12)
    mesh = icosphere(1)
    mesh.vertices += rng.normal(scale=0.01, size=mesh.vertices.shape)
    again = parse_off(write_off(mesh))
    assert np.array_equal(again.vertices, mesh.vertices)


def test_parse_obj():
    obj = """# comment
v 1.0 1.0 1.0
v 1.0 -1.0 -1.0
v -1.0 1.0 -1.0
v -1.0 -1.0 1.0
vn 0 0 1
f 1 2 3
f 1/1 4/2/1 2/3
f 1 3 4
f 2 4 3
"""
    mesh = parse_obj(obj)
    assert validate(mesh).n_faces == 4


def test_parse_obj_rejects_quads():
    with pytest.raises(ParseError):
        parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3 4\n")


def test_parse_obj_rejects_bad_index():
    with pytest.raises(ParseError):
        parse_obj("v 0 0 0\nf 1 2 3\n")


def test_parse_atoms():
    atoms = parse_atoms("# c\n0 0 0 1.0 1.5\n1 2 3 -0.5 1.2\n")
    assert len(atoms) == 2
    assert atoms[0].charge == 1.0
    assert atoms[0].vdw_radius == 1.5
    assert tuple(atoms[1].center) == (1.0, 2.0, 3.0)
    assert atoms[0].born_radius is None


def test_parse_atoms_rejects_four_fields():
    with pytest.raises(ParseError) as info:
        parse_atoms("0 0 0 1.0\n")
    assert info.value.line == 1


def test_parse_atoms_rejects_nonfinite():
    with pytest.raises(ParseError):
        parse_atoms("0 0 inf 1.0 1.5\n")


def test_atoms_round_trip():
    rng = np.random.default_rng(13)
    atoms = parse_atoms(
        "\n".join(
            f"{rng.normal()!r} {rng.normal()!r} {rng.normal()!r} "
            f"{rng.normal()!r} {abs(rng.normal())!r}"
            for _ in range(20)
        )
    )
    again = parse_atoms(write_atoms(atoms))
    for a, b in zip(atoms, again):
        assert np.array_equal(a.center, b.center)
        assert a.charge == b.charge
        assert a.vdw_radius == b.vdw_radius


def test_file_helpers(tmp_path):
    mesh = tetrahedron()
    path = tmp_path / "tet.off"
    save_mesh(mesh, path)
    again = load_mesh(path)
    assert list(again.live_triangles()) == list(mesh.live_triangles())

    atoms = parse_atoms("0 0 0 1.0 1.5\n")
    apath = tmp_path / "mol.atoms"
    save_atoms(atoms, apath)
    assert load_atoms(apath)[0].charge == 1.0

    obj_path = tmp_path / "tet.obj"
    obj_path.write_text(
        "v 1 1 1\nv 1 -1 -1\nv -1 1 -1\nv -1 -1 1\n"
        "f 1 2 3\nf 1 4 2\nf 1 3 4\nf 2 4 3\n"
    )
    assert load_mesh(obj_path).n_faces == 4

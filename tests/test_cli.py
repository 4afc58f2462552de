import json

import pytest

from decimesh import HarnessParams, load_mesh, save_atoms, save_mesh, validate
from decimesh.cli import cli_main
from decimesh.errors import InvalidConfig
from decimesh.gb import Atom
from decimesh.shapes import icosphere, tetrahedron

from conftest import pinched_spheres, synthetic_molecule


@pytest.fixture
def tet_file(tmp_path):
    path = tmp_path / "tet.off"
    save_mesh(tetrahedron(), path)
    return str(path)


@pytest.fixture
def sphere_file(tmp_path):
    path = tmp_path / "sphere.off"
    save_mesh(icosphere(3), path)
    return str(path)


@pytest.fixture
def centered_atom_file(tmp_path):
    path = tmp_path / "atom.txt"
    save_atoms([Atom(center=(0, 0, 0), charge=1.0, vdw_radius=1.0)], path)
    return str(path)


def test_validate_ok(tet_file, capsys):
    assert cli_main(["validate", "--mesh", tet_file]) == 0
    out = capsys.readouterr().out
    assert "vertices        4" in out
    assert "edges           6" in out
    assert "faces           4" in out
    assert "euler_char      2" in out


def test_validate_bad_mesh(tmp_path, capsys):
    path = tmp_path / "open.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    assert cli_main(["validate", "--mesh", str(path)]) == 1
    assert "NonManifoldEdge" in capsys.readouterr().err


def test_validate_over_claiming_header(tmp_path, capsys):
    path = tmp_path / "huge.off"
    path.write_text("OFF\n1000000000000000 0 0\n")
    assert cli_main(["validate", "--mesh", str(path)]) == 1
    assert "error: ParseError" in capsys.readouterr().err


def test_missing_file(capsys):
    assert cli_main(["validate", "--mesh", "/nonexistent.off"]) == 1


# bytes that are not UTF-8 text: an executable's header and every byte value
BINARY = b"\x7fELF\x02\x01\x01\x00" + bytes(range(256))


@pytest.mark.parametrize("argv", [
    ["validate", "--mesh", "BINARY"],
    ["energy", "--mesh", "BINARY", "--atoms", "ATOMS"],
    ["energy", "--mesh", "SPHERE", "--atoms", "BINARY"],
], ids=["validate-mesh", "energy-mesh", "energy-atoms"])
def test_binary_input_file_exits_1(tmp_path, sphere_file, centered_atom_file, capsys, argv):
    binary = tmp_path / "binary.off"
    binary.write_bytes(BINARY)
    names = {"BINARY": str(binary), "SPHERE": sphere_file, "ATOMS": centered_atom_file}
    assert cli_main([names.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ParseError: {binary} is not UTF-8 text")
    assert "Traceback" not in err


def test_unknown_flag_reports_and_exits_1(tet_file, capsys):
    code = cli_main(["validate", "--mesh", tet_file, "--bogus"])
    assert code == 1
    assert "--bogus" in capsys.readouterr().err


def test_decimate_roundtrip(tmp_path, capsys):
    mesh_path = tmp_path / "in.off"
    save_mesh(icosphere(2), mesh_path)
    out_path = tmp_path / "out.off"
    code = cli_main(
        [
            "decimate", "--mesh", str(mesh_path), "--cost", "qe",
            "--target-faces", "80", "--out", str(out_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "320 -> 80" in out
    result = load_mesh(out_path)
    assert validate(result).n_faces == 80


def test_decimate_gb_requires_atoms(tmp_path, capsys):
    mesh_path = tmp_path / "in.off"
    save_mesh(icosphere(1), mesh_path)
    code = cli_main(
        [
            "decimate", "--mesh", str(mesh_path), "--cost", "gb",
            "--target-faces", "40", "--out", str(tmp_path / "out.off"),
        ]
    )
    assert code == 1
    assert "MissingAtoms" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--target-faces", "2"),
    ("--rho", "-1"),
    ("--lambda", "-1"),
    ("--validate-every", "-3"),
])
def test_decimate_bad_setting_exits_1(tmp_path, capsys, flag, value):
    """An out-of-range setting is an input error: one ``error:`` line
    naming the typed error, exit 1, no traceback and no output file."""
    mesh_path = tmp_path / "in.off"
    save_mesh(icosphere(1), mesh_path)
    out_path = tmp_path / "out.off"
    settings = {"--target-faces": "40", flag: value}
    argv = ["decimate", "--mesh", str(mesh_path), "--cost", "qe", "--out", str(out_path)]
    for option in settings.items():
        argv += option
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidConfig: ")
    assert "Traceback" not in err
    assert not out_path.exists()


def test_decimate_pinched_mesh_exits_1(tmp_path, capsys):
    mesh, top = pinched_spheres()
    mesh_path = tmp_path / "pinched.off"
    save_mesh(mesh, mesh_path)
    out_path = tmp_path / "out.off"
    argv = ["decimate", "--mesh", str(mesh_path), "--cost", "qe",
            "--target-faces", "100", "--out", str(out_path)]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: NonManifoldVertex: ")
    assert f"vertex {top}" in err
    assert not out_path.exists()


@pytest.mark.parametrize("command, settings", [
    ("decimate", ["--cost", "gb", "--rho", "inf"]),
    ("decimate", ["--cost", "gb", "--lambda", "inf"]),
    ("energy", ["--eps-p", "0"]),
    ("energy", ["--eps-w", "nan"]),
    ("energy", ["--gamma", "nan"]),
    ("energy", ["--gamma", "-0.1"]),
    ("energy", ["--gamma", "inf"]),
    ("compare", ["--eps-p", "-1"]),
    ("compare", ["--rho", "inf"]),
    ("compare", ["--report", "r.txt"]),
], ids=["rho-inf", "lambda-inf", "eps-p-0", "eps-w-nan", "gamma-nan", "gamma-negative",
        "gamma-inf", "compare-eps-p", "compare-rho-inf", "report-txt"])
def test_out_of_range_setting_exits_1(tmp_path, capsys, command, settings):
    """A setting no run can use is an input error, caught before any
    work: one ``error:`` line naming the typed error, exit 1, no
    traceback and no file written."""
    mesh, atoms = synthetic_molecule(n_atoms=5, level=2, radius=6.0, seed=4)
    save_mesh(mesh, tmp_path / "in.off")
    save_atoms(atoms, tmp_path / "mol.txt")
    argv = [command, "--mesh", str(tmp_path / "in.off"), "--atoms", str(tmp_path / "mol.txt")]
    if command == "decimate":
        argv += ["--target-faces", "100", "--out", str(tmp_path / "out.off")]
    elif command == "compare":
        argv += ["--costs", "qe", "--targets", "50%", "--report", str(tmp_path / "out.csv")]
    argv += [str(tmp_path / s) if s.endswith(".txt") else s for s in settings]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidConfig: ")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.off", "mol.txt"]


@pytest.mark.parametrize("gamma", ["nan", "-1", "inf"])
def test_energy_checks_gamma_before_reading_input(tmp_path, capsys, gamma):
    """A bad ``--gamma`` is reported before the input is read: the
    missing files would otherwise end the run with an OSError."""
    argv = ["energy", "--mesh", str(tmp_path / "none.off"),
            "--atoms", str(tmp_path / "none.txt"), "--gamma", gamma]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidConfig: gamma")
    assert "Traceback" not in err
    with pytest.raises(InvalidConfig):
        HarnessParams(gamma=float(gamma))
    assert HarnessParams(gamma=0.0).gamma == 0.0


def test_decimate_gb_qe(tmp_path):
    mesh, atoms = synthetic_molecule(n_atoms=5, level=1, radius=4.0, seed=2)
    mesh_path = tmp_path / "in.off"
    atoms_path = tmp_path / "mol.txt"
    save_mesh(mesh, mesh_path)
    save_atoms(atoms, atoms_path)
    code = cli_main(
        [
            "decimate", "--mesh", str(mesh_path), "--cost", "gb_qe",
            "--atoms", str(atoms_path),
            "--target-faces", "40", "--out", str(tmp_path / "out.off"),
        ]
    )
    assert code == 0


def test_energy_unit_sphere(sphere_file, centered_atom_file, capsys):
    code = cli_main(
        [
            "energy", "--mesh", sphere_file, "--atoms", centered_atom_file,
            "--eps-p", "1.0", "--eps-w", "1e18",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("G_pol"))
    value = float(line.split()[1])
    # centered unit atom in a unit sphere with tau = 1: -1/(2R) with R near 1
    assert value == pytest.approx(-0.5, rel=0.02)


def test_energy_kcal_units(sphere_file, centered_atom_file, capsys):
    code = cli_main(
        [
            "energy", "--mesh", sphere_file, "--atoms", centered_atom_file,
            "--units", "kcal",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("G_pol"))
    assert "kcal/mol" in line
    value = float(line.split()[1])
    assert value == pytest.approx(-0.5 * (1 - 1 / 80) * 332.06, rel=0.02)


def test_energy_without_atoms_exits_1(tmp_path, sphere_file, capsys):
    """An atom file with no atom records is an input error, reported
    before any energy is printed."""
    atoms = tmp_path / "empty.txt"
    atoms.write_text("# x y z charge r_vdw\n")
    assert cli_main(["energy", "--mesh", sphere_file, "--atoms", str(atoms)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: MissingAtoms: atom file {atoms} holds no atoms\n"


def test_compare_without_atoms_keeps_its_rows(tmp_path, sphere_file, capsys):
    atoms = tmp_path / "empty.txt"
    atoms.write_text("")
    json_path = tmp_path / "rep.json"
    code = cli_main(["compare", "--mesh", sphere_file, "--atoms", str(atoms),
                     "--costs", "qe,gb_qe", "--targets", "50%", "--report", str(json_path)])
    assert code == 0
    rows = json.loads(json_path.read_text())["rows"]
    assert [r["cost_kind"] for r in rows] == ["reference", "qe", "gb_qe"]


def test_energy_numerical_failure_exits_2(tmp_path, sphere_file, capsys):
    outside = tmp_path / "outside.txt"
    save_atoms([Atom(center=(5.0, 0, 0), charge=1.0)], outside)
    code = cli_main(["energy", "--mesh", sphere_file, "--atoms", str(outside)])
    assert code == 2
    assert "NonPositiveIntegral" in capsys.readouterr().err


def test_energy_non_finite_charge_exits_1(monkeypatch, sphere_file, centered_atom_file, capsys):
    # atom files cannot hold a NaN charge, so the loaded atom gets one
    def load_nan_charge(path):
        return [Atom(center=(0, 0, 0), charge=float("nan"))]

    monkeypatch.setattr("decimesh.cli.load_atoms", load_nan_charge)
    code = cli_main(["energy", "--mesh", sphere_file, "--atoms", centered_atom_file])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidCharge: atom 0 has non-finite charge nan")
    assert "Traceback" not in err


def test_energy_overflowing_pair_terms_exit_2(tmp_path, sphere_file, capsys):
    # q_i q_j = -1e400 overflows: the pair terms are +-inf
    atoms = tmp_path / "huge.txt"
    save_atoms([Atom(center=(0, 0, 0), charge=1e200), Atom(center=(0.1, 0, 0), charge=-1e200)],
               atoms)
    code = cli_main(["energy", "--mesh", sphere_file, "--atoms", str(atoms)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: NumericalError: a G_pol pair term is not finite")
    assert "Traceback" not in err


FACELESS = ["OFF\n0 0 0\n", "OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n"]


@pytest.fixture(params=FACELESS, ids=["empty", "three_vertices"])
def faceless_file(request, tmp_path):
    path = tmp_path / "faceless.off"
    path.write_text(request.param)
    return str(path)


def test_faceless_mesh_energy_exits_2(faceless_file, centered_atom_file, capsys):
    code = cli_main(["energy", "--mesh", faceless_file, "--atoms", centered_atom_file])
    assert code == 2
    assert capsys.readouterr().err.startswith("numerical failure: NonPositiveIntegral")


def test_faceless_mesh_compare_records_reference_error(tmp_path, faceless_file,
                                                       centered_atom_file, capsys):
    json_path = tmp_path / "rep.json"
    code = cli_main(
        [
            "compare", "--mesh", faceless_file, "--atoms", centered_atom_file,
            "--costs", "qe,gb", "--targets", "4", "--report", str(json_path),
        ]
    )
    assert code == 0
    rows = json.loads(json_path.read_text())["rows"]
    assert [r["cost_kind"] for r in rows] == ["reference", "qe", "gb"]
    assert rows[0]["error"].startswith("NonPositiveIntegral")
    assert all(r["error"] == "InvalidInput: input mesh has no faces" for r in rows[1:])
    assert "rows 3 (3 failed)" in capsys.readouterr().out


def test_faceless_mesh_decimate_exits_1(tmp_path, faceless_file, capsys):
    out = tmp_path / "out.off"
    code = cli_main(["decimate", "--mesh", faceless_file, "--cost", "qe",
                     "--target-faces", "4", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: InvalidInput: input mesh has no faces")
    assert not out.exists()


def test_compare_writes_reports(tmp_path, capsys):
    mesh, atoms = synthetic_molecule(n_atoms=5, level=2, radius=6.0, seed=4)
    mesh_path = tmp_path / "in.off"
    atoms_path = tmp_path / "mol.txt"
    save_mesh(mesh, mesh_path)
    save_atoms(atoms, atoms_path)
    csv_path = tmp_path / "rep.csv"
    json_path = tmp_path / "rep.json"
    code = cli_main(
        [
            "compare", "--mesh", str(mesh_path), "--atoms", str(atoms_path),
            "--costs", "qe,gb_qe", "--targets", "50%,25%",
            "--report", str(csv_path), "--report", str(json_path),
        ]
    )
    assert code == 0
    data = json.loads(json_path.read_text())
    assert len(data["rows"]) == 5
    assert csv_path.read_text().count("\n") == 6  # header + 5 rows


@pytest.mark.parametrize("targets", ["abc", "nan", "inf", "1e400", "50%,x%"])
def test_compare_bad_targets_exit_1(tmp_path, capsys, targets):
    mesh_path = tmp_path / "in.off"
    atoms_path = tmp_path / "atom.txt"
    save_mesh(icosphere(2), mesh_path)
    save_atoms([Atom(center=(0, 0, 0), charge=1.0)], atoms_path)
    csv_path = tmp_path / "rep.csv"
    code = cli_main(
        [
            "compare", "--mesh", str(mesh_path), "--atoms", str(atoms_path),
            "--costs", "qe", "--targets", targets, "--report", str(csv_path),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InputError: face target ")
    assert not csv_path.exists()


def test_compare_unknown_cost_exits_1_before_reading_input(tmp_path, capsys):
    """A misspelled cost kind fails the whole sweep up front, as a bad
    ``--rho`` does: the missing input files are never opened."""
    csv_path = tmp_path / "rep.csv"
    argv = ["compare", "--mesh", str(tmp_path / "none.off"), "--atoms", str(tmp_path / "none.txt"),
            "--costs", "qe,foo", "--targets", "50%", "--report", str(csv_path)]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidConfig: unknown cost kind 'foo'")
    assert not csv_path.exists()


def test_compare_missing_report_directory_exits_1_before_any_work(tmp_path, monkeypatch,
                                                                  capsys):
    def no_sweep(*args, **kwargs):
        raise AssertionError("run_compare called")

    monkeypatch.setattr("decimesh.cli.run_compare", no_sweep)
    argv = ["compare", "--mesh", str(tmp_path / "none.off"), "--atoms", str(tmp_path / "none.txt"),
            "--costs", "qe", "--targets", "50%", "--report", str(tmp_path / "rep.json"),
            "--report", str(tmp_path / "nodir" / "rep.csv")]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidConfig: report directory does not exist: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out, message", [
    ("nodir/out.off", "output directory does not exist: "),
    ("out.obj", "meshes are written as OFF, not OBJ: "),
], ids=["missing-directory", "obj"])
def test_decimate_bad_out_exits_1_before_any_work(tmp_path, monkeypatch, capsys, out, message):
    """A ``--out`` that cannot be written, or could not be read back, is
    an input error before the input is read or decimated."""
    def no_work(*args, **kwargs):
        raise AssertionError("called")

    mesh_path = tmp_path / "in.off"
    save_mesh(icosphere(1), mesh_path)
    monkeypatch.setattr("decimesh.cli.decimate", no_work)
    monkeypatch.setattr("decimesh.cli.load_mesh", no_work)
    argv = ["decimate", "--mesh", str(mesh_path), "--cost", "qe",
            "--target-faces", "40", "--out", str(tmp_path / out)]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err.startswith("error: InvalidConfig: " + message)
    assert list(tmp_path.iterdir()) == [mesh_path]


def test_cli_runs_bit_for_bit_reproducible(tmp_path):
    mesh_path = tmp_path / "in.off"
    save_mesh(icosphere(2), mesh_path)
    outs = []
    for k in (1, 2):
        out = tmp_path / f"out{k}.off"
        assert cli_main(
            [
                "decimate", "--mesh", str(mesh_path), "--cost", "qe",
                "--target-faces", "120", "--out", str(out),
            ]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        cli_main(["--version"])
    assert info.value.code == 0

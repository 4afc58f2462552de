import csv
import io
import json
import math
from dataclasses import asdict

import pytest

from decimesh import report as report_module
from decimesh import run_compare
from decimesh.decimate import DecimationConfig, decimate
from decimesh.errors import DecimeshError, InputError, InvalidConfig
from decimesh.gb import CENTROID_1PT, GBParams, quadrature_rule
from decimesh.report import HarnessParams, ReportRow, _measure, resolve_targets

from conftest import synthetic_molecule


@pytest.fixture(scope="module")
def small_report():
    mesh, atoms = synthetic_molecule(n_atoms=6, level=2, radius=6.0, seed=5)
    return run_compare(
        mesh, atoms, ["qe", "vol", "gb_qe"], ["50%", "25%", "10%"],
        params=HarnessParams(),
    )


def test_resolve_targets():
    assert resolve_targets(1000, ["50%", "25%", "10%"]) == [500, 250, 100]
    assert resolve_targets(1000, [0.5, 200, "120"]) == [500, 200, 120]
    assert resolve_targets(10, ["1%"]) == [4]  # floor of 4 faces
    assert resolve_targets(1000, ["50.5%", "1", 2, "3.0", 0.25]) == [505, 1, 2, 3, 250]


@pytest.mark.parametrize("target", ["1000.7", "2.5", 2.5, 1000.7],
                         ids=["text-count", "text-small", "small", "count"])
def test_resolve_targets_rejects_fractional_counts(target):
    with pytest.raises(InputError, match="is not a finite count, fraction or percent"):
        resolve_targets(1000, [target])


@pytest.mark.parametrize("target", ["-50%", "0%", "-0%", "nan%"])
def test_resolve_targets_rejects_percents_not_above_zero(target):
    # each would clamp to the 4-face floor and decimate to the minimum
    with pytest.raises(InputError, match="is not a finite count, fraction or percent"):
        resolve_targets(10, [target])


def test_unknown_cost_kind_rejected_before_any_work(monkeypatch):
    def no_measure(*args, **kwargs):
        raise AssertionError("reference row measured")

    mesh, atoms = synthetic_molecule(n_atoms=4, level=1, radius=5.0, seed=6)
    monkeypatch.setattr(report_module, "_measure", no_measure)
    with pytest.raises(InvalidConfig, match="unknown cost kind 'foo'"):
        run_compare(mesh, atoms, ["qe", "foo"], [0.5])


def test_row_count_and_order(small_report):
    rows = small_report.rows
    assert len(rows) == 10  # 3 costs x 3 targets + reference
    assert rows[0].cost_kind == "reference"
    kinds = [r.cost_kind for r in rows[1:]]
    assert kinds == ["qe"] * 3 + ["vol"] * 3 + ["gb_qe"] * 3
    targets = [r.target_faces for r in rows[1:4]]
    assert targets == resolve_targets(320, ["50%", "25%", "10%"])


def test_rows_carry_energy_and_quality(small_report):
    ref = small_report.rows[0]
    assert ref.error is None
    assert ref.g_pol < 0
    assert ref.delta_g_pol is None
    for row in small_report.rows[1:]:
        assert row.error is None, row.error
        assert row.actual_faces <= row.target_faces
        assert row.g_pol < 0
        assert row.delta_g_pol == pytest.approx(abs(row.g_pol - ref.g_pol))
        assert row.surface_area > 0
        assert row.g_nonpolar == pytest.approx(0.005 * row.surface_area)
        assert row.min_quality >= 2.0
        assert 0 <= row.well_centered_fraction <= 1
        assert row.collapses == (320 - row.actual_faces) // 2


def test_reference_only_when_no_costs():
    mesh, atoms = synthetic_molecule(n_atoms=4, level=1, radius=5.0, seed=6)
    report = run_compare(mesh, atoms, [], [0.5])
    assert len(report.rows) == 1
    assert report.rows[0].cost_kind == "reference"


def test_metadata_provenance(small_report):
    md = small_report.metadata
    assert md["params"]["rho"] == 5.0
    assert md["params"]["lam"] == 1e-8
    assert len(md["mesh_sha256"]) == 64
    assert len(md["atoms_sha256"]) == 64
    assert "informational" in md
    assert md["informational"]["largest_g_pol_drift_cost"] in ("qe", "vol", "gb_qe")
    assert isinstance(md["informational"]["volume_cost_drifts_most"], bool)


def test_csv_and_json_values_identical(small_report):
    parsed_json = json.loads(small_report.to_json())
    reader = csv.DictReader(io.StringIO(small_report.to_csv()))
    csv_rows = list(reader)
    assert len(csv_rows) == len(parsed_json["rows"])
    for jrow, crow in zip(parsed_json["rows"], csv_rows):
        for key, jval in jrow.items():
            cval = crow[key]
            if jval is None:
                assert cval == ""
            elif isinstance(jval, float):
                assert float(cval) == jval
            else:
                assert str(jval) == cval


def test_write_by_extension(tmp_path, small_report):
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    small_report.write(jpath)
    small_report.write(cpath)
    assert json.loads(jpath.read_text())["rows"]
    assert cpath.read_text().startswith("cost_kind,")
    with pytest.raises(ValueError):
        small_report.write(tmp_path / "report.txt")


def test_failed_cell_recorded_not_fatal():
    mesh, atoms = synthetic_molecule(n_atoms=4, level=1, radius=5.0, seed=8)
    report = run_compare(mesh, atoms, ["qe"], [2])  # target below the minimum
    assert len(report.rows) == 2
    assert report.rows[0].error is None
    assert report.rows[1].error is not None
    assert "target_faces" in report.rows[1].error


def test_reproducible_values():
    mesh, atoms = synthetic_molecule(n_atoms=4, level=1, radius=5.0, seed=9)
    r1 = run_compare(mesh.copy(), atoms, ["qe"], [0.5])
    r2 = run_compare(mesh.copy(), atoms, ["qe"], [0.5])
    for a, b in zip(r1.rows, r2.rows):
        assert a.g_pol == b.g_pol
        assert a.surface_area == b.surface_area
        assert a.actual_faces == b.actual_faces


ALL_KINDS = ["qe", "vol", "pb", "gb", "gb_qe"]
# unsorted, duplicated, above the input's face count and below the minimum
SWEEP = ["25%", "75%", "25%", 2000, "10%", 2]


@pytest.fixture(scope="module")
def sweep_molecule():
    return synthetic_molecule(n_atoms=6, level=2, radius=6.0, seed=5)


def per_cell_row(mesh, atoms, kind, target, ref_g):
    """The row of one (kind, target) cell from a fresh copy of the input."""
    try:
        config = DecimationConfig(cost_kind=kind, target_faces=target)
        needs_atoms = kind in ("gb", "gb_qe")
        work, trace = decimate(mesh.copy(), config, atoms=atoms if needs_atoms else None)
        cell = _measure(work, atoms, GBParams(), quadrature_rule("centroid_1pt"), 0.005,
                        reference_g=ref_g)
        return ReportRow(cost_kind=kind, target_faces=target, actual_faces=work.n_faces,
                         collapses=trace.n_collapses, **cell)
    except (DecimeshError, ValueError) as exc:
        return ReportRow(cost_kind=kind, target_faces=target,
                         error=f"{type(exc).__name__}: {exc}")


def test_single_pass_rows_match_per_cell_runs(sweep_molecule):
    mesh, atoms = sweep_molecule
    report = run_compare(mesh, atoms, ALL_KINDS, SWEEP)
    ref_g = report.rows[0].g_pol
    targets = resolve_targets(mesh.n_faces, SWEEP)
    expected = [report.rows[0]] + [
        per_cell_row(mesh, atoms, kind, target, ref_g)
        for kind in ALL_KINDS for target in targets
    ]

    def untimed(row):
        return {**asdict(row), "wall_time_s": None}

    assert [untimed(r) for r in report.rows] == [untimed(r) for r in expected]
    assert any(r.error for r in report.rows)  # the target below the minimum


def test_one_decimation_pass_per_kind(monkeypatch, sweep_molecule):
    mesh, atoms = sweep_molecule
    calls = []
    real = report_module.decimate

    def recording(work, config, **kwargs):
        out = real(work, config, **kwargs)
        calls.append((config.cost_kind, out[1].n_collapses))
        return out

    monkeypatch.setattr(report_module, "decimate", recording)
    run_compare(mesh, atoms, ALL_KINDS, SWEEP)
    valid = {t for t in resolve_targets(mesh.n_faces, SWEEP) if t >= 4}
    for kind in ALL_KINDS:
        done = [n for k, n in calls if k == kind]
        assert len(done) == len(valid)
        assert sum(done) == (mesh.n_faces - min(valid)) // 2


@pytest.mark.parametrize("name", ["5pt", "", None])
def test_unknown_quadrature_rejected_by_harness_params(name):
    with pytest.raises(InvalidConfig, match="unknown quadrature rule"):
        HarnessParams(quadrature=name)


@pytest.mark.parametrize("quadrature", ["centroid_1pt", "1pt", CENTROID_1PT],
                         ids=["name", "short-name", "rule"])
def test_report_names_the_quadrature_rule_canonically(quadrature):
    mesh, atoms = synthetic_molecule(n_atoms=3, level=1, radius=5.0, seed=6)
    report = run_compare(mesh, atoms, ["qe"], [0.5], HarnessParams(quadrature=quadrature))
    assert report.metadata["params"]["quadrature"] == "centroid_1pt"


@pytest.mark.parametrize("eps", [
    {"eps_p": -1.0}, {"eps_w": math.nan}, {"eps_p": "1"}, {"eps_w": 0.0},
], ids=["negative", "nan", "string", "zero"])
def test_harness_params_check_eps_when_built(eps):
    """A bad dielectric constant is an ``InvalidConfig`` when the
    parameters are built, as a bad rho, lam or gamma is, not only when a
    sweep runs."""
    with pytest.raises(InvalidConfig, match="eps_"):
        HarnessParams(**eps)

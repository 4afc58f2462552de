"""Fast tests of the benchmark itself: every workload at a tiny size
passes its checks, and every check fails on a corrupted output.

    python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads

TINY = {
    "molecule-decimate": lambda: workloads.MoleculeDecimate(
        level=3, n_atoms=50, crowd=60, fraction=0.9),
    "compare-sweep": lambda: workloads.CompareSweep(
        level=2, n_atoms=5, sweeps=(("qe,vol,gb_qe", "75%,50%"), ("pb,gb", "75%"))),
}


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(workloads.WORKLOADS)


def run_tiny(dm, name, tmp_path, seed=3):
    workload = TINY[name]()
    files = workload.make_inputs(dm.shapes, seed, tmp_path)
    inputs = workload.load(dm, files)
    return workload, inputs, workload.round(dm, inputs)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_checks(dm, name, tmp_path):
    workload, inputs, rnd = run_tiny(dm, name, tmp_path)
    assert rnd.failed == 0, rnd.errors
    assert rnd.attempted > 0
    assert set(rnd.work) == set(workloads.KINDS)
    assert all(c > 0 and t > 0 for c, t in rnd.work.values())
    assert rnd.energy_s > 0 and rnd.drift > 0
    assert workload.check(dm, inputs, rnd) == []
    again = workload.round(dm, inputs)
    assert again.fingerprint == rnd.fingerprint


# -- corrupted decimation outputs ------------------------------------------


@pytest.fixture(scope="module")
def decimated(dm, tmp_path_factory):
    """A tiny molecule-decimate round: ((mesh, the molecule's atoms), round)."""
    workload, (mesh, crowd), rnd = run_tiny(dm, "molecule-decimate", tmp_path_factory.mktemp("mol"))
    return (mesh, crowd[:workload.n_atoms]), rnd


def audit(dm, decimated, kind, records=None, out=None, target=None):
    (mesh, atoms), rnd = decimated
    config, good_out, trace, _, _ = rnd.outputs[kind]
    if target is not None:
        config = dataclasses.replace(config, target_faces=target)
    if records is not None:
        trace = dataclasses.replace(trace, records=records)
    return checks.check_decimation(dm, mesh, atoms, config, out or good_out, trace)


@pytest.mark.parametrize("kind", workloads.KINDS)
def test_decimation_check_passes_untouched(dm, decimated, kind):
    assert audit(dm, decimated, kind) == []


@pytest.mark.parametrize("kind", workloads.KINDS)
@pytest.mark.parametrize("which", [3, -1])
def test_perturbed_placement_fails(dm, decimated, kind, which):
    records = list(decimated[1].outputs[kind][2].records)
    r = records[which]
    records[which] = dataclasses.replace(
        r, placement=(r.placement[0] + 1e-3, r.placement[1], r.placement[2]))
    fails = audit(dm, decimated, kind, records=records)
    assert fails
    if which == -1:
        # the last merged vertex never moves again, so the replay differs
        assert any("replayed mesh differs" in f for f in fails)


@pytest.mark.parametrize("kind", workloads.KINDS)
def test_wrong_cost_fails(dm, decimated, kind):
    records = list(decimated[1].outputs[kind][2].records)
    r = records[5]
    records[5] = dataclasses.replace(r, cost=r.cost * (1 + 1e-6) + 1e-9)
    fails = audit(dm, decimated, kind, records=records)
    assert any("record 5" in f and "oracle" in f for f in fails)


@pytest.mark.parametrize("kind", ["pb", "gb", "gb_qe"])
def test_costlier_discrete_placement_fails(dm, decimated, kind):
    """A record that took a placement dearer than one of {midpoint, v1,
    v2}, with its cost correct for that placement."""
    (mesh, atoms), rnd = decimated
    config, _, trace, _, _ = rnd.outputs[kind]
    grid = params = None
    if kind in checks.GB_KINDS:
        grid = dm.grid.grid_build(atoms, cell_size=config.rho)
        params = dm.costs.GbCostParams(
            rho=config.rho, lam=config.lam,
            variant="qe_term" if kind == "gb_qe" else "edge_length")
    # the first record whose three discrete candidates differ in cost
    m = mesh.copy()
    for i, r in enumerate(trace.records):
        cost_at, _ = checks._oracle(dm, m, kind, r.v1, r.v2, grid, params)
        p1, p2 = m.position(r.v1), m.position(r.v2)
        mid = tuple(0.5 * (a + b) for a, b in zip(p1, p2))
        options = sorted((c, p) for p in (mid, p1, p2) if (c := cost_at(p)) is not None)
        if options[-1][0] > options[0][0]:
            break
        dm.mesh.collapse_edge(m, r.v1, r.v2, r.placement, warn_on_flip=False)
    worst_cost, worst = options[-1]
    records = list(trace.records)
    records[i] = dataclasses.replace(r, placement=worst, cost=worst_cost)
    fails = audit(dm, decimated, kind, records=records)
    assert any(f"record {i}:" in f and " < " in f for f in fails)


def test_wrong_face_count_fails(dm, decimated):
    fails = audit(dm, decimated, "qe", target=decimated[1].outputs["qe"][0].target_faces - 2)
    assert any("faces, target" in f for f in fails)


def test_broken_manifold_fails(dm, decimated):
    out = decimated[1].outputs["vol"][1].copy()
    # flipping one triangle breaks the orientation
    t = int(out.live_triangle_ids()[0])
    out.triangles[t] = out.triangles[t][::-1].copy()
    with pytest.raises(dm.errors.ValidationError):
        audit(dm, decimated, "vol", out=out)


# -- corrupted energetics --------------------------------------------------


def test_energy_check_catches_wrong_radius_and_energy(dm, decimated):
    (mesh, atoms), rnd = decimated
    radii, g = rnd.outputs["input"]
    assert checks.check_energy(mesh, atoms, "1pt", radii, g, "input") == []
    bad = radii.copy()
    bad[7] *= 1 + 1e-8
    assert any("Born radii" in f for f in checks.check_energy(mesh, atoms, "1pt", bad, g, "x"))
    fails = checks.check_energy(mesh, atoms, "1pt", radii, g * (1 + 1e-9), "x")
    assert any("G_pol" in f for f in fails)


def test_molecule_check_catches_order_dependent_g_pol(dm, tmp_path, monkeypatch):
    workload, inputs, rnd = run_tiny(dm, "molecule-decimate", tmp_path)
    real = dm.gb.g_pol
    monkeypatch.setattr(dm.gb, "g_pol",
                        lambda atoms, *a, **k: real(atoms, *a, **k) + 1e-12 * atoms[0].center[0])
    assert any("shuffle" in f for f in workload.check(dm, inputs, rnd))


def test_reference_energetics_match_closed_forms():
    # one atom: G_pol = -tau q^2 / (2 R)
    g = checks.reference.g_pol(np.zeros((1, 3)), np.array([2.0]), np.array([1.5]))
    assert g == pytest.approx(-(1 - 1 / 80) * 4.0 / 3.0, rel=1e-15)


# -- corrupted compare reports ---------------------------------------------


@pytest.fixture(scope="module")
def swept(dm, tmp_path_factory):
    workload, inputs, rnd = run_tiny(dm, "compare-sweep", tmp_path_factory.mktemp("cmp"))
    return workload, inputs, rnd


def report_fails(swept, edit):
    workload, (mesh, atoms, _), rnd = swept
    costs, targets = workload.sweeps[0]
    doc = json.loads(rnd.outputs["reports"][0])
    edit(doc["rows"])
    return checks.check_report(json.dumps(doc), mesh, atoms, costs, targets)


def test_report_check_passes_untouched(swept):
    assert report_fails(swept, lambda rows: None) == []


def test_dropped_report_row_fails(swept):
    assert any("report rows" in f for f in report_fails(swept, lambda rows: rows.pop(2)))


def test_error_rows_count_as_failed(dm, tmp_path, monkeypatch):
    """A cell whose energy evaluation raises is an error row: the round
    counts it as a failed operation, and the check skips it."""
    workload = TINY["compare-sweep"]()
    inputs = workload.load(dm, workload.make_inputs(dm.shapes, 3, tmp_path))
    real = dm.report.born_radii

    def born_radii(mesh, atoms, **kwargs):
        if mesh.n_faces == 160:
            raise dm.errors.NonPositiveIntegral([0])
        return real(mesh, atoms, **kwargs)
    monkeypatch.setattr(dm.report, "born_radii", born_radii)
    rnd = workload.round(dm, inputs)
    assert rnd.failed == 3  # qe, vol and gb_qe at 50 %
    assert any("NonPositiveIntegral" in e for e in rnd.errors)
    assert workload.check(dm, inputs, rnd) == []


def test_wrong_face_count_row_fails(swept):
    def edit(rows):
        rows[2]["actual_faces"] += 2
    assert any("faces" in f for f in report_fails(swept, edit))


def test_wrong_reference_energy_fails(swept):
    def edit(rows):
        rows[0]["g_pol"] *= 1 + 1e-9
    assert any("reference G_pol" in f for f in report_fails(swept, edit))


def test_wrong_drift_fails(swept):
    def edit(rows):
        rows[3]["delta_g_pol"] = np.nextafter(rows[3]["delta_g_pol"], 1.0)
    assert any("delta_g_pol" in f for f in report_fails(swept, edit))


def test_round_comparison_ignores_only_wall_times(swept):
    text = swept[2].outputs["reports"][0]
    doc = json.loads(text)
    doc["rows"][1]["wall_time_s"] += 1.0
    slower = json.dumps(doc, indent=2)
    assert checks.without_wall_times(slower) == checks.without_wall_times(text)
    doc["rows"][1]["g_pol"] = np.nextafter(doc["rows"][1]["g_pol"], 0.0)
    changed = json.dumps(doc, indent=2)
    assert checks.without_wall_times(changed) != checks.without_wall_times(text)


# -- the runner ------------------------------------------------------------


def test_runner_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the runner exits
    non-zero and prints no result."""
    bench = Path(__file__).resolve().parents[1]
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "molecule-decimate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- tracing and the metric lists --------------------------------------------


def test_traced_round_reports_every_layer_and_restores_names(dm, tmp_path):
    import tracing

    workload = TINY["compare-sweep"]()
    inputs = workload.load(dm, workload.make_inputs(dm.shapes, 3, tmp_path))
    before = (dm.decimate.edge_star, dm.decimate.Decimator.step, dm.report.decimate)
    tracer = tracing.Tracer()
    with tracing.instrument(dm, tracer):
        rnd = workload.round(dm, inputs)
    assert (dm.decimate.edge_star, dm.decimate.Decimator.step, dm.report.decimate) == before
    assert rnd.failed == 0
    totals = tracer.totals()
    assert totals["mesh.edge_star"][0] > 0
    for calls, total, own in totals.values():
        assert -1e-9 <= own <= total + 1e-9
    metrics = tracing.layer_metrics(tracer, 1, 0.0, 0.0, tracing.g_pol_peak_mb(tracer, dm.gb.g_pol))
    assert [m for m in metrics] == [name for name, _, _ in tracing.PER_LAYER]
    cells = sum(len(c.split(",")) * len(t.split(",")) for c, t in workload.sweeps)
    assert metrics["report.decimations"]["value"] == cells
    assert metrics["decimate.candidates"]["value"] > 0
    assert metrics["gb.g_pol_peak_mb"]["value"] > 0


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    import run
    import tracing

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == ["bench"]

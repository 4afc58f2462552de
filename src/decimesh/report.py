"""Comparison harness: decimate under several costs and measure what each
policy does to the solvation energy.

Each cost kind decimates one copy of the input in a single pass down to
every distinct face target in descending order (the greedy order does
not depend on the target; Hoppe 1996), recomputing Born radii and the
polarization energy at each stop for one report row; a reference row on
the undecimated mesh comes first. Rows that fail record the error and
the sweep continues.
"""

from __future__ import annotations

import csv
import hashlib
import io as _stdio
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace

from . import __version__
from .costs import COST_KINDS, GbCostParams
from .decimate import DecimationConfig, decimate
from .errors import DecimeshError, InputError, InvalidConfig, _check_real
from .gb import GAMMA, GBParams, born_radii, g_pol, quadrature_rule, surface_area
from .io import _out_path, write_atoms, write_off
from .mesh import quality_summary


@dataclass(frozen=True)
class HarnessParams:
    """Pinned parameters for a comparison sweep. A ``rho``, ``lam``,
    ``eps_p``, ``eps_w`` or ``gamma`` that is out of range or not a real
    number, or an unknown ``quadrature`` name, raises ``InvalidConfig``."""

    rho: float = GbCostParams.rho
    lam: float = GbCostParams.lam
    eps_p: float = GBParams.eps_p
    eps_w: float = GBParams.eps_w
    gamma: float = GAMMA
    quadrature: str = "centroid_1pt"

    def __post_init__(self):
        GbCostParams(rho=self.rho, lam=self.lam)
        GBParams(eps_p=self.eps_p, eps_w=self.eps_w)
        _check_real("gamma", self.gamma, positive=False)
        quadrature_rule(self.quadrature)


@dataclass
class ReportRow:
    cost_kind: str
    target_faces: int | None = None
    actual_faces: int | None = None
    g_pol: float | None = None
    delta_g_pol: float | None = None
    surface_area: float | None = None
    g_nonpolar: float | None = None
    min_quality: float | None = None
    mean_quality: float | None = None
    well_centered_fraction: float | None = None
    collapses: int | None = None
    wall_time_s: float | None = None
    error: str | None = None


_ROW_FIELDS = tuple(f.name for f in fields(ReportRow))


@dataclass
class ComparisonReport:
    metadata: dict
    rows: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {"metadata": self.metadata, "rows": [asdict(r) for r in self.rows]},
            indent=2,
        )

    def to_csv(self) -> str:
        buf = _stdio.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_ROW_FIELDS)
        for row in self.rows:
            d = asdict(row)
            writer.writerow(
                ["" if d[k] is None else repr(d[k]) if isinstance(d[k], float) else d[k]
                 for k in _ROW_FIELDS]
            )
        return buf.getvalue()

    def write(self, path):
        text = self.to_json() if report_format(path) == "json" else self.to_csv()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def report_format(path):
    """The format a report path names by its suffix, "csv" or "json";
    any other suffix, or a directory that does not exist, raises
    ``InvalidConfig``."""
    path = _out_path(path, "report")
    for fmt in ("csv", "json"):
        if path.lower().endswith("." + fmt):
            return fmt
    raise InvalidConfig(f"report path must end in .csv or .json: {path}")


def check_sweep(cost_kinds):
    """Raise ``InvalidConfig`` for what every cell of a sweep would
    reject: an unknown cost kind (``HarnessParams`` checks the rest
    when built)."""
    for kind in cost_kinds:
        if kind not in COST_KINDS:
            raise InvalidConfig(f"unknown cost kind {kind!r}; expected one of {COST_KINDS}")


def resolve_targets(n_faces, items):
    """Turn a target list (whole counts, fractions, or '50%' strings)
    into face counts; an entry that names no finite count, or a percent
    that is not positive, raises ``InputError``."""
    out = []
    for item in items:
        text = str(item).strip()
        try:
            value = float(text.removesuffix("%"))
            if text.endswith("%"):
                if not 0 < value < math.inf:
                    raise ValueError(item)
                out.append(max(4, int(round(n_faces * (value / 100.0)))))
            elif 0 < value < 1:
                out.append(max(4, int(round(n_faces * value))))
            elif int(value) == value:
                out.append(int(value))
            else:
                raise ValueError(item)
        except (ValueError, OverflowError):
            raise InputError(f"face target {item!r} is not a finite count, "
                             "fraction or percent") from None
    return out


def _measure(mesh, atoms, gb_params, rule, gamma, reference_g=None):
    radii = born_radii(mesh, atoms, rule=rule)
    energy = g_pol(atoms, gb_params, radii=radii)
    area = surface_area(mesh)
    qs = quality_summary(mesh)
    return {
        "g_pol": energy,
        "delta_g_pol": None if reference_g is None else abs(energy - reference_g),
        "surface_area": area,
        "g_nonpolar": gamma * area,
        "min_quality": qs.min_quality,
        "mean_quality": qs.mean_quality,
        "well_centered_fraction": qs.well_centered_fraction,
    }


def run_compare(mesh, atoms, cost_kinds, face_targets, params=None) -> ComparisonReport:
    """Sweep (cost kind x face target) cells and report energy drift.

    ``face_targets`` entries may be absolute counts, fractions of the
    input face count, or percent strings. Row order is deterministic:
    the full-resolution reference first, then cost kinds and targets in
    the order given, duplicates included. A row's ``collapses`` counts
    from the input and its ``wall_time_s`` times its own step down from
    the previous target. A failed cell records its error and the sweep
    continues.
    """
    params = params or HarnessParams()
    rule = quadrature_rule(params.quadrature)
    gb_params = GBParams(eps_p=params.eps_p, eps_w=params.eps_w)
    check_sweep(cost_kinds)
    targets = resolve_targets(mesh.n_faces, face_targets)

    mesh_text = write_off(mesh)
    atoms_text = write_atoms(atoms)
    metadata = {
        "version": __version__,
        "params": {**asdict(params), "quadrature": rule.name},
        "cost_kinds": list(cost_kinds),
        "face_targets": targets,
        "input_faces": mesh.n_faces,
        "input_atoms": len(atoms),
        "mesh_sha256": hashlib.sha256(mesh_text.encode()).hexdigest(),
        "atoms_sha256": hashlib.sha256(atoms_text.encode()).hexdigest(),
        "energy_units": "e^2/Angstrom (multiply by 332.06 for kcal/mol)",
        "notes": [
            "g_nonpolar is a gamma*area placeholder, not a calibrated model",
            "wall_time_s is excluded from reproducibility guarantees",
        ],
    }
    report = ComparisonReport(metadata=metadata)

    def row(kind, target, step):
        """The row of one cell, timed: ``step()`` gives the cell's mesh
        and its collapses from the input, and a ``DecimeshError`` or
        ``ValueError`` raised on the way is the row's error."""
        t0 = time.perf_counter()
        try:
            work, collapses = step()
            cell = {"actual_faces": work.n_faces, "collapses": collapses,
                    **_measure(work, atoms, gb_params, rule, params.gamma, ref_g)}
        except (DecimeshError, ValueError) as exc:
            cell = {"error": f"{type(exc).__name__}: {exc}"}
        return ReportRow(kind, target, wall_time_s=time.perf_counter() - t0, **cell)

    # the reference row has no drift; every later row drifts from its g_pol
    ref_g = None
    report.rows.append(row("reference", mesh.n_faces, lambda: (mesh, 0)))
    ref_g = report.rows[0].g_pol

    for kind in cost_kinds:
        work = mesh.copy()
        collapses = 0
        needs_atoms = kind in ("gb", "gb_qe")

        def step_down(target):
            nonlocal work, collapses
            config = DecimationConfig(
                cost_kind=kind, target_faces=target, rho=params.rho, lam=params.lam
            )
            work, trace = decimate(work, config, atoms=atoms if needs_atoms else None)
            collapses += trace.n_collapses
            return work, collapses

        rows = {target: row(kind, target, lambda: step_down(target))
                for target in sorted(set(targets), reverse=True)}
        report.rows.extend(replace(rows[target]) for target in targets)

    _append_informational_notes(report)
    return report


def _append_informational_notes(report):
    """Non-binding observation: which cost drifted the energy most at the
    most aggressive target."""
    cells = [r for r in report.rows if r.error is None and r.delta_g_pol is not None]
    if not cells:
        return
    finest = min(r.target_faces for r in cells)
    at_finest = [r for r in cells if r.target_faces == finest]
    if len(at_finest) < 2:
        return
    worst = max(at_finest, key=lambda r: r.delta_g_pol)
    report.metadata["informational"] = {
        "finest_target_faces": finest,
        "largest_g_pol_drift_cost": worst.cost_kind,
        "largest_g_pol_drift": worst.delta_g_pol,
        "volume_cost_drifts_most": worst.cost_kind == "vol",
    }

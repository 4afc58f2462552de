"""The benchmark's two workloads.

Each workload makes its input files from a seed, reads them through
``decimesh.io``, runs timed rounds of the same operations, and checks
the outputs of its first round (and that every later round reproduced
them bit for bit). Garbage is collected before each timed operation so
that one operation's garbage is not charged to the next. Every workload
decimates under all five cost kinds and evaluates the GB energy, so
every end-to-end metric has a value on every workload; what differs is
the regime each one stresses.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io as _stdio
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

KINDS = ("qe", "vol", "pb", "gb", "gb_qe")
GB_KINDS = ("gb", "gb_qe")
RADIUS = 10.0
clock = time.perf_counter


@dataclass
class Round:
    """What one timed round measured and produced."""

    wall: float = 0.0
    # cost kind -> [collapses, seconds] of the round's decimations
    work: dict = field(default_factory=dict)
    energy_s: float = 0.0
    drift: float = math.nan
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    fingerprint: str = ""


# -- inputs ------------------------------------------------------------------


def molecule_atoms(rng, n, radius=RADIUS):
    """The test suite's synthetic molecule: atoms uniform in a ball of
    0.8 * radius, van der Waals radius 1.5, but every charge +1.

    With the suite's random +-1 charges the molecule is nearly neutral
    on some seeds: over ten seeds G_pol of 200 atoms ranged from -2.5 to
    -58 e^2/A, so a drift relative to it measured the seed, not the
    decimation. Charges do not enter any cost, so decimation work is the
    same either way."""
    directions = rng.normal(size=(n, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    r = 0.8 * radius * rng.random(n) ** (1.0 / 3.0)
    return np.column_stack([directions * r[:, None], np.ones(n), np.full(n, 1.5)])


def write_off(path, mesh):
    lines = ["OFF", f"{len(mesh.vertices)} {len(mesh.triangles)} 0"]
    lines += [f"{x!r} {y!r} {z!r}" for x, y, z in mesh.vertices.tolist()]
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_atoms(path, rows):
    lines = ["# x y z charge r_vdw"]
    lines += [" ".join(repr(v) for v in row) for row in rows.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def fingerprint(*items):
    """Hash of round outputs: meshes, traces, arrays, floats and text."""
    h = hashlib.sha256()
    for item in items:
        if hasattr(item, "live_vertex_ids"):
            live = item.live_vertex_ids()
            h.update(item.vertices[live].tobytes())
            h.update(item.live_triangle_array().tobytes())
        elif hasattr(item, "records"):
            h.update(repr(item.records).encode())
        elif isinstance(item, np.ndarray):
            h.update(item.tobytes())
        else:
            h.update(repr(item).encode())
    return h.hexdigest()


# -- shared operations -------------------------------------------------------


def energy(dm, mesh, atoms, rule="1pt"):
    """(G_pol, radii, seconds) of one energy evaluation."""
    gc.collect()
    t0 = clock()
    radii = dm.gb.born_radii(mesh, atoms, rule=rule)
    g = dm.gb.g_pol(atoms, dm.gb.GBParams(), radii=radii)
    return g, radii, clock() - t0


def decimate_each_kind(dm, rnd, mesh, atoms, target, g_in, qe_repeats=1):
    """Decimate a copy of ``mesh`` under every cost kind, then evaluate
    G_pol on each output; fills ``rnd`` work, energy time and drift.

    The qe decimation, several times faster than the others, can be
    repeated, so that its time is sampled about as often."""
    drifts = []
    for kind in KINDS:
        config = dm.decimate.DecimationConfig(cost_kind=kind, target_faces=target)
        repeats = qe_repeats if kind == "qe" else 1
        rnd.attempted += repeats + 1
        try:
            for _ in range(repeats):
                work = mesh.copy()
                gc.collect()
                t0 = clock()
                out, trace = dm.decimate.decimate(
                    work, config, atoms=atoms if kind in GB_KINDS else None)
                dt = clock() - t0
                done = rnd.work.setdefault(kind, [0, 0.0])
                done[0] += trace.n_collapses
                done[1] += dt
            g, radii, dt = energy(dm, out, atoms)
        except dm.errors.DecimeshError as exc:
            rnd.failed += repeats + 1 if kind not in rnd.work else 1
            rnd.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            continue
        rnd.energy_s += dt
        drifts.append(abs(g - g_in) / abs(g_in))
        rnd.outputs[kind] = (config, out, trace, radii, g)
    rnd.drift = sum(drifts) / len(drifts) if drifts else math.nan


def check_each_kind(dm, mesh, atoms, rnd):
    fails = []
    for kind in KINDS:
        if kind not in rnd.outputs:
            continue
        config, out, trace, radii, g = rnd.outputs[kind]
        fails += checks.check_decimation(dm, mesh, atoms, config, out, trace)
        fails += checks.check_energy(out, atoms, "1pt", radii, g, f"{kind} output")
    return fails


def kind_fingerprints(rnd):
    items = []
    for kind in KINDS:
        if kind in rnd.outputs:
            _, out, trace, radii, g = rnd.outputs[kind]
            items += [kind, out, trace, radii, g]
    return items


# -- workloads ---------------------------------------------------------------


# acceptance criterion 2's bound on |R / r_born - 1| per icosphere level
CENTRED_ERROR = {3: 0.02, 4: 0.005}


class MoleculeDecimate:
    """A synthetic molecule decimated once under each cost kind (qe
    three times), G_pol of the input and of each output, and the
    energetics of a crowd of atoms on the same surface.

    The atom file holds the crowd; the molecule is its first
    ``n_atoms`` atoms. The crowd's Born radii and G_pol dominate
    ``energy_s`` and peak memory, as they would for a large protein."""

    name = "molecule-decimate"
    qe_repeats = 3

    def __init__(self, level=4, n_atoms=200, crowd=2000, fraction=0.9):
        self.level, self.n_atoms, self.crowd = level, n_atoms, crowd
        self.target = round(fraction * 20 * 4**level)

    def make_inputs(self, shapes, seed, directory):
        files = {"mesh": directory / "molecule.off", "atoms": directory / "molecule.atoms"}
        write_off(files["mesh"], shapes.icosphere(self.level, radius=RADIUS))
        write_atoms(files["atoms"], molecule_atoms(np.random.default_rng(seed), self.crowd))
        return files

    def load(self, dm, files):
        return dm.io.load_mesh(files["mesh"]), dm.io.load_atoms(files["atoms"])

    def round(self, dm, inputs):
        mesh, crowd = inputs
        atoms = crowd[:self.n_atoms]
        rnd = Round(attempted=2)
        t0 = clock()
        g_in, radii, rnd.energy_s = energy(dm, mesh, atoms)
        decimate_each_kind(dm, rnd, mesh, atoms, self.target, g_in, qe_repeats=self.qe_repeats)
        g_crowd, radii_crowd, dt = energy(dm, mesh, crowd)
        rnd.energy_s += dt
        rnd.wall = clock() - t0
        rnd.outputs["input"] = (radii, g_in)
        rnd.outputs["crowd"] = (radii_crowd, g_crowd)
        rnd.fingerprint = fingerprint(radii, g_in, radii_crowd, g_crowd, *kind_fingerprints(rnd))
        return rnd

    def check(self, dm, inputs, rnd):
        mesh, crowd = inputs
        atoms = crowd[:self.n_atoms]
        radii, g_in = rnd.outputs["input"]
        fails = checks.check_energy(mesh, atoms, "1pt", radii, g_in, "input")
        radii, g = rnd.outputs["crowd"]
        fails += checks.check_energy(mesh, crowd, "1pt", radii, g, f"{len(crowd)} atoms")
        # exact permutation invariance of the pair sum
        perm = np.random.default_rng(0).permutation(len(crowd))
        shuffled = dm.gb.g_pol([crowd[i] for i in perm], dm.gb.GBParams(), radii=radii[perm])
        if shuffled != g:
            fails.append(f"g_pol not invariant under a shuffle: {shuffled!r} != {g!r}")
        # a centred atom sees 1/R within acceptance criterion 2's error
        centred = dm.gb.Atom(center=(0.0, 0.0, 0.0), charge=1.0)
        r = dm.gb.born_radii(mesh, [centred])[0]
        if not abs(RADIUS / r - 1.0) < CENTRED_ERROR[self.level]:
            fails.append(f"centred atom Born radius {r!r}, sphere radius {RADIUS}")
        return fails + check_each_kind(dm, mesh, atoms, rnd)


@contextlib.contextmanager
def report_probes(report, log):
    """Time the decimations and energy evaluations ``run_compare`` makes,
    by wrapping the three names it calls them through."""
    names = ("decimate", "born_radii", "g_pol")
    saved = [getattr(report, n) for n in names]

    def decimate(mesh, config, **kwargs):
        t0 = clock()
        out = saved[0](mesh, config, **kwargs)
        log.append(("decimate", config.cost_kind, out[1].n_collapses, clock() - t0))
        return out

    def timed(fn):
        def call(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            log.append(("energy", None, 0, clock() - t0))
            return out
        return call

    report.decimate = decimate
    report.born_radii = timed(saved[1])
    report.g_pol = timed(saved[2])
    try:
        yield log
    finally:
        for n, fn in zip(names, saved):
            setattr(report, n, fn)


class CompareSweep:
    """``decimesh compare`` through ``cli.cli_main``, writing CSV and JSON.

    The first sweep is the end user's (qe, vol, gb_qe at 50/25/10 %).
    The second gives pb and gb a rate, at 75/50 % only: deeper pb
    decimation of this molecule pulls the surface inside atoms, and
    those rows fail with NonPositiveIntegral on some seeds.
    """

    name = "compare-sweep"
    # reports must be bit-identical across runs apart from wall_time_s,
    # so the check needs a second round even when one fills the run
    needs_two_rounds = True
    sweeps = (("qe,vol,gb_qe", "50%,25%,10%"), ("pb,gb", "75%,50%"))

    def __init__(self, level=3, n_atoms=20, sweeps=None):
        self.level, self.n_atoms = level, n_atoms
        if sweeps is not None:
            self.sweeps = sweeps

    def make_inputs(self, shapes, seed, directory):
        files = {"mesh": directory / "molecule.off", "atoms": directory / "molecule.atoms",
                 "dir": directory}
        write_off(files["mesh"], shapes.icosphere(self.level, radius=RADIUS))
        write_atoms(files["atoms"], molecule_atoms(np.random.default_rng(seed), self.n_atoms))
        return files

    def load(self, dm, files):
        return dm.io.load_mesh(files["mesh"]), dm.io.load_atoms(files["atoms"]), files

    def round(self, dm, inputs):
        _, _, files = inputs
        rnd = Round()
        log = []
        reports = []
        gc.collect()
        t0 = clock()
        with report_probes(dm.report, log):
            for i, (costs, targets) in enumerate(self.sweeps):
                paths = [str(files["dir"] / f"sweep{i}.{ext}") for ext in ("csv", "json")]
                argv = ["compare", "--mesh", str(files["mesh"]), "--atoms", str(files["atoms"]),
                        "--costs", costs, "--targets", targets,
                        "--report", paths[0], "--report", paths[1]]
                n_rows = 1 + len(costs.split(",")) * len(targets.split(","))
                rnd.attempted += n_rows
                with contextlib.redirect_stdout(_stdio.StringIO()), \
                        contextlib.redirect_stderr(_stdio.StringIO()) as err:
                    code = dm.cli.cli_main(argv)
                if code != 0:
                    rnd.failed += n_rows
                    rnd.errors.append(f"compare {costs} exited {code}: {err.getvalue()}")
                    reports.append(None)
                    continue
                reports.append(Path(paths[1]).read_text(encoding="utf-8"))
        rnd.wall = clock() - t0

        for what, kind, collapses, dt in log:
            if what == "decimate":
                done = rnd.work.setdefault(kind, [0, 0.0])
                done[0] += collapses
                done[1] += dt
            else:
                rnd.energy_s += dt
        drifts = []
        for text in filter(None, reports):
            rows = json.loads(text)["rows"]
            errors = [r for r in rows if r["error"] is not None]
            rnd.failed += len(errors)
            rnd.errors += [f"{r['cost_kind']}@{r['target_faces']}: {r['error']}" for r in errors]
            ref = rows[0]["g_pol"]
            if ref is None:
                continue
            drifts += [r["delta_g_pol"] / abs(ref) for r in rows[1:] if r["error"] is None]
        rnd.drift = sum(drifts) / len(drifts) if drifts else math.nan
        rnd.outputs["reports"] = reports
        rnd.fingerprint = fingerprint(*[checks.without_wall_times(t or "") for t in reports])
        return rnd

    def check(self, dm, inputs, rnd):
        mesh, atoms, _ = inputs
        fails = []
        for text, (costs, targets) in zip(rnd.outputs["reports"], self.sweeps):
            if text is not None:
                fails += checks.check_report(text, mesh, atoms, costs, targets)
        return fails


WORKLOADS = {w.name: w for w in (MoleculeDecimate, CompareSweep)}

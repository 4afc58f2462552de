"""Print sha256 digests of the package's outputs, so that a change that
claims bit-identical results can be checked by running this script on
both sides and comparing the JSON it prints.

What it hashes:

- per cost kind, the decimation trace (records, rejections,
  ``stale_pops``, ``queue_exhausted``, ``trace.quality``) and the live
  positions and triangles of the output, on acceptance criterion 4's
  input (uv-sphere 10,240 -> 500 faces, its 12 atoms) and on the
  benchmark's molecule (level-4 sphere of radius 10, 200 atoms, at seeds
  601 and 7, 5,120 -> 4,608 faces);
- Born radii and G_pol under both quadrature rules;
- ``mesh_quadrature``, ``surface_area`` and ``quality_summary`` of a
  perturbed sphere;
- a ``run_compare`` JSON report with its wall times masked;
- ``list(edges())`` and ``estimate_lambda`` on a decimated mesh.

It gates nothing. Run from the repository root:

    PYTHONPATH=src python .github/scripts/fingerprint.py
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np

from decimesh import gb
from decimesh.costs import COST_KINDS, estimate_lambda
from decimesh.decimate import DecimationConfig, decimate
from decimesh.mesh import quality_summary
from decimesh.report import run_compare
from decimesh.shapes import icosphere, uv_sphere


def digest(*items):
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, np.ndarray):
            h.update(item.tobytes())
        else:
            h.update(repr(item).encode())
    return h.hexdigest()


def criterion_4_input():
    mesh = uv_sphere(64, 81, radius=10.0)
    rng = np.random.default_rng(104)
    directions = rng.normal(size=(12, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    atoms = [gb.Atom(center=d * r, charge=1.0)
             for d, r in zip(directions, 8.0 * rng.random(12) ** (1 / 3))]
    return mesh, atoms, 500


def molecule(seed, n=200, level=4, radius=10.0):
    """The benchmark's molecule: an icosphere and the first ``n`` of
    2,000 atoms uniform in a ball of 0.8 * radius, charge +1, van der
    Waals radius 1.5; the target keeps 90 % of the faces."""
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(2000, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    r = 0.8 * radius * rng.random(2000) ** (1.0 / 3.0)
    atoms = [gb.Atom(center=d * s, charge=1.0, vdw_radius=1.5)
             for d, s in zip(directions[:n], r[:n])]
    return icosphere(level, radius=radius), atoms, round(0.9 * 20 * 4**level)


def decimations(name, mesh, atoms, target, out):
    outputs = {}
    for kind in COST_KINDS:
        work, trace = decimate(mesh.copy(), DecimationConfig(kind, target),
                               atoms=atoms if kind.startswith("gb") else None)
        out[f"{name}/{kind}"] = digest(
            trace.records, sorted(trace.rejections.items()), trace.stale_pops,
            trace.queue_exhausted, asdict(trace.quality),
            work.vertices[work.live_vertex_ids()], work.live_triangle_array())
        outputs[kind] = work
    return outputs


def main():
    out = {}
    decimations("criterion4", *criterion_4_input(), out)
    for seed in (601, 7):
        mesh, atoms, target = molecule(seed)
        outputs = decimations(f"molecule{seed}", mesh, atoms, target, out)

    # seed 7's input, and its gb_qe output below
    for rule in ("1pt", "3pt"):
        radii = gb.born_radii(mesh, atoms, rule=rule)
        out[f"energy/{rule}"] = digest(radii, gb.g_pol(atoms, gb.GBParams(), radii=radii))

    bumpy = icosphere(4, radius=10.0)
    bumpy.vertices += np.random.default_rng(3).normal(scale=0.15, size=bumpy.vertices.shape)
    for rule in ("1pt", "3pt"):
        out[f"quadrature/{rule}"] = digest(*gb.mesh_quadrature(bumpy, rule))
    out["surface_area"] = digest(gb.surface_area(bumpy))
    out["quality_summary"] = digest(asdict(quality_summary(bumpy)))

    decimated = outputs["gb_qe"]
    out["edges"] = digest(list(decimated.edges()))
    out["estimate_lambda"] = digest(estimate_lambda(decimated, atoms, n_edges=300, seed=1))

    small, small_atoms, _ = molecule(7, n=20, level=3)
    report = run_compare(small, small_atoms, list(COST_KINDS), ["50%", "25%"])
    for row in report.rows:
        row.wall_time_s = None
    out["run_compare"] = digest(report.to_json())

    print(json.dumps(out, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()

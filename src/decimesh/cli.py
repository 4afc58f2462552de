"""Command-line interface.

Subcommands: ``validate`` (mesh invariants and counts), ``decimate``
(collapse to a face target under a chosen cost), ``energy`` (Born radii
and polarization energy), ``compare`` (the cost-function sweep).

Exit codes: 0 success, 1 input/usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .costs import COST_KINDS
from .decimate import DecimationConfig, decimate
from .errors import DecimeshError, InputError, MissingAtoms, NumericalError, _check_real
from .gb import (
    GBParams,
    KCAL_PER_E2_ANGSTROM,
    born_radii,
    g_pol,
    quadrature_rule,
    surface_area,
)
from .io import _mesh_out_path, load_atoms, load_mesh, save_mesh
from .mesh import validate as validate_mesh
from .report import HarnessParams, check_sweep, report_format, run_compare


class UsageError(InputError):
    """Bad command line (argparse error surfaced as an input error)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="decimesh", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # flags that several subcommands take, each declared once
    mesh = argparse.ArgumentParser(add_help=False)
    mesh.add_argument("--mesh", required=True)
    energetics = argparse.ArgumentParser(add_help=False)
    energetics.add_argument("--atoms", required=True)
    energetics.add_argument("--quadrature", choices=["1pt", "3pt"], default="1pt")
    energetics.add_argument("--eps-p", type=float, default=HarnessParams.eps_p)
    energetics.add_argument("--eps-w", type=float, default=HarnessParams.eps_w)
    gb_cost = argparse.ArgumentParser(add_help=False)
    gb_cost.add_argument("--rho", type=float, default=HarnessParams.rho)
    gb_cost.add_argument("--lambda", dest="lam", type=float, default=HarnessParams.lam)

    sub.add_parser("validate", parents=[mesh], help="check mesh invariants and print counts")

    p = sub.add_parser("decimate", parents=[mesh, gb_cost],
                       help="collapse edges down to a face target")
    p.add_argument("--cost", required=True, choices=COST_KINDS)
    p.add_argument("--target-faces", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--atoms")
    p.add_argument("--no-veto-flips", action="store_true",
                   help="apply collapses even when a ring triangle flips")
    p.add_argument("--validate-every", type=int, default=DecimationConfig.validate_every,
                   metavar="K", help="run full validation every K collapses (0 = off)")

    p = sub.add_parser("energy", parents=[mesh, energetics],
                       help="Born radii and polarization energy")
    p.add_argument("--gamma", type=float, default=HarnessParams.gamma)
    p.add_argument("--units", choices=["raw", "kcal"], default="raw")

    p = sub.add_parser("compare", parents=[mesh, energetics, gb_cost],
                       help="decimate under several costs and compare")
    p.add_argument("--costs", required=True,
                   help="comma-separated cost kinds, e.g. qe,vol,gb_qe")
    p.add_argument("--targets", required=True,
                   help="comma-separated face targets (counts or percents)")
    p.add_argument("--report", action="append", required=True,
                   help="output path ending in .csv or .json (repeatable)")
    return parser


def _cmd_validate(args):
    mesh = load_mesh(args.mesh, validate_mesh=False)
    stats = validate_mesh(mesh)
    print(f"vertices        {stats.n_vertices}")
    print(f"edges           {stats.n_edges}")
    print(f"faces           {stats.n_faces}")
    print(f"euler_char      {stats.euler_characteristic}")
    print(f"closed_manifold {stats.is_closed_manifold}")
    return 0


def _cmd_decimate(args):
    _mesh_out_path(args.out)
    mesh = load_mesh(args.mesh)
    atoms = load_atoms(args.atoms) if args.atoms else None
    config = DecimationConfig(
        cost_kind=args.cost,
        target_faces=args.target_faces,
        rho=args.rho,
        lam=args.lam,
        veto_flips=not args.no_veto_flips,
        validate_every=args.validate_every,
    )
    faces0 = mesh.n_faces
    mesh, trace = decimate(mesh, config, atoms=atoms)
    save_mesh(mesh, args.out)
    print(f"faces           {faces0} -> {mesh.n_faces}")
    print(f"collapses       {trace.n_collapses}")
    print(f"queue_exhausted {trace.queue_exhausted}")
    if trace.rejections:
        rej = ", ".join(f"{k}={v}" for k, v in sorted(trace.rejections.items()))
        print(f"rejections      {rej}")
    print(f"wrote           {args.out}")
    return 0


def _cmd_energy(args):
    _check_real("gamma", args.gamma, positive=False)
    params = GBParams(eps_p=args.eps_p, eps_w=args.eps_w)
    mesh = load_mesh(args.mesh)
    atoms = load_atoms(args.atoms)
    if not atoms:
        raise MissingAtoms(f"atom file {args.atoms} holds no atoms")
    rule = quadrature_rule(args.quadrature)
    radii = born_radii(mesh, atoms, rule=rule)
    energy = g_pol(atoms, params, radii=radii)
    area = surface_area(mesh)
    nonpolar = args.gamma * area
    unit = "e^2/A"
    if args.units == "kcal":
        energy *= KCAL_PER_E2_ANGSTROM
        nonpolar *= KCAL_PER_E2_ANGSTROM
        unit = "kcal/mol"
    print(f"atoms         {len(atoms)}")
    print(f"born_radius   min {radii.min():.6g}  max {radii.max():.6g}  (A)")
    print(f"surface_area  {area!r} A^2")
    print(f"G_pol         {energy!r} {unit}")
    print(f"G_nonpolar    {nonpolar!r} {unit} (gamma*area placeholder)")
    return 0


def _cmd_compare(args):
    for path in args.report:
        report_format(path)
    costs = [c.strip() for c in args.costs.split(",") if c.strip()]
    targets = [t.strip() for t in args.targets.split(",") if t.strip()]
    params = HarnessParams(
        rho=args.rho,
        lam=args.lam,
        eps_p=args.eps_p,
        eps_w=args.eps_w,
        quadrature=args.quadrature,
    )
    check_sweep(costs)
    mesh = load_mesh(args.mesh)
    atoms = load_atoms(args.atoms)
    report = run_compare(mesh, atoms, costs, targets, params=params)
    for path in args.report:
        report.write(path)
        print(f"wrote {path}")
    failed = [r for r in report.rows if r.error]
    print(f"rows {len(report.rows)} ({len(failed)} failed)")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "decimate": _cmd_decimate,
    "energy": _cmd_energy,
    "compare": _cmd_compare,
}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"run '{parser.prog} --help' for usage", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (DecimeshError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(cli_main())

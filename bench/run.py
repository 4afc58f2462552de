"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload molecule-decimate --seed 1 --seconds 60 --trace 0

Run from the repository root: the program is imported from ``src/``.
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` untraced and traced rounds alternate and the result holds
the per-layer metrics, and the spans are written to
``.bench_out/traces/``. See bench/README.md.
"""

from __future__ import annotations

import os
import sys

# hold BLAS and OpenMP pools to the cores this process may use; this
# must happen before numpy is first imported
_CORES = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    _cur = os.environ.get(_var, "")
    if not _cur.isdigit() or not 0 < int(_cur) <= _CORES:
        os.environ[_var] = str(_CORES)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import KINDS, WORKLOADS  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 20
MODULES = ("cli", "costs", "decimate", "errors", "gb", "grid", "io", "mesh",
           "quadrics", "report", "shapes")

END_TO_END = [
    # (name, unit)
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("collapses_per_s.qe", "1/s"),
    ("collapses_per_s.vol", "1/s"),
    ("collapses_per_s.pb", "1/s"),
    ("collapses_per_s.gb", "1/s"),
    ("collapses_per_s.gb_qe", "1/s"),
    ("energy_s", "s"),
    ("peak_rss_mb", "MB"),
    ("gpol_drift", "relative"),
]


def import_program():
    """Import ``decimesh`` afresh from ``src/`` and return its modules.

    ``decimesh.decimate`` is rebound to the function by the package
    ``__init__``, so the modules are reached through importlib."""
    for name in [m for m in sys.modules if m == "decimesh" or m.startswith("decimesh.")]:
        del sys.modules[name]
    package = importlib.import_module("decimesh")
    return types.SimpleNamespace(
        package=package,
        **{m: importlib.import_module(f"decimesh.{m}") for m in MODULES},
    )


def setup(workload, files):
    """Import the program and read the inputs, SETUP_REPEATS times.

    Returns (modules, inputs, median set-up seconds, median parse
    seconds); numpy is already loaded, so the import is decimesh's own."""
    totals, parses = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        dm = import_program()
        t1 = time.perf_counter()
        inputs = workload.load(dm, files)
        t2 = time.perf_counter()
        totals.append(t2 - t0)
        parses.append(t2 - t1)
    return dm, inputs, statistics.median(totals), statistics.median(parses)


def run_rounds(workload, dm, inputs, seconds, tracer=None):
    """Whole rounds until the next one would pass ``seconds``.

    Without a tracer every round is untraced. With one, rounds alternate
    untraced / traced, starting untraced, with at least one of each.
    Returns (untraced rounds, traced rounds)."""
    from tracing import instrument

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(traced) < len(plain)
        if use_trace:
            with instrument(dm, tracer):
                last = workload.round(dm, inputs)
            traced.append(last)
        else:
            last = workload.round(dm, inputs)
            plain.append(last)
        if len(plain) + len(traced) > 1:
            # only the first round's outputs are checked; later rounds
            # keep their fingerprint, so memory does not grow per round
            last.outputs = None
        if tracer is not None and not traced:
            continue
        elapsed = time.perf_counter() - start
        if elapsed + last.wall > seconds:
            return plain, traced


def end_to_end(rounds, setup_s, rss_mb):
    """The end-to-end metrics of the untraced rounds.

    Times are totals over the whole run divided by what they timed (the
    round count, or the collapses), not medians over rounds: the host's
    speed flips between a fast and a slow state every second or so, and
    a median of the five to fifteen samples a run holds jumps between
    the two, where a total averages them."""
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(r.wall for r in rounds),
        "energy_s": statistics.fmean(r.energy_s for r in rounds),
        "peak_rss_mb": rss_mb,
        "gpol_drift": rounds[0].drift,
    }
    for kind in KINDS:
        done = [r.work[kind] for r in rounds if kind in r.work]
        seconds = sum(t for _, t in done)
        values[f"collapses_per_s.{kind}"] = sum(c for c, _ in done) / seconds if done else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None):

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "decimesh" / "__init__.py").is_file():
        print(f"error: no decimesh package under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    work_dir = OUT / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        shapes = importlib.import_module("decimesh.shapes")
        files = workload.make_inputs(shapes, args.seed, work_dir)
        dm, inputs, setup_s, parse_s = setup(workload, files)
        if not Path(dm.package.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: decimesh imported from {dm.package.__file__}", file=sys.stderr)
            return 2

        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        plain, traced = run_rounds(workload, dm, inputs, args.seconds, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds = plain + traced
        if len(rounds) < 2 and getattr(workload, "needs_two_rounds", False):
            rounds.append(workload.round(dm, inputs))
        first = rounds[0]

        t_check = time.perf_counter()
        failures = workload.check(dm, inputs, first)
        for i, r in enumerate(rounds[1:], start=2):
            if r.fingerprint != first.fingerprint:
                failures.append(f"round {i} outputs differ from round 1")
        for r in rounds:
            for msg in r.errors:
                print(f"failed operation: {msg}", file=sys.stderr)
        for msg in failures:
            print(f"check failed: {msg}", file=sys.stderr)
        print(f"{workload.name}: set-up {setup_s:.3f} s, {len(plain)} untraced and "
              f"{len(traced)} traced rounds of {[round(r.wall, 2) for r in rounds]} s, "
              f"checks {time.perf_counter() - t_check:.1f} s", file=sys.stderr)

        if tracer is None:
            metrics = end_to_end(plain, setup_s, rss_mb)
        else:
            from tracing import g_pol_peak_mb, layer_metrics
            overhead = (statistics.fmean(r.wall for r in traced)
                        - statistics.fmean(r.wall for r in plain))
            metrics = layer_metrics(tracer, len(traced), parse_s, overhead,
                                    g_pol_peak_mb(tracer, dm.gb.g_pol))
            trace_dir = OUT / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            tracer.save(trace_dir / f"{workload.name}-seed{args.seed}.npz")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

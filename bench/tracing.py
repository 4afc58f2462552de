"""Span tracing from outside the program, and the per-layer metrics.

The traced run replaces names that ``decimesh`` modules look up at call
time (module functions, ``Decimator`` methods, ``UniformGrid.query_ball``
and ``ComparisonReport.write``) with wrappers that record one span per
call: name, start, end and the enclosing span. Spans stay in memory and
are written out when the run ends. A layer's self time is its spans'
duration minus the part their child spans cover.
"""

from __future__ import annotations

import time
import tracemalloc
import types
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = []
        self.start = []
        self.end = []
        self.parent = []
        self._stack = [-1]
        self.counts = defaultdict(float)
        # largest g_pol call seen, replayed under tracemalloc at the end
        self.largest_g_pol = None

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span named ``name`` per call; ``count``,
        if given, is called as ``count(counts, args, kwargs, result)``."""
        nid = self._id(name)
        clock = time.perf_counter
        name_id, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        stack = self._stack
        counts = self.counts

        def traced(*args, **kwargs):
            i = len(starts)
            name_id.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def arrays(self):
        name_id = np.asarray(self.name_id, dtype=np.int64)
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        parent = np.asarray(self.parent, dtype=np.int64)
        return name_id, start, end, parent

    def totals(self):
        """name -> (calls, total seconds, self seconds)."""
        name_id, start, end, parent = self.arrays()
        n_names = len(self.names)
        if len(name_id) == 0:
            return {}
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        calls = np.bincount(name_id, minlength=n_names)
        total = np.bincount(name_id, weights=dur, minlength=n_names)
        self_t = np.bincount(name_id, weights=own, minlength=n_names)
        return {
            name: (int(calls[k]), float(total[k]), float(self_t[k]))
            for k, name in enumerate(self.names)
        }

    def save(self, path):
        name_id, start, end, parent = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id,
            start=start, end=end, parent=parent,
        )


# -- counters -------------------------------------------------------------


def _count_edges(counts, args, kwargs, result):
    counts["candidates"] += len(args[1])


def _count_run(counts, args, kwargs, result):
    trace = result[1]
    counts["collapses"] += trace.n_collapses
    counts["stale_pops"] += trace.stale_pops
    rejected = sum(trace.rejections.values())
    counts["rejections"] += rejected
    # infeasible candidates are dropped at push time, never popped
    counts["pops"] += (trace.n_collapses + trace.stale_pops + rejected
                       - trace.rejections.get("infeasible_candidate", 0))


def _count_report_decimate(counts, args, kwargs, result):
    counts["report.decimations"] += 1
    counts["report.collapses"] += result[1].n_collapses


def _counter_born_radii(gb):
    def count(counts, args, kwargs, result):
        mesh, atoms = args[0], args[1]
        rule = kwargs.get("rule", args[2] if len(args) > 2 else gb.CENTROID_1PT)
        nodes = len(gb.quadrature_rule(rule).barycentric)
        counts["node_atom_pairs"] += mesh.n_faces * nodes * len(atoms)
    return count


def _counter_g_pol(tracer):
    def count(counts, args, kwargs, result):
        n = len(args[0])
        counts["pair_terms"] += n * n
        best = tracer.largest_g_pol
        if best is None or n > len(best[0][0]):
            tracer.largest_g_pol = (args, kwargs)
    return count


@contextmanager
def instrument(dm, tracer):
    """Patch the call-time names of ``dm``'s modules with span wrappers
    for the duration of the block; restores every name on exit."""
    dec, rep, gb, cli, costs = dm.decimate, dm.report, dm.gb, dm.cli, dm.costs
    D = dec.Decimator
    sha = types.SimpleNamespace(sha256=rep.hashlib.sha256)
    targets = [
        (D, "run", "decimate.run", _count_run),
        (D, "build_queue", "decimate.build_queue", None),
        (D, "step", "decimate.step", None),
        (D, "refresh", "decimate.refresh", None),
        (D, "_batch_refresh", "decimate.batch_refresh", None),
        (D, "_recompute_quadric_rows", "decimate.quadric_rows", None),
        (D, "_push_edges", "decimate.push_edges", None),
        (D, "_candidates", "decimate.candidates", _count_edges),
        (D, "_push_batch", "decimate.push_batch", None),
        (D, "_batch_candidates", "decimate.batch_candidates", _count_edges),
        (D, "_compact_heap", "decimate.compact", None),
        (dec, "edge_star", "mesh.edge_star", None),
        (dec, "can_collapse", "mesh.can_collapse", None),
        (dec, "_changed_normal_flips", "mesh.flip_check", None),
        (dec, "_apply_collapse", "mesh.apply_collapse", None),
        (dec, "validate", "mesh.validate", None),
        (dec, "quality_summary", "mesh.quality_summary", None),
        (dec, "minimize_quadric", "quadrics.minimize", None),
        (costs, "minimize_quadric", "quadrics.minimize", None),
        (dec, "vol_quadric", "costs.vol_quadric", None),
        (dec, "pb_placements", "costs.pb_engine", None),
        (dec, "placement_for", "costs.placement", None),
        (dec, "grid_build", "grid.build", None),
        (dm.grid.UniformGrid, "query_ball", "grid.query_ball", None),
        (gb, "born_radii", "gb.born_radii", _counter_born_radii(gb)),
        (gb, "mesh_quadrature", "gb.quadrature", None),
        (gb, "g_pol", "gb.g_pol", _counter_g_pol(tracer)),
        (rep, "decimate", "report.decimate", _count_report_decimate),
        (rep, "_measure", "report.measure", None),
        (rep, "born_radii", "gb.born_radii", _counter_born_radii(gb)),
        (rep, "g_pol", "gb.g_pol", _counter_g_pol(tracer)),
        (rep, "quality_summary", "mesh.quality_summary", None),
        (rep, "write_off", "report.checksum", None),
        (rep, "write_atoms", "report.checksum", None),
        (sha, "sha256", "report.checksum", None),
        (rep.ComparisonReport, "write", "io.write", None),
        (cli, "load_mesh", "io.parse", None),
        (cli, "load_atoms", "io.parse", None),
        (cli, "run_compare", "report.run_compare", None),
        (cli, "cli_main", "cli", None),
    ]
    saved = []
    real_hashlib = rep.hashlib
    try:
        for owner, attr, name, count in targets:
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(name, orig, count))
        rep.hashlib = sha
        yield tracer
    finally:
        rep.hashlib = real_hashlib
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def g_pol_peak_mb(tracer, g_pol):
    """Peak traced allocation (MB) of the largest ``g_pol`` call seen,
    replayed once under tracemalloc outside every timed span."""
    if tracer.largest_g_pol is None:
        return 0.0
    args, kwargs = tracer.largest_g_pol
    tracemalloc.start()
    try:
        g_pol(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


PER_LAYER = [
    # (name, unit, better)
    ("decimate.build_queue_s", "s", "lower"),
    ("decimate.step_self_s", "s", "lower"),
    ("decimate.refresh_s", "s", "lower"),
    ("decimate.qe_engine_s", "s", "lower"),
    ("decimate.push_self_s", "s", "lower"),
    ("decimate.compact_s", "s", "lower"),
    ("decimate.compactions", "count", "lower"),
    ("decimate.candidates", "count", "lower"),
    ("decimate.candidates_per_collapse", "count", "lower"),
    ("decimate.stale_pops", "count", "lower"),
    ("decimate.rejections", "count", "lower"),
    ("decimate.useful_pop_ratio", "ratio", "higher"),
    ("mesh.edge_star_s", "s", "lower"),
    ("mesh.edge_star_calls", "count", "lower"),
    ("mesh.can_collapse_s", "s", "lower"),
    ("mesh.flip_check_s", "s", "lower"),
    ("mesh.apply_collapse_s", "s", "lower"),
    ("mesh.validate_s", "s", "lower"),
    ("mesh.validate_calls", "count", "lower"),
    ("mesh.quality_summary_s", "s", "lower"),
    ("quadrics.minimize_s", "s", "lower"),
    ("quadrics.minimize_calls", "count", "lower"),
    ("costs.vol_quadric_s", "s", "lower"),
    ("costs.pb_engine_s", "s", "lower"),
    ("costs.placement_s", "s", "lower"),
    ("grid.build_s", "s", "lower"),
    ("grid.query_ball_s", "s", "lower"),
    ("grid.query_ball_calls", "count", "lower"),
    ("gb.born_radii_s", "s", "lower"),
    ("gb.quadrature_s", "s", "lower"),
    ("gb.g_pol_s", "s", "lower"),
    ("gb.g_pol_peak_mb", "MB", "lower"),
    ("gb.node_atom_pairs", "count", "lower"),
    ("gb.pair_terms", "count", "lower"),
    ("report.decimations", "count", "lower"),
    ("report.collapses_total", "count", "lower"),
    ("report.decimate_s", "s", "lower"),
    ("report.measure_s", "s", "lower"),
    ("report.checksum_s", "s", "lower"),
    ("io.parse_s", "s", "lower"),
    ("io.write_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(tracer, n_rounds, parse_s, overhead_s, g_pol_peak):
    """Per-layer values per traced round, keyed by PER_LAYER names.

    ``parse_s`` is the set-up parse time, to which the parses inside the
    rounds (the CLI's) are added."""
    tot = tracer.totals()
    c = tracer.counts

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0] / n_rounds

    def total(*names):
        return sum(tot.get(n, (0, 0.0, 0.0))[1] for n in names) / n_rounds

    def own(*names):
        return sum(tot.get(n, (0, 0.0, 0.0))[2] for n in names) / n_rounds

    collapses = c["collapses"]
    values = {
        "decimate.build_queue_s": total("decimate.build_queue"),
        "decimate.step_self_s": own("decimate.step"),
        "decimate.refresh_s": own("decimate.refresh", "decimate.batch_refresh")
        + total("decimate.quadric_rows"),
        "decimate.qe_engine_s": total("decimate.batch_candidates")
        + own("decimate.push_batch"),
        "decimate.push_self_s": own("decimate.push_edges", "decimate.candidates"),
        "decimate.compact_s": total("decimate.compact"),
        "decimate.compactions": calls("decimate.compact"),
        "decimate.candidates": c["candidates"] / n_rounds,
        "decimate.candidates_per_collapse": c["candidates"] / collapses if collapses else 0.0,
        "decimate.stale_pops": c["stale_pops"] / n_rounds,
        "decimate.rejections": c["rejections"] / n_rounds,
        "decimate.useful_pop_ratio": collapses / c["pops"] if c["pops"] else 0.0,
        "mesh.edge_star_s": total("mesh.edge_star"),
        "mesh.edge_star_calls": calls("mesh.edge_star"),
        "mesh.can_collapse_s": total("mesh.can_collapse"),
        "mesh.flip_check_s": total("mesh.flip_check"),
        "mesh.apply_collapse_s": total("mesh.apply_collapse"),
        "mesh.validate_s": total("mesh.validate"),
        "mesh.validate_calls": calls("mesh.validate"),
        "mesh.quality_summary_s": total("mesh.quality_summary"),
        "quadrics.minimize_s": total("quadrics.minimize"),
        "quadrics.minimize_calls": calls("quadrics.minimize"),
        "costs.vol_quadric_s": total("costs.vol_quadric"),
        "costs.pb_engine_s": total("costs.pb_engine"),
        "costs.placement_s": own("costs.placement"),
        "grid.build_s": total("grid.build"),
        "grid.query_ball_s": total("grid.query_ball"),
        "grid.query_ball_calls": calls("grid.query_ball"),
        "gb.born_radii_s": own("gb.born_radii"),
        "gb.quadrature_s": total("gb.quadrature"),
        "gb.g_pol_s": total("gb.g_pol"),
        "gb.g_pol_peak_mb": g_pol_peak,
        "gb.node_atom_pairs": c["node_atom_pairs"] / n_rounds,
        "gb.pair_terms": c["pair_terms"] / n_rounds,
        "report.decimations": c["report.decimations"] / n_rounds,
        "report.collapses_total": c["report.collapses"] / n_rounds,
        "report.decimate_s": total("report.decimate"),
        "report.measure_s": total("report.measure"),
        "report.checksum_s": total("report.checksum"),
        "io.parse_s": parse_s + total("io.parse"),
        "io.write_s": total("io.write"),
        "cli.self_s": own("cli"),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


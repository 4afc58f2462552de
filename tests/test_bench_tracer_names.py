"""The benchmark's span tracer (``bench/tracing.py``) wraps names that
the package's modules look up at call time. Every name it patches must
resolve, and leaving the tracer must restore each one."""

import importlib
import importlib.util
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
MODULES = ("decimate", "report", "gb", "cli", "costs", "grid")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_name():
    tracing = load_tracing()
    dm = types.SimpleNamespace(
        **{m: importlib.import_module(f"decimesh.{m}") for m in MODULES}
    )
    owners = [*vars(dm).values(), dm.decimate.Decimator, dm.grid.UniformGrid,
              dm.report.ComparisonReport]
    before = [dict(vars(owner)) for owner in owners]
    batch_refresh = dm.decimate.Decimator._batch_refresh
    with tracing.instrument(dm, tracing.Tracer()):
        assert dm.decimate.Decimator._batch_refresh is not batch_refresh
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert now.keys() == saved.keys()
        assert [k for k, v in saved.items() if now[k] is not v] == []

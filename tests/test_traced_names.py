"""The benchmark's tracer patches chipcost functions by name: each one it
names must still be defined, under that name, in some chipcost module.
It sizes their results by field names, which must still be there."""

import importlib.util
import os
import sys

import chipcost

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_is_a_chipcost_function():
    tracing = _load_tracing()
    # the lookup Tracer.install makes
    modules = [m for n, m in sys.modules.items()
               if n == chipcost.__name__
               or n.startswith(chipcost.__name__ + ".")]
    missing = [name for name in tracing.TRACED
               if not any(getattr(getattr(m, name, None), "__module__", None)
                          == m.__name__ for m in modules)]
    assert not missing


def test_the_traced_sizes_count_chips_and_nodes(gp_system):
    """The tracer's derive.chips and engine.nodes find a result by the
    fields `matrices` and `infeasible_paths`: a rename would zero them."""
    tracing = _load_tracing()
    ds = chipcost.derive(gp_system)
    chips = sum(1 for _ in gp_system.root.walk())
    assert chips > 1
    assert tracing._size(ds) == chips
    report = chipcost.evaluate(ds)
    assert tracing._size(report) == len(report.nodes) == chips

"""The benchmark's tracer patches chipcost functions by name: each one it
names must still be defined, under that name, in some chipcost module."""

import importlib.util
import os
import sys

import chipcost

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")


def test_every_traced_name_is_a_chipcost_function():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # the lookup Tracer.install makes
    modules = [m for n, m in sys.modules.items()
               if n == chipcost.__name__
               or n.startswith(chipcost.__name__ + ".")]
    missing = [name for name in tracing.TRACED
               if not any(getattr(getattr(m, name, None), "__module__", None)
                          == m.__name__ for m in modules)]
    assert not missing

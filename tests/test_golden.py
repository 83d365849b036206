"""Byte-identity of every shipped output against committed digests.

A refactor must leave these unchanged. A deliberate change of numbers
regenerates them with `tests/golden/regenerate.py`, whose `--check` runs
the same comparison under any interpreter; the digests hold from Python
3.10 on because no float total goes through sum() (checked here on the
running version by swapping in a compensated sum, and under each other
python3.10 to python3.14 that starts, on PATH or installed by pyenv).
"""
import builtins
import dataclasses
import glob
import importlib
import math
import os
import shutil
import subprocess
import sys

import pytest

import chipcost as cc
from gensys import make_system
from golden.regenerate import SRC, compute, differing, load

REGENERATE = os.path.join(os.path.dirname(__file__), "golden",
                          "regenerate.py")
OTHER_PYTHONS = [f"python3.{minor}" for minor in range(10, 15)
                 if minor != sys.version_info.minor]


def test_outputs_match_golden_digests():
    moved = differing(compute(), load())
    assert not moved, f"outputs changed: {moved}"


def _interpreter(name: str, env: dict) -> str | None:
    """The first interpreter called `name` that starts: the one on PATH,
    else one installed under $PYENV_ROOT (default ~/.pyenv), whose shims
    on PATH can fail to start for a version the shell does not select."""
    root = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    version = name.removeprefix("python")
    installed = sorted(glob.glob(os.path.join(root, "versions",
                                              f"{version}.*", "bin", name)))
    for exe in (shutil.which(name), *installed):
        if exe is not None and subprocess.run(
                [exe, "-c", ""], env=env, capture_output=True,
                timeout=60).returncode == 0:
            return exe
    return None


@pytest.mark.parametrize("name", OTHER_PYTHONS)
def test_outputs_match_golden_digests_under_other_pythons(name):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    exe = _interpreter(name, env)
    if exe is None:
        pytest.skip(f"{name} does not start")
    proc = subprocess.run([exe, REGENERATE, "--check"], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, f"{name}: {proc.stdout}{proc.stderr}"


def _compensated_sum(values, start=0):
    """sum() as Python 3.12 and later compute it for floats, a compensated
    total (here the exactly rounded one); ints add exactly either way."""
    values = [start, *values]
    if all(isinstance(v, int) for v in values):
        return builtins.sum(values)
    return math.fsum(values)


def _three_mask_system() -> cc.ValidatedSystem:
    """make_system(0) with its root on three layers whose mask costs,
    1e7, 0.1 and 0.2, add up differently left to right and exactly
    rounded."""
    system = make_system(0)
    layers = {name: dataclasses.replace(system.library.layers["l0"],
                                        name=name, mask_cost=cost)
              for name, cost in (("l0", 1e7), ("l1", 0.1), ("l2", 0.2))}
    return cc.validate_system(
        dataclasses.replace(system.root, layers=tuple(layers)), system.nets,
        dataclasses.replace(system.library, layers=layers))


def test_reports_do_not_depend_on_how_sum_adds_floats(monkeypatch):
    """The digests hold on Python 3.10 to 3.13 only if no float total in
    derive or evaluate goes through sum(), whose rounding changed in 3.12."""
    systems = [make_system(seed) for seed in range(12)]
    systems.append(_three_mask_system())

    def outputs():
        reports = [cc.evaluate(cc.derive(s)) for s in systems]
        return [(cc.report_to_json(r), cc.report_to_csv(r)) for r in reports]

    want = outputs()
    for name in ("chipcost.derive", "chipcost.engine"):
        monkeypatch.setattr(importlib.import_module(name), "sum",
                            _compensated_sum, raising=False)
    assert outputs() == want

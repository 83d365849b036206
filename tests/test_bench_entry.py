"""The benchmark's own entry points on generated inputs. perfbench/child.py
calls run_sweep with jobs, the parsers and report_to_json; a change that
breaks one of those calls fails here, as does a row or report that
perfbench/checks.py refuses. The perfbench modules are loaded by path."""
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"_bench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _child(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "child.py"), *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_benchmark_children_run_tile_split(tmp_path):
    inputs = str(tmp_path / "inputs")
    _load("gen").generate("tile_split", 1, inputs)
    rows = {}
    for jobs in (1, 2):
        path = tmp_path / f"rows_jobs{jobs}.json"
        result = _child("sweep", "--inputs", inputs, "--jobs", str(jobs),
                        "--rows", str(path))
        rows[jobs] = json.loads(path.read_text(encoding="utf-8"))
        assert result["points"] == len(rows[jobs]) > 0
    assert rows[2] == rows[1]
    report = tmp_path / "eval.json"
    _child("eval", "--inputs", inputs, "--out", str(report))
    checker = _load("checks").Checker("tile_split", inputs)
    assert checker.row_failures(rows[1]) == {}
    assert checker.row_mismatches(rows[2], rows[1]) == {}
    assert checker.report_failures(
        json.loads(report.read_text(encoding="utf-8"))) == []

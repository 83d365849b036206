"""CLI fuzz: one attribute of a shipped config set to a hostile value.

Whatever the value, the CLI must finish with exit code 0, 2 or 3 and
print no traceback, and a clean exit (0) must report a finite cost. Each
case runs the CLI in its own process under a
generous timeout, which is what catches a hang.
"""
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CONFIGS

SRC = os.path.join(os.path.dirname(CONFIGS), "src")
INPUTS = ("library.xml", "system.xml", "netlist.xml")
STUDIES = {"coverage_study": ("coverage_sweep.xml",),
           "graph_processor": ("chiplet_sweep.xml", "defect_sweep.xml")}
VALUES = ("1e308", "1e20", "-1", "abc", "", "0", "1e-308")
TIMEOUT_S = 60


def _attributes() -> list[tuple[str, str, int, str]]:
    """(study, file, element index in document order, attribute) of every
    attribute the shipped configs set."""
    out = []
    for study, sweeps in sorted(STUDIES.items()):
        for fname in INPUTS + sweeps:
            root = ET.parse(os.path.join(CONFIGS, study, fname)).getroot()
            for index, elem in enumerate(root.iter()):
                out.extend((study, fname, index, attr)
                           for attr in sorted(elem.attrib))
    return out


ATTRIBUTES = _attributes()


def run_mutated(study: str, fname: str, index: int, attr: str,
                value: str) -> tuple[subprocess.CompletedProcess, str | None]:
    """`chipcost eval` on the study, or `chipcost sweep` when the mutated
    file is a sweep, with one attribute set to value: the process, and
    the report it wrote (None if it wrote none)."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in INPUTS + STUDIES[study]:
            tree = ET.parse(os.path.join(CONFIGS, study, name))
            if name == fname:
                list(tree.getroot().iter())[index].set(attr, value)
            tree.write(os.path.join(tmp, name))
        argv = ["--system", os.path.join(tmp, "system.xml"),
                "--netlist", os.path.join(tmp, "netlist.xml"),
                "--library", os.path.join(tmp, "library.xml"),
                "--out", os.path.join(tmp, "out")]
        if fname in INPUTS:
            argv = ["eval"] + argv
        else:
            argv = ["sweep"] + argv + ["--sweep", os.path.join(tmp, fname)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "chipcost.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=TIMEOUT_S)
        out = os.path.join(tmp, "out")
        if not os.path.exists(out):
            return proc, None
        with open(out, encoding="utf-8") as fh:
            return proc, fh.read()


def cost_totals(fname: str, report: str) -> list[float]:
    """cost_total of an eval JSON report (inf for null), or of each row
    of a sweep CSV."""
    if fname in INPUTS:
        total = json.loads(report)["cost_total"]
        return [math.inf if total is None else total]
    lines = [ln for ln in report.splitlines() if not ln.startswith("#")]
    return [float(row["cost_total"]) for row in csv.DictReader(lines)]


@settings(max_examples=40, deadline=None)
@given(target=st.sampled_from(ATTRIBUTES), value=st.sampled_from(VALUES))
# an overflowed die area reached int() in reticle_fit
@example(target=("graph_processor", "netlist.xml", 1, "bandwidth"),
         value="1e308")
# an overflowed power pad count reached int() in power_pad_count
@example(target=("graph_processor", "system.xml", 1, "core_power"),
         value="1e308")
# the pad band cancelled, and die growth crept one pitch at a time
@example(target=("graph_processor", "netlist.xml", 1, "bandwidth"),
         value="1e20")
# the test cost, the assembly cost and the NRE overflowed to inf, yet
# the node was not tagged infeasible and the CLI exited 0
@example(target=("graph_processor", "library.xml", 8, "clock_period"),
         value="1e308")
@example(target=("graph_processor", "library.xml", 7, "pick_place_rate"),
         value="1e308")
@example(target=("graph_processor", "library.xml", 5, "nre_fe_logic"),
         value="1e308")
def test_one_hostile_attribute_exits_cleanly(target, value):
    proc, report = run_mutated(*target, value)
    assert proc.returncode in (0, 2, 3), (target, value, proc.stderr)
    assert "Traceback" not in proc.stderr, (target, value, proc.stderr)
    if proc.returncode == 0:
        totals = cost_totals(target[1], report)
        assert all(map(math.isfinite, totals)), (target, value, totals)

"""CLI fuzz: one attribute of a shipped config set to a hostile value.

Whatever the value, the CLI must finish with exit code 0, 2 or 3 and
print no traceback. Each case runs the CLI in its own process under a
generous timeout, which is what catches a hang.
"""
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
                value: str) -> subprocess.CompletedProcess:
    """`chipcost eval` on the study, or `chipcost sweep` when the mutated
    file is a sweep, with one attribute set to value."""
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
        return subprocess.run([sys.executable, "-m", "chipcost.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=TIMEOUT_S)


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
def test_one_hostile_attribute_exits_cleanly(target, value):
    proc = run_mutated(*target, value)
    assert proc.returncode in (0, 2, 3), (target, value, proc.stderr)
    assert "Traceback" not in proc.stderr, (target, value, proc.stderr)

"""Sweeps at jobs > 1: the values of the outermost visited axis are dealt
round-robin to forked processes. Rows, and the error of a failing sweep,
are those of jobs=1, and a failing sweep ends in one declaration-order
walk; no process outlives the sweep; and every case that must stay in
one process forks nothing."""
import os
import random
import subprocess
import sys
import threading
import time

import pytest

from chipcost import sweep
from chipcost.cli import main
from chipcost.sweep import (COST, DERIVE, TREE, FieldAxis, SplitAxis,
                            SweepPlan, run_sweep)
from conftest import config_path
from gensys import make_system
from oracles import naive_sweep
from test_stages import _outcome, _random_plan

_DENSITY = "library.layer[cmos_3nm].defect_density"
_CORE_AREA = "system.chip[tile].core_area"


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs the process may use: 2 unless a test resets it."""
    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)
    use(2)
    return use


@pytest.fixture
def forks(monkeypatch):
    """The number of os.fork calls made by this process, in a list."""
    calls, real = [], os.fork

    def spy():
        calls.append(1)
        return real()
    monkeypatch.setattr(os, "fork", spy)
    return calls


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def outermost(plan):
    return min(plan.axes, key=lambda a: a.stage)


def _split(counts):
    return SplitAxis(chip="tile", counts=counts, side_bandwidth=1024.0,
                     io_type="mesh_link")


# one plan per kind of outermost visited axis
_PLANS = {
    "split": (FieldAxis(_DENSITY, (0.002, 0.01)), _split((1, 4, 16))),
    "chip field": (FieldAxis(_DENSITY, (0.002, 0.01)),
                   FieldAxis(_CORE_AREA, (200.0, 400.0, 800.0))),
    "derive library field": (
        FieldAxis("library.test[tile_scan].fault_coverage", (0.9, 1.0)),
        FieldAxis("library.io[mesh_link].energy_per_bit", (0.5, 1.0, 2.0)),
        FieldAxis(_DENSITY, (0.002, 0.01))),
    "cost library field": (
        FieldAxis(_DENSITY, (0.002, 0.005, 0.01)),
        FieldAxis("library.test[tile_scan].fault_coverage", (0.9, 1.0))),
}
_STAGE = {"split": TREE, "chip field": TREE, "derive library field": DERIVE,
          "cost library field": COST}


@pytest.mark.parametrize("kind", _PLANS)
@pytest.mark.parametrize("jobs", (2, 3))
def test_parallel_rows_equal_the_per_point_pipeline(gp_system, cpus, forks,
                                                    kind, jobs):
    cpus(4)
    plan = SweepPlan(axes=_PLANS[kind])
    assert outermost(plan).stage == _STAGE[kind]
    assert run_sweep(gp_system, plan, jobs=jobs) == naive_sweep(gp_system,
                                                                plan)
    assert len(forks) == jobs - 1
    assert_no_children()


@pytest.mark.parametrize("derive_outer", (True, False))
@pytest.mark.parametrize("seed", range(8))
def test_parallel_random_plans_equal_the_per_point_pipeline(
        cpus, forks, seed, derive_outer):
    system = make_system(seed)
    plan = _random_plan(system, random.Random(seed), derive_outer)
    assert (_outcome(run_sweep, system, plan, 2)
            == _outcome(naive_sweep, system, plan))
    assert forks
    assert_no_children()


@pytest.mark.parametrize("config, name", [
    ("graph_processor", "chiplet_sweep.xml"),
    ("graph_processor", "defect_sweep.xml"),
    ("coverage_study", "coverage_sweep.xml")])
def test_shipped_sweeps_give_the_same_bytes_at_jobs_2(tmp_path, cpus, forks,
                                                      config, name):
    out = {}
    for jobs in (1, 2):
        out[jobs] = tmp_path / f"jobs{jobs}.csv"
        assert main([
            "sweep", "--library", config_path(config, "library.xml"),
            "--system", config_path(config, "system.xml"),
            "--netlist", config_path(config, "netlist.xml"),
            "--sweep", config_path(config, name),
            "--jobs", str(jobs), "--out", str(out[jobs])]) == 0
    assert forks == [1]
    assert out[1].read_bytes() == out[2].read_bytes()


@pytest.fixture
def walks(monkeypatch):
    """The (order, span) of each _walk call made in this process; a
    child's calls stay in the child."""
    calls, walk = [], sweep._walk

    def spy(base, plan, order, span=None):
        calls.append((list(order), span))
        return walk(base, plan, order, span)
    monkeypatch.setattr(sweep, "_walk", spy)
    return calls


@pytest.mark.parametrize("jobs", (2, 3))
def test_the_outer_values_are_dealt_round_robin(gp_system, cpus, forks,
                                                walks, jobs):
    cpus(4)
    plan = SweepPlan(axes=(_split((1, 4, 16, 64)),))
    assert run_sweep(gp_system, plan, jobs=jobs) == naive_sweep(gp_system,
                                                                plan)
    # this process walks every jobs-th count from the first
    assert walks == [([0], range(0, 4, jobs))]
    assert len(forks) == jobs - 1
    assert_no_children()


@pytest.mark.parametrize("jobs", (1, 2))
def test_a_failing_sweep_ends_in_one_declaration_order_walk(
        gp_system, cpus, forks, walks, jobs):
    # the chip axis is visited outermost, where the density fails first;
    # in declaration order the core area fails first
    plan = SweepPlan(axes=(FieldAxis(_DENSITY, (0.002, -1.0)),
                           FieldAxis(_CORE_AREA, (100.0, -5.0, 300.0))))
    assert _outcome(run_sweep, gp_system, plan, jobs) == (
        "error", "chip 'tile': core_area must be >= 0, got -5.0")
    assert [order for order, _ in walks] == [[1, 0], [0, 1]]
    assert len(forks) == jobs - 1
    assert_no_children()


def test_a_failing_sweep_in_declaration_order_is_walked_once(
        gp_system, forks, walks):
    # at jobs=1 a one-axis plan is visited in declaration order, so the
    # walk that failed already raised the first failing point's error
    plan = SweepPlan(axes=(FieldAxis(_CORE_AREA, (100.0, -5.0, 300.0)),))
    assert _outcome(run_sweep, gp_system, plan, 1) == (
        "error", "chip 'tile': core_area must be >= 0, got -5.0")
    assert walks == [([0], range(0, 3))]
    assert forks == []


@pytest.mark.parametrize("values", [
    (-5.0, 100.0, 200.0, 300.0),    # fails in this process's range
    (100.0, 200.0, -5.0, 300.0),    # fails in the child's range
    (100.0, 200.0, 300.0, -5.0),
])
def test_a_failing_range_raises_what_jobs_1_raises(gp_system, cpus, forks,
                                                   values):
    plan = SweepPlan(axes=(FieldAxis(_DENSITY, (0.002, -1.0)),
                           FieldAxis(_CORE_AREA, values)))
    serial = _outcome(run_sweep, gp_system, plan, 1)
    assert serial[0] == "error" and "core_area" in serial[1]
    assert _outcome(run_sweep, gp_system, plan, 2) == serial
    assert forks == [1]
    assert_no_children()


def test_an_interrupted_sweep_leaves_no_child(gp_system, cpus, forks,
                                              monkeypatch):
    def stall(base, plan, order, span=None):
        if span.start:          # a child: would outlive the test
            time.sleep(60)
        raise KeyboardInterrupt
    monkeypatch.setattr(sweep, "_walk", stall)
    plan = SweepPlan(axes=(FieldAxis(_CORE_AREA, (100.0, 200.0)),))
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_sweep(gp_system, plan, jobs=2)
    assert time.perf_counter() - t0 < 30
    assert forks == [1]
    assert_no_children()


def _python(*args):
    """Run a fresh interpreter on the checkout's package."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))


def _gp_inputs():
    return ("--library", config_path("graph_processor", "library.xml"),
            "--system", config_path("graph_processor", "system.xml"),
            "--netlist", config_path("graph_processor", "netlist.xml"))


def test_the_cli_reports_a_failing_parallel_sweep_once(tmp_path):
    path = tmp_path / "sweep.xml"
    path.write_text(f'<sweep><param target="{_CORE_AREA}"'
                    ' values="100,200,-5,300"/></sweep>', encoding="utf-8")
    proc = _python("-m", "chipcost.cli", "sweep", *_gp_inputs(),
                   "--sweep", str(path), "--jobs", "2",
                   "--out", str(tmp_path / "rows.csv"))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: chip 'tile': core_area must be >= 0, got -5.0"]


def test_a_parallel_sweep_imports_no_multiprocessing(tmp_path):
    code = ("import os, sys\n"
            "from chipcost.cli import main\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print('multiprocessing' in sys.modules)\n")
    proc = _python("-c", code, "sweep", *_gp_inputs(), "--sweep",
                   config_path("graph_processor", "defect_sweep.xml"),
                   "--jobs", "2", "--out", str(tmp_path / "rows.csv"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.fixture
def no_fork(monkeypatch, cpus):
    """os.fork recording each call and failing; the calls, in a list."""
    calls = []

    def refuse():
        calls.append(1)
        raise OSError("fork refused")
    monkeypatch.setattr(os, "fork", refuse)
    return calls


_PLAN = SweepPlan(axes=(FieldAxis(_CORE_AREA, (200.0, 400.0, 800.0)),
                        FieldAxis(_DENSITY, (0.002, 0.01))))


def test_jobs_1_forks_nothing(gp_system, no_fork):
    assert run_sweep(gp_system, _PLAN, jobs=1) == naive_sweep(gp_system,
                                                              _PLAN)
    assert no_fork == []


def test_one_usable_cpu_forks_nothing(gp_system, cpus, no_fork):
    cpus(1)
    assert run_sweep(gp_system, _PLAN, jobs=2) == naive_sweep(gp_system,
                                                              _PLAN)
    assert no_fork == []


def test_without_affinity_the_cpu_count_is_used(gp_system, monkeypatch,
                                                no_fork):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert run_sweep(gp_system, _PLAN, jobs=2) == naive_sweep(gp_system,
                                                              _PLAN)
    assert no_fork == []


def test_an_outermost_axis_with_one_value_forks_nothing(gp_system, no_fork):
    # the chip axis is visited outermost, whatever the declaration order
    plan = SweepPlan(axes=(FieldAxis(_DENSITY, (0.002, 0.005, 0.01)),
                           FieldAxis(_CORE_AREA, (400.0,))))
    assert run_sweep(gp_system, plan, jobs=2) == naive_sweep(gp_system, plan)
    assert no_fork == []


def test_a_process_with_another_thread_forks_nothing(gp_system, no_fork):
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        rows = run_sweep(gp_system, _PLAN, jobs=2)
    finally:
        done.set()
        other.join()
    assert rows == naive_sweep(gp_system, _PLAN)
    assert no_fork == []


def test_without_fork_the_sweep_runs_serially(gp_system, monkeypatch,
                                              no_fork):
    monkeypatch.delattr(os, "fork")
    assert run_sweep(gp_system, _PLAN, jobs=2) == naive_sweep(gp_system,
                                                              _PLAN)


def test_a_failed_fork_falls_back_to_the_serial_walk(gp_system, no_fork):
    assert run_sweep(gp_system, _PLAN, jobs=2) == naive_sweep(gp_system,
                                                              _PLAN)
    assert no_fork == [1]
    assert_no_children()

"""Release gate: one test per shipping requirement.

Each test here states a user-visible promise of the package: the yield
kernel agrees with a high-precision reference, die packing agrees with an
exhaustive layout oracle, the rolled-up costs of the committed fixture
match a hand spreadsheet, the shipped study configs reproduce the trends
they document, and evaluation stays fast enough for interactive sweeps.
Run with -v to get one pass/fail line per promise.
"""

import dataclasses
import importlib
import math
import random
import sys
import time
from pathlib import Path

import mpmath
import pytest

import chipcost as cc
from chipcost import wafer
from chipcost.cli import main
from chipcost.engine import defect_yield, die_cost
from chipcost.model import check_fields
from chipcost.sweep import FieldAxis, SplitAxis, SweepPlan, apply_field, \
    apply_split
from conftest import config_path, split_tiles
from gensys import (EDGES, at_edge, check_invariants, make_layers,
                    make_system, make_twins)
from oracles import (derive_without_memo, derived_differences,
                     evaluate_in_full, grid_family_oracle, naive_sweep,
                     stitch_layout_edges)
from test_fixture_oracle import spreadsheet


def _column(plan, name):
    return cc.sweep_columns(plan).index(name)


def _best_count(rows, n_col, cost_col):
    return min(rows, key=lambda r: r[cost_col])[n_col]


def test_defect_yield_matches_high_precision_reference():
    t0 = time.perf_counter()
    for alpha in (0.5, 1.0, 2.0, 5.0):
        for x in (0.0, 0.1, 1.0, 10.0):
            with mpmath.workdps(50):
                ref = float((1 + mpmath.mpf(x) / alpha) ** (-mpmath.mpf(alpha)))
            assert defect_yield(1.0, x, alpha) == pytest.approx(ref, rel=1e-12)
    # large clustering factor approaches the Poisson model
    for x in (0.0, 0.1, 1.0, 10.0):
        assert defect_yield(1.0, x, 1e6) == pytest.approx(math.exp(-x),
                                                          abs=1e-5)
    assert time.perf_counter() - t0 < 1.0


def test_die_packing_matches_exhaustive_oracle():
    t0 = time.perf_counter()
    rng = random.Random(20260822)
    for _ in range(100):
        die_x = rng.uniform(2.0, 40.0)
        die_y = rng.uniform(2.0, 40.0)
        scribe = rng.uniform(0.05, 0.3)
        excl = rng.uniform(1.0, 5.0)
        grid = cc.grid_packing(die_x, die_y, 300.0, excl, scribe, scribe)
        assert grid == grid_family_oracle(die_x, die_y, 300.0, excl,
                                          scribe, scribe)
        free = cc.free_packing(die_x, die_y, 300.0, excl, scribe, scribe)
        assert free >= grid
    assert time.perf_counter() - t0 < 30.0


def test_stitch_edge_count_matches_layout_oracle():
    for n in range(1, 37):
        fit = cc.reticle_fit(n * 858.0, 33.0, 26.0)
        assert fit.n_reticles == n
        assert fit.k_stitch == stitch_layout_edges(n)


def test_costs_match_hand_spreadsheet(handcheck_system):
    want = spreadsheet()
    rep = cc.evaluate(cc.derive(handcheck_system))
    assert rep.cost_re == pytest.approx(want["c_re"], rel=1e-9)
    assert rep.cost_nre == pytest.approx(want["c_nre"], rel=1e-9)
    assert rep.root.yield_chip == pytest.approx(want["y_chip"], rel=1e-9)
    assert rep.root.quality_shipped == pytest.approx(want["quality"],
                                                     rel=1e-9)


def test_monolithic_die_yield_and_silicon_cost(gp_library):
    mono = cc.ChipSpec(name="mono", core_area=800.0, core_power=300.0,
                       core_voltage=0.8, quantity=1_000_000,
                       layers=("cmos_3nm",), wafer_process="hvm_300mm",
                       test_self="tile_scan", assembly_process="hybrid_25d",
                       logic_fraction=0.8, memory_fraction=0.15,
                       analog_fraction=0.05)
    system = cc.validate_system(mono, (), gp_library)
    rep = cc.evaluate(cc.derive(system))
    # one reticle, no IO cells: yield is the bare defect model on the core
    assert rep.root.yield_die == pytest.approx(
        defect_yield(0.005, 800.0 * 0.7, 2.0), rel=1e-12)
    assert rep.breakdown["silicon"] >= 0.29 * 800.0


def test_tile_count_optimum_shifts_with_defect_density(gp_system):
    t0 = time.perf_counter()
    plan = cc.parse_sweep(config_path("graph_processor", "defect_sweep.xml"))
    rows = cc.run_sweep(gp_system, plan, jobs=8)
    n_col = _column(plan, "split.tile")
    cost_col = _column(plan, "cost_total")
    by_d0 = {}
    for row in rows:
        by_d0.setdefault(row[0], []).append(row)
    counts = sorted({r[n_col] for r in rows})
    best_low = _best_count(by_d0[0.005], n_col, cost_col)
    best_high = _best_count(by_d0[0.02], n_col, cost_col)
    # a strict interior optimum at the baseline density, pushed toward
    # finer partitioning as defects get worse
    assert counts[0] < best_low < counts[-1]
    assert best_high > best_low

    # a mature node yields well at full size, so the optimum moves back
    tile = gp_system.root.children[0]
    old_tile = dataclasses.replace(tile, layers=("cmos_40nm",))
    old_root = dataclasses.replace(gp_system.root, children=(old_tile,))
    old_system = cc.validate_system(old_root, gp_system.nets,
                                    gp_system.library)
    split_plan = cc.parse_sweep(config_path("graph_processor",
                                            "chiplet_sweep.xml"))
    old_rows = cc.run_sweep(old_system, split_plan, jobs=8)
    best_old = _best_count(old_rows, _column(split_plan, "split.tile"),
                           _column(split_plan, "cost_total"))
    assert best_old < best_low
    assert time.perf_counter() - t0 < 10.0


def test_fault_coverage_trades_test_cost_against_scrap():
    lib = cc.parse_library(config_path("coverage_study", "library.xml"))
    system = cc.parse_system(config_path("coverage_study", "system.xml"),
                             config_path("coverage_study", "netlist.xml"),
                             lib)
    plan = cc.parse_sweep(config_path("coverage_study", "coverage_sweep.xml"))
    rows = cc.run_sweep(system, plan)
    total_col = _column(plan, "cost_total")
    scrap_col = _column(plan, "cost_scrap")
    covs = [r[0] for r in rows]
    assert covs == sorted(covs)
    scraps = [r[scrap_col] for r in rows]
    assert all(a >= b for a, b in zip(scraps, scraps[1:]))
    totals = dict(zip(covs, (r[total_col] for r in rows)))
    assert totals[0.5] > totals[0.95]


def test_batch_bonding_discount_is_exact(gp_system):
    axis = SplitAxis(chip="tile", counts=(1,), side_bandwidth=1024.0,
                     io_type="mesh_link", external_prefix="edge",
                     utilization=1.0)
    state = (gp_system.library, gp_system.root, gp_system.nets)
    # strip the terms that scale with anything but bonding time, so the
    # serial-vs-batch contrast is the bare per-operation charge
    state = apply_field(*state, FieldAxis(
        "library.assembly[hybrid_25d].material_cost_per_mm2", (0.0,)), 0.0)
    state = apply_field(*state, FieldAxis(
        "library.test[package_scan].fault_coverage", (0.0,)), 0.0)
    for n in (4, 16, 64):
        lib, root, nets = apply_split(*state, axis, n)
        totals = {}
        for group in (1, n):
            glib, *_ = apply_field(lib, root, nets, FieldAxis(
                "library.assembly[hybrid_25d].bond_group", (group,)), group)
            rep = cc.evaluate(cc.derive(cc.validate_system(root, nets, glib)))
            assert not rep.infeasible
            totals[group] = rep.cost_total
        saved = totals[1] - totals[n]
        assert saved == pytest.approx(0.01 * 30.0 * (n - 1), rel=1e-9)


def test_randomized_systems_hold_invariants():
    t0 = time.perf_counter()
    for seed in range(1000):
        check_invariants(make_system(seed))
        check_invariants(make_twins(seed))
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.parametrize("edge", EDGES)
def test_systems_on_range_edge_libraries_hold_invariants(edge):
    # at coverage 0 or perfect yields every part passes, so scrap is zero
    # in exact arithmetic; its float difference once fell below zero
    for seed in range(300):
        for make in (make_system, make_twins, make_layers):
            check_invariants(at_edge(make(seed), edge))


def test_layered_systems_hold_invariants_and_match_the_full_oracle():
    for seed in range(200):
        system = make_layers(seed)
        check_invariants(system)
        report, full = cc.evaluate(cc.derive(system)), evaluate_in_full(system)
        assert cc.report_to_json(report) == cc.report_to_json(full), seed
        assert cc.report_to_csv(report) == cc.report_to_csv(full), seed


def test_layered_systems_put_a_chip_on_four_layers_every_20_seeds():
    for first in range(0, 200, 20):
        assert any(len(c.layers) == 4 for seed in range(first, first + 20)
                   for c in make_layers(seed).root.walk()), first


def test_evaluation_is_fast_enough_for_sweeps(gp_system, handcheck_system):
    system = split_tiles(gp_system, 64)
    assert sum(1 for c in system.root.walk() if not c.children) == 64
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        cc.evaluate(cc.derive(system))
        best = min(best, time.perf_counter() - t0)
    assert best < 0.010

    plan = SweepPlan(axes=(FieldAxis(
        target="library.layer[die_metal].defect_density",
        values=tuple(i * 2e-6 for i in range(1000))),))
    t0 = time.perf_counter()
    rows = cc.run_sweep(handcheck_system, plan, jobs=8)
    assert len(rows) == 1000
    assert time.perf_counter() - t0 < 10.0


# A plan shaped like the benchmark's field_sweep: 2 x 6 x 4 x 3 x 3 x 2
# points, and only the first axis is a field that derive reads.
_FIELD_SWEEP_AXES = (
    FieldAxis("library.io[mesh_link].energy_per_bit", (0.5, 1.0)),
    FieldAxis("library.layer[cmos_3nm].defect_density",
              (0.001, 0.002, 0.003, 0.004, 0.005, 0.006)),
    FieldAxis("library.test[tile_scan].fault_coverage",
              (0.9, 0.95, 0.99, 1.0)),
    FieldAxis("library.test[tile_scan].cost_per_second", (0.05, 0.1, 0.2)),
    FieldAxis("library.assembly[hybrid_25d].bond_yield",
              (0.99995, 0.99999, 1.0)),
    FieldAxis("library.assembly[hybrid_25d].alignment_yield", (0.999, 1.0)),
)


@pytest.fixture
def derive_calls(monkeypatch):
    """The systems run_sweep derives, in order."""
    calls = []

    def counted(system):
        calls.append(system)
        return cc.derive(system)

    monkeypatch.setattr("chipcost.sweep.derive", counted)
    return calls


# points are visited with the axes that reach derive outermost, wherever
# they are declared: declared third, the IO axis would take 48 derives in
# declaration order, and declared last 864
@pytest.mark.parametrize("position, derives", [(0, 2), (2, 2), (5, 2)])
def test_sweeps_derive_once_per_run_of_equal_derive_values(
        gp_system, derive_calls, position, derives):
    axes = list(_FIELD_SWEEP_AXES[1:])
    axes.insert(position, _FIELD_SWEEP_AXES[0])
    rows = cc.run_sweep(gp_system, SweepPlan(axes=tuple(axes)))
    assert len(rows) == 864
    assert len(derive_calls) == derives


def test_sweeps_derive_at_most_once_per_point(gp_system, derive_calls):
    plan = SweepPlan(axes=(
        FieldAxis("library.layer[cmos_3nm].defect_density", (0.002, 0.01)),
        SplitAxis(chip="tile", counts=(1, 4), side_bandwidth=1024.0,
                  io_type="mesh_link"),
        FieldAxis("system.chip[*].quantity", (10**5, 10**6)),
        FieldAxis("library.test[tile_scan].fault_coverage", (0.9, 1.0)),
    ))
    rows = cc.run_sweep(gp_system, plan)
    assert len(rows) == 16
    # once per split x quantity, the two axes that reach derive
    assert len(derive_calls) == 4
    # the only plan that sets every chip after a split, tiles included
    assert rows == naive_sweep(gp_system, plan)


def test_a_defect_sweep_builds_each_split_once(gp_system, derive_calls,
                                               monkeypatch):
    # the shipped defect-density study declares its library axis outside
    # the split: in declaration order every one of its 24 points would
    # split, validate and derive a tree built one density earlier
    splits = []
    validated = []

    def split(*args):
        splits.append(args)
        return apply_split(*args)

    def validate(*args):
        validated.append(args)
        return cc.validate_system(*args)

    monkeypatch.setattr("chipcost.sweep.apply_split", split)
    monkeypatch.setattr("chipcost.sweep.validate_system", validate)
    plan = cc.parse_sweep(config_path("graph_processor", "defect_sweep.xml"))
    rows = cc.run_sweep(gp_system, plan)
    assert len(rows) == 24
    assert len(splits) == 8
    assert len(validated) == 8           # each split's tree, once
    assert len(derive_calls) == 8
    assert rows == naive_sweep(gp_system, plan)


def test_library_sweeps_recheck_only_the_entries_their_axes_name(
        gp_system, monkeypatch):
    checked = []

    def counted(obj, context):
        checked.append(context)
        return check_fields(obj, context)

    monkeypatch.setattr("chipcost.model.check_fields", counted)
    cc.validate_system(gp_system.root, gp_system.nets, gp_system.library)
    base = len(checked)
    checked.clear()
    rows = cc.run_sweep(gp_system, SweepPlan(axes=_FIELD_SWEEP_AXES))
    assert len(rows) == 864
    # the first point validates the whole system; every other point
    # re-checks the entries named by the axes from the first one that
    # moved, of the library's ten: 1 x 4 + 10 x 3 + 36 x 2 + 96 x 2
    # + 288 x 1 + 432 x 1 = 1,018; re-checking all four takes 3,456
    assert len(checked) == base + 1018


def test_validating_a_split_checks_the_root_and_one_tile(gp_system,
                                                         checked_chips):
    # the tiles of a split are equal but for their names: once the first
    # passes, each other one is checked only for its name
    system = split_tiles(gp_system, 1024)
    assert len(system.root.children) == 1024
    assert checked_chips == ["substrate", "tile_0_0"]


def test_validating_a_split_checks_one_net_in_full(gp_system, monkeypatch):
    # the links of a split are one class (io type, bandwidth, count,
    # utilization): once the first passes, each other one is checked only
    # for its endpoints
    from chipcost import model
    check = model.check_fields
    nets = []

    def counted(obj, context):
        if isinstance(obj, cc.NetSpec):
            nets.append(context)
        return check(obj, context)

    monkeypatch.setattr(model, "check_fields", counted)
    system = split_tiles(gp_system, 1024)
    assert len(system.nets) == 2112
    assert nets == ["net[0] tile_0_0->tile_0_1"]


def test_library_sweeps_recost_only_the_subtrees_a_point_changed(
        gp_system, monkeypatch):
    base = split_tiles(gp_system, 16)
    costed = []

    def counted(chip, library):
        costed.append(chip.spec.name)
        return die_cost(chip, library)

    monkeypatch.setattr("chipcost.engine.die_cost", counted)
    rows = cc.run_sweep(base, SweepPlan(axes=_FIELD_SWEEP_AXES))
    assert len(rows) == 864
    # costing all 17 nodes at every point takes 864 x 17 = 14,688
    assert len(costed) <= 14_688 // 4


def test_library_axes_inside_a_split_recheck_and_recost_little(
        gp_system, monkeypatch):
    validated = []
    costed = []

    def validate(*args):
        validated.append(args)
        return cc.validate_system(*args)

    def cost(chip, library):
        costed.append(chip.spec.name)
        return die_cost(chip, library)

    monkeypatch.setattr("chipcost.sweep.validate_system", validate)
    monkeypatch.setattr("chipcost.engine.die_cost", cost)
    plan = SweepPlan(axes=(
        SplitAxis(chip="tile", counts=(1, 16), side_bandwidth=1024.0,
                  io_type="mesh_link"),
        *_FIELD_SWEEP_AXES[1:]))
    rows = cc.run_sweep(gp_system, plan)
    assert len(rows) == 864
    # each split's tree, once
    assert len(validated) == 2
    # costing every node at every point takes 432 x (2 + 17) = 8,208
    assert len(costed) <= 8_208 // 3
    assert rows == naive_sweep(gp_system, plan)


def test_a_shared_designs_memo_pays_from_its_second_point(monkeypatch):
    lib = cc.parse_library(config_path("coverage_study", "library.xml"))
    system = cc.parse_system(config_path("coverage_study", "system.xml"),
                             config_path("coverage_study", "netlist.xml"),
                             lib)
    plan = cc.parse_sweep(config_path("coverage_study", "coverage_sweep.xml"))
    costed = []
    per_point = []

    def cost(chip, library):
        costed.append(chip.spec.name)
        return die_cost(chip, library)

    def evaluate(*args, **kwargs):
        before = len(costed)
        report = cc.evaluate(*args, **kwargs)
        per_point.append(len(costed) - before)
        return report

    monkeypatch.setattr("chipcost.engine.die_cost", cost)
    monkeypatch.setattr("chipcost.sweep.evaluate", evaluate)
    rows = cc.run_sweep(system, plan)
    assert len(rows) == 5
    # the 16 tiles fall into 3 classes (corner, edge, interior), each
    # costed once per point: the first point costs the substrate die and
    # 3 tiles; from the second, the substrate die, which does not read
    # tile_scan, keeps its figures
    assert per_point == [4, 3, 3, 3, 3]


def test_a_split_declared_inside_a_derive_axis_is_built_once_per_count(
        gp_system, derive_calls, monkeypatch):
    # visited stage-major, the split is outermost: in derive-major order
    # the IO axis would stay outside it, and each of its 3 values would
    # split and validate both counts again
    splits = []
    validated = []

    def split(*args):
        splits.append(args)
        return apply_split(*args)

    def validate(*args):
        validated.append(args)
        return cc.validate_system(*args)

    monkeypatch.setattr("chipcost.sweep.apply_split", split)
    monkeypatch.setattr("chipcost.sweep.validate_system", validate)
    plan = SweepPlan(axes=(
        FieldAxis("library.io[mesh_link].energy_per_bit", (0.5, 1.0, 2.0)),
        SplitAxis(chip="tile", counts=(1, 16), side_bandwidth=1024.0,
                  io_type="mesh_link"),
        FieldAxis("library.test[tile_scan].fault_coverage", (0.9, 1.0))))
    rows = cc.run_sweep(gp_system, plan)
    assert len(rows) == 12
    assert len(splits) == 2
    assert len(validated) == 2
    assert len(derive_calls) == 6       # once per count x energy
    assert rows == naive_sweep(gp_system, plan)


@pytest.mark.parametrize("rx_values, code", [("0.07", 0), ("0.07,0.08", 2)])
def test_cross_field_checks_see_every_axis_of_a_point(
        tmp_path, capsys, rx_values, code):
    # a bidirectional IO needs tx_area == rx_area: a point is checked only
    # once both of its axes are applied
    lib = tmp_path / "library.xml"
    src = Path(config_path("graph_processor", "library.xml")).read_text()
    lib.write_text(src.replace('bidirectional="false"',
                               'bidirectional="true"'))
    sweep = tmp_path / "sweep.xml"
    sweep.write_text(
        '<sweep><param target="library.io[mesh_link].tx_area" values="0.07"/>'
        f'<param target="library.io[mesh_link].rx_area" values="{rx_values}"'
        '/></sweep>')
    assert main(["sweep", "--library", str(lib),
                 "--system", config_path("graph_processor", "system.xml"),
                 "--netlist", config_path("graph_processor", "netlist.xml"),
                 "--sweep", str(sweep),
                 "--out", str(tmp_path / "rows.csv")]) == code
    err = capsys.readouterr().err
    assert ("io 'mesh_link'" in err) == (code == 2), err


def test_derive_scales_to_a_thousand_tiles(gp_system):
    # derive makes one pass over the nets: at 1024 tiles it took 540 ms
    # when every chip rescanned every net, and about 17 ms in one pass
    system = split_tiles(gp_system, 1024)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        cc.derive(system)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.2


def test_derive_fits_each_distinct_tile_once(gp_system, monkeypatch):
    # the tiles of a split differ only in name and in how many mesh
    # neighbours and edge links they have: corner, edge and interior.
    # derive copies a tile whose inputs it has seen, so with the root it
    # fits 4 dies to the reticle at any n >= 16; deriving every tile in
    # full fits n + 1
    module = importlib.import_module("chipcost.derive")
    fit = module.reticle_fit
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return fit(*args)

    monkeypatch.setattr(module, "reticle_fit", counted)
    for n in (1, 16, 64, 256, 1024):
        system = split_tiles(gp_system, n)
        calls = 0
        derived = cc.derive(system)
        assert calls == 2 if n == 1 else calls <= 4, (n, calls)
        assert derived_differences(
            derived.root, derive_without_memo(system).root) == [], n
    for seed in range(200):
        system = make_system(seed)
        assert derived_differences(
            cc.derive(system).root,
            derive_without_memo(system).root) == [], seed


def test_evaluate_costs_each_distinct_tile_once(gp_system, monkeypatch):
    # a tile derive copied costs what its twin costs, so one evaluate
    # costs the root die and one tile per class at any n >= 16; costing
    # every tile in full costs n + 1 dies and must give the same bytes.
    # graph_processor's mesh link is one-way with equal driver and
    # receiver areas, so all its tiles cost the same; with a larger
    # receiver a tile's class follows its link directions too, and the
    # classes cost apart
    lib = gp_system.library
    lopsided = dataclasses.replace(gp_system, library=dataclasses.replace(
        lib, ios={**lib.ios, "mesh_link": dataclasses.replace(
            lib.ios["mesh_link"], rx_area=4 * lib.ios["mesh_link"].tx_area)}))
    module = importlib.import_module("chipcost.engine")
    cost = module.die_cost
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return cost(*args)

    def die_costs(system, what):
        # die_cost calls of one evaluate, whose bytes must be the oracle's
        nonlocal calls
        calls = 0
        report = cc.evaluate(cc.derive(system))
        made = calls
        full = evaluate_in_full(system)
        assert cc.report_to_json(report) == cc.report_to_json(full), what
        assert cc.report_to_csv(report) == cc.report_to_csv(full), what
        return made, {tile[2:] for tile in report.root.children}

    monkeypatch.setattr(module, "die_cost", counted)
    for n in (1, 16, 64, 256, 1024):
        made, _ = die_costs(split_tiles(gp_system, n), n)
        assert made == 2 if n == 1 else made <= 4, (n, made)
        made, costs = die_costs(split_tiles(lopsided, n), n)
        assert made == 2 if n == 1 else made <= 7 and len(costs) == 3, n
    for seed in range(200):
        die_costs(make_system(seed), seed)


def test_json_report_encodes_each_distinct_record_once(gp_system,
                                                       monkeypatch):
    # a copied tile shares every figure object with its twin, so the
    # JSON writer hands json's C encoder the root and one record per
    # tile class at any n >= 16; a tree without twins gets one per node
    module = importlib.import_module("chipcost.report")
    records = module._RECORDS
    handed = 0

    class Counted:
        def encode(self, distinct):
            nonlocal handed
            handed += len(distinct)
            return records.encode(distinct)

    def encoded(system):
        # records of one report, whose bytes must be the oracle's
        nonlocal handed
        report = cc.evaluate(cc.derive(system))
        handed = 0
        text = cc.report_to_json(report)
        made = handed
        assert text == cc.report_to_json(evaluate_in_full(system))
        return made, len(report.nodes)

    monkeypatch.setattr(module, "_RECORDS", Counted())
    for n in (1, 16, 64, 256, 1024):
        made, _ = encoded(split_tiles(gp_system, n))
        assert made == 2 if n == 1 else made <= 4, (n, made)
    for seed in range(50):
        made, nodes = encoded(make_system(seed))
        assert made == nodes, seed


def test_json_report_makes_few_python_calls_per_node(gp_system):
    # json.dumps(indent=2) runs json's pure-Python encoder: about 411
    # Python-level calls per node at 1024 tiles; node records written by
    # json's C encoder make about 23
    report = cc.evaluate(cc.derive(split_tiles(gp_system, 1024)))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        cc.report_to_json(report)
    finally:
        sys.setprofile(None)
    assert 0 < calls < 40 * len(report.nodes)


def _best_cold_packing_s(side: float) -> float:
    pack = cc.grid_packing.__wrapped__      # bypass the lru_cache
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        pack(side, side, 300.0, 3.0, 0.1, 0.1)
        best = min(best, time.perf_counter() - t0)
    return best


def test_cold_grid_packing_of_a_1mm2_die_is_fast():
    # one chord table and bisected row breakpoints per first-column
    # height: about 1.1 ms; the naive packer, which recounts every row
    # per height, about 110 ms
    assert _best_cold_packing_s(1.0) < 0.020


def test_cold_grid_packing_of_a_004mm2_die_is_fast():
    # about 4.5 ms; the naive packer takes about 1.6 s
    assert _best_cold_packing_s(0.2) < 0.2


@pytest.mark.parametrize("side, most", [(1.0, 133), (0.2, 245)])
def test_cold_grid_packing_recounts_few_rows(monkeypatch, side, most):
    # heights are counted exactly in falling order of an upper bound until
    # none can beat the best: 64 and 24 exact row counts; recounting the
    # tied rows of every height made 533 and 1,965
    calls = []
    row_count = wafer._row_count
    monkeypatch.setattr(wafer, "_row_count",
                        lambda *args: calls.append(args) or row_count(*args))
    cc.grid_packing.__wrapped__(side, side, 300.0, 3.0, 0.1, 0.1)
    assert 0 < len(calls) <= most

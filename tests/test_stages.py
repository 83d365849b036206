"""Stage-aware sweeps: the records of the library fields derive reads and
of the library entries evaluate reads, and sweeps that re-run only the
stages, and re-cost only the nodes, a point's values can change."""
import ast
import dataclasses
import inspect
import math
import random

import pytest

import chipcost as cc
from chipcost import engine
from chipcost.derive import DerivedSystem, derive
from chipcost.engine import evaluate
from chipcost.model import LIBRARY_KINDS, derive_fields, ref_fields
from chipcost.sweep import FieldAxis, SplitAxis, SweepPlan, run_sweep
from chipcost.wafer import dies_per_wafer
from gensys import make_system
from oracles import naive_sweep


def _perturbed(value, rule: str):
    """A different value inside the field's declared range."""
    if isinstance(value, int):          # ">= 0" and ">= 1"
        return value + 1
    if rule == ">= 0":
        return value * 1.5 + 0.25
    if rule == "> 0":
        return value * 2.0
    return value * 0.5 if value > 0.0 else 0.5      # [0, 1] and (0, 1]


def _perturb_entry(entry):
    """entry with every numeric field that derive does not read moved."""
    cls = type(entry)
    return dataclasses.replace(entry, **{
        f.name: _perturbed(getattr(entry, f.name), f.metadata["check"])
        for f in dataclasses.fields(cls)
        if "check" in f.metadata and f.name not in derive_fields(cls)
        and getattr(entry, f.name) is not None})


def _perturb_library(lib: cc.Library) -> cc.Library:
    """lib with every numeric field that derive does not read moved."""
    return cc.Library(**{
        attr: {name: _perturb_entry(entry)
               for name, entry in getattr(lib, attr).items()}
        for attr, _, _ in LIBRARY_KINDS.values()})


@pytest.mark.parametrize("seed", range(0, 200, 5))
def test_fields_not_marked_derive_leave_derive_unchanged(seed):
    system = make_system(seed)
    lib = _perturb_library(system.library)
    assert lib != system.library
    moved = derive(cc.validate_system(system.root, system.nets, lib))
    base = derive(system)
    assert moved.matrices == base.matrices
    assert moved.root == base.root


def test_every_library_kind_records_what_derive_reads():
    assert derive_fields(cc.IODefinition) == {
        "tx_area", "rx_area", "bandwidth", "reach", "wires_per_instance",
        "energy_per_bit", "bidirectional"}
    assert derive_fields(cc.LayerDef) == set()
    assert derive_fields(cc.WaferProcessDef) == {
        "wafer_diameter", "edge_exclusion", "scribe_x", "scribe_y",
        "reticle_x", "reticle_y"}
    assert derive_fields(cc.AssemblyProcessDef) == {
        "die_separation", "edge_exclusion", "bonding_pitch",
        "max_current_density"}
    assert derive_fields(cc.TestProcessDef) == {
        "scan_chains", "ios_per_scan_chain", "test_io_offset"}


def _naming(root: cc.ChipSpec, kind: str, name: str) -> set[str]:
    """Names of the chips whose "ref" fields name entry (kind, name),
    with their ancestors; a "parent" field counts only on a chip with
    children."""
    out = set()

    def visit(chip: cc.ChipSpec) -> bool:
        hit = False
        for c in chip.children:
            hit = visit(c) or hit
        for field, ref, parent in ref_fields(cc.ChipSpec):
            names = getattr(chip, field)
            if (ref == kind and (chip.children or not parent)
                    and name in (names if isinstance(names, tuple)
                                 else (names,))):
                hit = True
        if hit:
            out.add(chip.name)
        return hit

    visit(root)
    return out


def _die_naming(root: cc.ChipSpec, kind: str, name: str) -> set[str]:
    """Names of the chips whose "ref" fields not marked "parent" (what
    the die alone reads) name entry (kind, name)."""
    out = set()
    for chip in root.walk():
        for field, ref, parent in ref_fields(cc.ChipSpec):
            names = getattr(chip, field)
            if (ref == kind and not parent
                    and name in (names if isinstance(names, tuple)
                                 else (names,))):
                out.add(chip.name)
    return out


# The figures of a node's own die, which its assembly does not move.
_DIE = ("cost_die", "yield_die", "cost_test_self", "yield_tested_self",
        "quality_self", "cost_re_self", "cost_nre_self")


def _die(node) -> tuple:
    return tuple(getattr(node, f) for f in _DIE)


@pytest.mark.parametrize("seed", range(0, 120, 6))
def test_the_ref_record_names_every_entry_a_nodes_costs_read(seed):
    system = make_system(seed)
    tree = derive(system)
    memo = {}
    base = {n.name: n for n in evaluate(tree, memo=memo).nodes}
    for kind, (attr, _, _) in LIBRARY_KINDS.items():
        for name, entry in getattr(system.library, attr).items():
            table = dict(getattr(system.library, attr))
            table[name] = _perturb_entry(entry)
            lib = dataclasses.replace(system.library, **{attr: table})
            ds = DerivedSystem(
                system=cc.ValidatedSystem(root=system.root, nets=system.nets,
                                          library=lib),
                matrices=tree.matrices, root=tree.root)
            report = evaluate(ds)
            changed = {n.name for n in report.nodes if n != base[n.name]}
            assert changed == _naming(system.root, kind, name), (kind, name)
            dies = {n.name for n in report.nodes
                    if _die(n) != _die(base[n.name])}
            assert dies <= _die_naming(system.root, kind, name), (kind, name)
            # the memo of the base re-costs just those nodes
            assert evaluate(ds, memo=dict(memo),
                            moved={(kind, name)}) == report


@pytest.mark.parametrize("seed", range(0, 120, 6))
def test_a_point_moving_only_an_assembly_keeps_every_die_figure(seed,
                                                                monkeypatch):
    """Through a memo, a point that moves only the assembly entry re-costs
    the chips with children but packs no die; points moving a layer or a
    test entry in between keep the memo's die figures current."""
    system = make_system(seed)
    tree = derive(system)
    memo = {}
    evaluate(tree, memo=memo)
    packed = []

    def counted(*args):
        packed.append(args)
        return dies_per_wafer(*args)

    monkeypatch.setattr(engine, "dies_per_wafer", counted)
    lib = system.library
    for kind, attr, name in (("assembly", "assembly_processes", "a"),
                             ("layer", "layers", "l0"),
                             ("assembly", "assembly_processes", "a"),
                             ("test", "test_processes", "t1"),
                             ("assembly", "assembly_processes", "a")):
        table = dict(getattr(lib, attr))
        table[name] = _perturb_entry(table[name])
        lib = dataclasses.replace(lib, **{attr: table})
        ds = DerivedSystem(
            system=cc.ValidatedSystem(root=system.root, nets=system.nets,
                                      library=lib),
            matrices=tree.matrices, root=tree.root)
        del packed[:]
        report = evaluate(ds, memo=memo, moved={(kind, name)})
        if kind == "assembly":
            assert not packed
        assert report == evaluate(ds)
    if system.root.children:
        assert report.root.cost_assembly != evaluate(tree).root.cost_assembly


def test_every_library_lookup_in_evaluate_goes_through_a_ref_field():
    tables = {attr: kind for kind, (attr, _, _) in LIBRARY_KINDS.items()}
    refs = {field: kind for field, kind, _ in ref_fields(cc.ChipSpec)}
    source = ast.parse(inspect.getsource(engine))
    # a loop variable bound to a ref field's names, such as spec.layers
    loops = {node.target.id: node.iter.attr for node in ast.walk(source)
             if isinstance(node, (ast.For, ast.comprehension))
             and isinstance(node.target, ast.Name)
             and isinstance(node.iter, ast.Attribute)
             and node.iter.attr in refs}
    parent = {child: node for node in ast.walk(source)
              for child in ast.iter_child_nodes(node)}
    lookups = []
    for node in ast.walk(source):
        if (isinstance(node, ast.Attribute) and node.attr in tables
                and isinstance(node.value, ast.Name)
                and node.value.id == "library"):
            lookup = parent[node]
            assert isinstance(lookup, ast.Subscript), ast.unparse(lookup)
            key = lookup.slice
            field = (key.attr if isinstance(key, ast.Attribute)
                     else loops.get(getattr(key, "id", None)))
            assert refs.get(field) == tables[node.attr], ast.unparse(lookup)
            lookups.append(field)
    assert set(lookups) == set(refs)


# Library axes of a make_system library: (target, values, reads derive).
_LIBRARY_AXES = (
    ("library.layer[l0].defect_density", (0.0, 0.01, 0.03), False),
    ("library.test[t0].fault_coverage", (0.6, 1.0), False),
    ("library.assembly[a].bond_yield", (0.9999, 1.0), False),
    ("library.waferprocess[w].nre_fe_logic", (0.0, 4000.0), False),
    ("library.io[io0].energy_per_bit", (0.1, 1.5), True),
    ("library.io[io0].tx_area", (0.02, 0.15), True),
    ("library.assembly[a].bonding_pitch", (0.06, 0.12), True),
    ("library.test[t1].scan_chains", (1, 6), True),
    ("library.waferprocess[w].scribe_x", (0.05, 0.3), True),
)


# Pairs of axes on one entry of a make_system library.
_SAME_ENTRY = (
    (("library.assembly[a].bond_yield", (0.9999, 1.0)),
     ("library.assembly[a].alignment_yield", (0.996, 1.0))),
    (("library.layer[l0].defect_density", (0.0, 0.02)),
     ("library.layer[l0].cost_per_mm2", (0.1, 0.3))),
    (("library.layer[l1].defect_density", (0.0, 0.02)),
     ("library.layer[l1].critical_area_fraction", (0.3, 0.9))),
    (("library.test[t1].scan_chains", (1, 6)),
     ("library.test[t1].fault_coverage", (0.6, 1.0))),
)


def _with_spare_tests(system: cc.ValidatedSystem) -> cc.ValidatedSystem:
    """system with two more test entries: 't_root', which only the root
    reads (a copy of its test_self), and 't_none', which no chip names."""
    tests = dict(system.library.test_processes)
    tests["t_root"] = dataclasses.replace(tests[system.root.test_self],
                                          name="t_root")
    tests["t_none"] = dataclasses.replace(tests["t0"], name="t_none")
    return cc.validate_system(
        dataclasses.replace(system.root, test_self="t_root"), system.nets,
        dataclasses.replace(system.library, test_processes=tests))


def _random_plan(system: cc.ValidatedSystem, rng: random.Random,
                 derive_outer: bool, library_only: bool = False) -> SweepPlan:
    """Two library axes that derive does not read, one it does (outermost
    or innermost), and sometimes a chip axis and a split of a leaf.

    A library-only plan, on a system from _with_spare_tests, adds two axes
    on one entry and one each on 't_root' and 't_none', one of these two
    innermost; it sometimes holds a value that cannot be applied or is
    out of range.

    Either plan sometimes repeats a field axis's target later on, with
    one of its values alone: the later axis sets that value at every
    point."""
    quiet = [FieldAxis(t, v) for t, v, d in _LIBRARY_AXES if not d]
    loud = [FieldAxis(t, v) for t, v, d in _LIBRARY_AXES if d]
    axes = rng.sample(quiet, 2)
    axes.insert(0 if derive_outer else len(axes), rng.choice(loud))
    if library_only:
        extra = [FieldAxis(t, v) for t, v in rng.choice(_SAME_ENTRY)]
        spare = [FieldAxis("library.test[t_root].fault_coverage",
                           (0.7, 0.95)),
                 FieldAxis("library.test[t_none].cost_per_second",
                           (0.05, 0.2))]
        rng.shuffle(spare)
        extra.append(spare[0])
        bad = rng.randrange(4)
        if bad == 1:
            extra.append(FieldAxis("library.test[t_none].patterns",
                                   (1000, -1)))
        for axis in extra:
            axes.insert(rng.randrange(len(axes) + 1), axis)
        if bad == 2:
            i = rng.randrange(len(axes))
            axes[i] = FieldAxis(axes[i].target, (*axes[i].values, -1.0))
        axes.append(spare[1])
        return _maybe_repeat(axes, rng)
    leaves = [c for c in system.root.walk()
              if not c.children and c is not system.root]
    if leaves and rng.random() < 0.5:
        axes.insert(rng.randrange(len(axes) + 1), FieldAxis(
            f"system.chip[{rng.choice(leaves).name}].core_area",
            (10.0, 40.0)))
    if leaves and rng.random() < 0.5:
        axes.insert(rng.randrange(len(axes) + 1), SplitAxis(
            chip=rng.choice(leaves).name, counts=(1, 4),
            side_bandwidth=64.0, io_type="io0"))
    return _maybe_repeat(axes, rng)


def _maybe_repeat(axes: list, rng: random.Random) -> SweepPlan:
    """axes as a plan, half the time with a later, single-valued axis on
    the target of an earlier field axis."""
    if rng.random() < 0.5:
        fields = [i for i, a in enumerate(axes) if isinstance(a, FieldAxis)]
        i = rng.choice(fields)
        axes.insert(rng.randrange(i + 1, len(axes) + 1), FieldAxis(
            axes[i].target, (rng.choice(axes[i].values),)))
    return SweepPlan(axes=tuple(axes))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except cc.ValidationError as exc:
        return ("error", str(exc))


@pytest.mark.parametrize("derive_outer", (True, False))
@pytest.mark.parametrize("seed", range(12))
def test_run_sweep_matches_the_per_point_pipeline(seed, derive_outer):
    system = make_system(seed)
    plan = _random_plan(system, random.Random(seed), derive_outer)
    assert (_outcome(run_sweep, system, plan)
            == _outcome(naive_sweep, system, plan))


@pytest.mark.parametrize("derive_outer", (True, False))
@pytest.mark.parametrize("seed", range(16))
def test_library_sweeps_match_the_per_point_pipeline(seed, derive_outer):
    system = _with_spare_tests(make_system(seed))
    plan = _random_plan(system, random.Random(seed), derive_outer,
                        library_only=True)
    assert (_outcome(run_sweep, system, plan)
            == _outcome(naive_sweep, system, plan))


def test_a_chip_axis_and_a_split_between_library_axes(gp_system):
    plan = SweepPlan(axes=(
        FieldAxis("library.layer[cmos_3nm].defect_density", (0.002, 0.01)),
        FieldAxis("library.io[mesh_link].energy_per_bit", (0.5, 2.0)),
        SplitAxis(chip="tile", counts=(1, 4, 16), side_bandwidth=1024.0,
                  io_type="mesh_link"),
        FieldAxis("library.test[tile_scan].fault_coverage", (0.9, 1.0)),
        FieldAxis("system.chip[tile_0_0].core_area", (25.0, 40.0)),
        FieldAxis("library.assembly[hybrid_25d].bonding_pitch", (0.1, 0.2)),
    ))
    assert run_sweep(gp_system, plan) == naive_sweep(gp_system, plan)


_DENSITY = "library.layer[cmos_3nm].defect_density"
_SPLIT = SplitAxis(chip="tile", counts=(1, 4), side_bandwidth=1024.0,
                   io_type="mesh_link")
_CORE_AREA = "system.chip[tile_0_0].core_area"


@pytest.mark.parametrize("axes", [
    # library axes alone
    (FieldAxis(_DENSITY, (0.001, 0.002)),
     FieldAxis("library.test[tile_scan].fault_coverage", (0.9, 1.0)),
     FieldAxis(_DENSITY, (0.004,))),
    # with a split and a chip axis, repeating a library or a chip target
    (FieldAxis(_DENSITY, (0.001, 0.002)), _SPLIT,
     FieldAxis(_CORE_AREA, (25.0, 40.0)),
     FieldAxis("library.test[tile_scan].fault_coverage", (0.9, 1.0)),
     FieldAxis(_DENSITY, (0.004,))),
    (_SPLIT, FieldAxis(_CORE_AREA, (25.0, 40.0)),
     FieldAxis(_DENSITY, (0.001, 0.002)), FieldAxis(_CORE_AREA, (30.0,))),
])
def test_a_later_axis_on_the_same_target_wins_at_every_point(gp_system,
                                                            axes):
    plan = SweepPlan(axes=axes)
    rows = run_sweep(gp_system, plan)
    assert rows == naive_sweep(gp_system, plan)
    if axes[0].columns[0] == _DENSITY:  # the first axis no longer matters
        half = len(rows) // 2
        assert rows[:half] == [(0.001, *row[1:]) for row in rows[half:]]


_COVERAGE = "library.test[tile_scan].fault_coverage"


@pytest.mark.parametrize("axes", [
    (FieldAxis(_COVERAGE, (1.5,)), FieldAxis(_DENSITY, (-1.0,))),
    (FieldAxis(_DENSITY, (-1.0,)), FieldAxis(_COVERAGE, (1.5,))),
])
def test_a_point_that_breaks_two_entries_names_them_in_library_order(
        gp_system, axes):
    # validate_library checks layers before tests, whatever the axis order
    plan = SweepPlan(axes=axes)
    outcome = _outcome(run_sweep, gp_system, plan)
    assert outcome == _outcome(naive_sweep, gp_system, plan)
    assert "layer 'cmos_3nm'" in outcome[1]


@pytest.mark.parametrize("chip_axis", [
    FieldAxis("system.chip[tile].core_area", (100.0, -5.0)),
    FieldAxis("system.chip[tile].quantity", (100, 0)),
])
def test_a_failing_sweep_names_its_first_failing_point_in_declaration_order(
        gp_system, chip_axis):
    # visited with the chip axis outermost, the layer's -1 fails first; in
    # declaration order the chip axis's second value fails first
    plan = SweepPlan(axes=(FieldAxis(_DENSITY, (0.01, -1.0)), chip_axis))
    outcome = _outcome(run_sweep, gp_system, plan)
    assert outcome == _outcome(naive_sweep, gp_system, plan)
    assert outcome[0] == "error" and "layer" not in outcome[1]


@pytest.mark.parametrize("bidirectional", (False, True))
def test_an_omitted_rx_area_follows_a_swept_tx_area(gp_system,
                                                    bidirectional):
    lib = gp_system.library
    link = dataclasses.replace(lib.ios["mesh_link"], rx_area=None,
                               bidirectional=bidirectional)
    lib = dataclasses.replace(lib, ios={"mesh_link": link})
    base = cc.validate_system(gp_system.root, gp_system.nets, lib)
    plan = SweepPlan(axes=(
        FieldAxis("library.io[mesh_link].tx_area", (0.05, 0.1)),
        SplitAxis(chip="tile", counts=(4,), side_bandwidth=1024.0,
                  io_type="mesh_link")))
    rows = run_sweep(base, plan)
    for row, tx in zip(rows, (0.05, 0.1)):
        explicit = dataclasses.replace(link, tx_area=tx, rx_area=tx)
        want = naive_sweep(cc.validate_system(
            base.root, base.nets,
            dataclasses.replace(lib, ios={"mesh_link": explicit})),
            SweepPlan(axes=plan.axes[1:]))
        assert row[1:] == want[0]
    assert rows[0][-3] < rows[1][-3]        # the area grew with the cells


def test_an_unvalidated_base_is_refused(gp_system):
    bad = dataclasses.replace(gp_system.root, children=tuple(
        dataclasses.replace(c, core_area=-1.0) if c.name == "tile" else c
        for c in gp_system.root.children))
    base = cc.ValidatedSystem(root=bad, nets=gp_system.nets,
                              library=gp_system.library)
    plan = SweepPlan(axes=(FieldAxis(
        "library.layer[cmos_3nm].defect_density", (0.002, 0.01)),))
    with pytest.raises(cc.ValidationError,
                       match="chip 'tile': core_area must be >= 0"):
        run_sweep(base, plan)


def test_a_reused_tree_is_evaluated_with_the_points_library(gp_system):
    plan = SweepPlan(axes=(FieldAxis(
        "library.layer[cmos_3nm].defect_density", (0.002, 0.004)),))
    rows = run_sweep(gp_system, plan)
    for row, density in zip(rows, (0.002, 0.004)):
        layers = dict(gp_system.library.layers)
        layers["cmos_3nm"] = dataclasses.replace(layers["cmos_3nm"],
                                                 defect_density=density)
        lib = dataclasses.replace(gp_system.library, layers=layers)
        report = evaluate(derive(cc.validate_system(
            gp_system.root, gp_system.nets, lib)))
        assert row[1] == report.cost_total
    assert rows[0][1] < rows[1][1]


def test_a_plan_with_no_axes_is_refused(gp_system):
    with pytest.raises(cc.ValidationError, match="sweep defines no axes"):
        run_sweep(gp_system, SweepPlan(axes=()))


@pytest.mark.parametrize("field, value, rule", [
    ("side_bandwidth", -5.0, "> 0"), ("side_bandwidth", 0.0, "> 0"),
    ("utilization", 2.0, "[0, 1]"), ("utilization", -1.0, "[0, 1]")])
def test_a_split_built_in_python_is_range_checked_naming_the_axis(
        gp_system, field, value, rule):
    axis = SplitAxis(chip="tile", counts=(4,), side_bandwidth=1024.0,
                     io_type="mesh_link")
    with pytest.raises(cc.ValidationError) as info:
        run_sweep(gp_system, SweepPlan(axes=(
            dataclasses.replace(axis, **{field: value}),)))
    assert str(info.value) == (
        f"<split tile>: {field} must be {rule}, got {value}")


_QUANTITY = "system.chip[tile].quantity"


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize("build, message", [
    (lambda: dataclasses.replace(_SPLIT, counts=(0,)),
     "<split tile>: <split> counts must be perfect squares, got 0"),
    (lambda: dataclasses.replace(_SPLIT, counts=(-4,)),
     "<split tile>: <split> counts must be perfect squares, got -4"),
    (lambda: dataclasses.replace(_SPLIT, counts=(4, 4.5)),
     "<split tile>: <split> counts must be perfect squares, got 4.5"),
    (lambda: dataclasses.replace(_SPLIT, counts=(float("nan"),)),
     "<split tile>: <split> counts must be perfect squares, got nan"),
    (lambda: dataclasses.replace(_SPLIT, counts=(16900,)),
     "<split tile>: <split> count 16900 is more than 16384 tiles"),
    (lambda: dataclasses.replace(_SPLIT, counts=()),
     "<split tile>: <split> needs counts"),
    (lambda: FieldAxis(_CORE_AREA, ()),
     f"<param {_CORE_AREA}>: values list is empty"),
    (lambda: FieldAxis(_CORE_AREA, (25.0, math.inf)),
     f"<param {_CORE_AREA}>: value must be finite, got inf"),
    (lambda: FieldAxis(_QUANTITY, (math.nan,)),
     f"<param {_QUANTITY}>: value must be finite, got nan"),
    (lambda: FieldAxis(_QUANTITY, (-math.inf,)),
     f"<param {_QUANTITY}>: value must be finite, got -inf"),
    (lambda: FieldAxis(_QUANTITY, (2, 2.5)),
     f"<param {_QUANTITY}>: field 'quantity' must be an integer: integral"
     " and below 2**53 in magnitude, got 2.5"),
    (lambda: FieldAxis(_QUANTITY, (-2.0 ** 53,)),
     f"<param {_QUANTITY}>: field 'quantity' must be an integer: integral"
     " and below 2**53 in magnitude, got -9007199254740992.0"),
])
def test_an_axis_built_in_python_checks_its_values_naming_the_axis(
        gp_system, build, message, jobs):
    with pytest.raises(cc.ValidationError) as info:
        run_sweep(gp_system, SweepPlan(axes=(build(),)), jobs=jobs)
    assert str(info.value) == message


def test_an_axis_keeps_its_values_and_a_split_its_counts_as_ints(gp_system):
    quantity = FieldAxis("system.chip[tile_0_0].quantity", (2.0, 3))
    assert [type(v) for v in quantity.values] == [float, int]
    split = dataclasses.replace(_SPLIT, counts=(1.0, 4.0))
    assert [type(n) for n in split.counts] == [int, int]
    plan = SweepPlan(axes=(split, quantity))
    assert run_sweep(gp_system, plan) == run_sweep(
        gp_system, SweepPlan(axes=(_SPLIT, quantity)))

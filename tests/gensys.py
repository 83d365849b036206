"""Seeded random-but-valid systems for the invariant harness.

Parameter ranges are chosen so every generated system passes validation
and keeps its yields away from float underflow; depth stays at or below
three levels and fanout at or below eight. The checks are shared between
the fast property run and the large acceptance sweep.
"""
import dataclasses
import itertools
import math
import random

import chipcost as cc
from chipcost.derive import derive
from chipcost.engine import evaluate
from chipcost.report import format_value

REL = 1e-9


def _fracs(rng):
    a, b, c = (rng.uniform(0.1, 1.0) for _ in range(3))
    s = a + b + c
    return a / s, b / s, c / s


def make_layer(rng: random.Random, name: str) -> cc.LayerDef:
    return cc.LayerDef(
        name=name, cost_per_mm2=rng.uniform(0.01, 0.5),
        defect_density=rng.uniform(0.0, 0.03),
        clustering_factor=rng.uniform(0.5, 5.0),
        critical_area_fraction=rng.uniform(0.1, 1.0),
        litho_fraction=rng.uniform(0.0, 0.5),
        mask_cost=rng.uniform(1e5, 1e7),
        stitch_yield=rng.uniform(0.95, 1.0))


def make_library(rng: random.Random) -> cc.Library:
    ios = {}
    for i in range(rng.randint(1, 2)):
        bidi = rng.random() < 0.3
        tx = rng.uniform(0.01, 0.2)
        ios[f"io{i}"] = cc.IODefinition(
            name=f"io{i}", tx_area=tx,
            rx_area=tx if bidi else rng.uniform(0.01, 0.2),
            bandwidth=rng.uniform(4.0, 32.0), reach=rng.uniform(1.0, 4.0),
            wires_per_instance=rng.randint(1, 8),
            energy_per_bit=rng.uniform(0.1, 2.0), bidirectional=bidi)
    layers = {name: make_layer(rng, name) for name in ("l0", "l1")}
    wafer = cc.WaferProcessDef(
        name="w", wafer_diameter=300.0, edge_exclusion=3.0,
        scribe_x=rng.uniform(0.05, 0.2), scribe_y=rng.uniform(0.05, 0.2),
        reticle_x=33.0, reticle_y=26.0,
        dicing=rng.choice(("grid", "free")),
        nre_fe_logic=rng.uniform(0.0, 5000.0),
        nre_fe_memory=rng.uniform(0.0, 2000.0),
        nre_fe_analog=rng.uniform(0.0, 8000.0),
        nre_be_logic=rng.uniform(0.0, 2000.0),
        nre_be_memory=rng.uniform(0.0, 1000.0),
        nre_be_analog=rng.uniform(0.0, 3000.0))
    asm = cc.AssemblyProcessDef(
        name="a", pick_place_time=rng.uniform(1.0, 30.0),
        pick_place_group=rng.randint(1, 4),
        pick_place_rate=rng.uniform(0.001, 0.1),
        bond_time=rng.uniform(5.0, 60.0), bond_group=rng.randint(1, 4),
        bond_rate=rng.uniform(0.001, 0.1),
        material_cost_per_mm2=rng.uniform(0.0, 0.002),
        die_separation=rng.uniform(0.05, 0.2),
        edge_exclusion=rng.uniform(0.0, 1.0),
        bonding_pitch=rng.uniform(0.05, 0.15), max_current_density=250.0,
        bond_yield=rng.uniform(0.9995, 1.0),
        alignment_yield=rng.uniform(0.995, 1.0),
        dielectric_defect_density=rng.uniform(0.0, 1e-4))
    tests = {
        name: cc.TestProcessDef(
            name=name, cost_per_second=rng.uniform(0.01, 0.2),
            patterns=rng.randint(1000, 100000),
            scan_chain_length=rng.randint(100, 1000), clock_period=1e-8,
            fault_coverage=rng.uniform(0.5, 1.0),
            scan_chains=rng.randint(1, 8),
            ios_per_scan_chain=rng.randint(1, 2),
            test_io_offset=rng.randint(0, 4))
        for name in ("t0", "t1")}
    return cc.Library(ios=ios, layers=layers, wafer_processes={"w": wafer},
                      assembly_processes={"a": asm}, test_processes=tests)


def make_system(seed: int) -> cc.ValidatedSystem:
    rng = random.Random(seed)
    lib = make_library(rng)
    counter = itertools.count()

    def chip(children=(), core_lo=5.0, core_hi=150.0):
        f = _fracs(rng)
        kw = {}
        if children:
            kw = {"assembly_process": "a",
                  "test_assembly": rng.choice(("t0", "t1"))}
        return cc.ChipSpec(
            name=f"c{next(counter)}", core_area=rng.uniform(core_lo, core_hi),
            core_power=rng.uniform(0.0, 15.0),
            core_voltage=rng.uniform(0.7, 1.2),
            quantity=rng.randint(10**4, 10**7),
            layers=("l0",) if rng.random() < 0.7 else ("l0", "l1"),
            wafer_process="w", test_self=rng.choice(("t0", "t1")),
            logic_fraction=f[0], memory_fraction=f[1], analog_fraction=f[2],
            children=tuple(children), **kw)

    depth = rng.randint(1, 3)
    if depth == 1:
        root = dataclasses.replace(chip(), assembly_process="a")
    elif depth == 2:
        root = chip([chip() for _ in range(rng.randint(1, 8))],
                    core_lo=0.0, core_hi=30.0)
    else:
        mids = [chip([chip() for _ in range(rng.randint(1, 4))],
                     core_lo=0.0, core_hi=20.0)
                for _ in range(rng.randint(1, 3))]
        mids.extend(chip() for _ in range(rng.randint(0, 2)))
        root = chip(mids, core_lo=0.0, core_hi=30.0)

    names = [c.name for c in root.walk()]
    nets = []
    for _ in range(rng.randint(0, 10)):
        if len(names) >= 2:
            a, b = rng.sample(names, 2)
        else:
            a, b = names[0], "ext0"
        io = rng.choice(sorted(lib.ios))
        if rng.random() < 0.2:
            nets.append(cc.NetSpec(source=a, dest=b, io_type=io,
                                   count=rng.randint(1, 6)))
        else:
            nets.append(cc.NetSpec(source=a, dest=b, io_type=io,
                                   bandwidth=rng.uniform(1.0, 64.0),
                                   utilization=rng.uniform(0.3, 1.0)))
    for i in range(rng.randint(0, 3)):
        nets.append(cc.NetSpec(source=rng.choice(names), dest=f"ext{i}",
                               io_type=rng.choice(sorted(lib.ios)),
                               bandwidth=rng.uniform(1.0, 32.0)))
    return cc.validate_system(root, tuple(nets), lib)


def make_twins(seed: int) -> cc.ValidatedSystem:
    """make_system(seed) with twin leaves: copies of up to three of its
    non-root leaves, each copy equal to its leaf but for its name and
    placed beside it. The copies of one leaf share a drawn set of nets,
    each copy one of each, so they tally alike; a copy of a leaf with no
    nets and an empty set tallies like its leaf. make_system's own draws
    are untouched, so its systems stay as they are."""
    system = make_system(seed)
    rng = random.Random(f"twins{seed}")
    names = [c.name for c in system.root.walk()]
    leaves = [c.name for c in system.root.walk()
              if not c.children and c is not system.root]
    picked = set(rng.sample(leaves, min(len(leaves), rng.randint(1, 3))))
    ios = sorted(system.library.ios)
    nets = list(system.nets)

    def net_set():
        out = []
        for i in range(rng.randint(0, 2)):
            far = rng.choice((*names, f"twin_ext{i}"))
            kw = ({"count": rng.randint(1, 6)} if rng.random() < 0.3 else
                  {"bandwidth": rng.uniform(1.0, 64.0),
                   "utilization": rng.uniform(0.3, 1.0)})
            out.append((far, rng.random() < 0.5, rng.choice(ios), kw))
        return out

    def grow(chip):
        children = []
        for child in chip.children:
            children.append(grow(child) if child.children else child)
            if child.name in picked:
                shared = net_set()
                for j in range(rng.randint(1, 3)):
                    twin = dataclasses.replace(child,
                                               name=f"{child.name}t{j}")
                    children.append(twin)
                    for far, outbound, io, kw in shared:
                        src, dst = ((twin.name, far) if outbound
                                    else (far, twin.name))
                        nets.append(cc.NetSpec(source=src, dest=dst,
                                               io_type=io, **kw))
        return dataclasses.replace(chip, children=tuple(children))

    return cc.validate_system(grow(system.root), tuple(nets),
                              system.library)


def make_layers(seed: int) -> cc.ValidatedSystem:
    """make_system(seed) on up to four layers: two more layers, l2 and l3,
    drawn from make_library's ranges, and each chip on 1-4 distinct
    layers in a drawn order, pre-order chip by chip. make_system's own
    draws are untouched, so its systems stay as they are."""
    system = make_system(seed)
    rng = random.Random(f"layers{seed}")
    layers = dict(system.library.layers)
    for name in ("l2", "l3"):
        layers[name] = make_layer(rng, name)

    def restack(chip):
        on = tuple(rng.sample(sorted(layers), rng.randint(1, 4)))
        return dataclasses.replace(chip, layers=on, children=tuple(
            map(restack, chip.children)))

    root = restack(system.root)
    lib = dataclasses.replace(system.library, layers=layers)
    return cc.validate_system(root, system.nets, lib)


# Libraries at the edges of the valid ranges: each sets the given fields
# of every entry of the given library tables.
EDGES = {
    "coverage_0": {"test_processes": {"fault_coverage": 0.0}},
    "coverage_1": {"test_processes": {"fault_coverage": 1.0}},
    "perfect_yields": {"layers": {"defect_density": 0.0, "stitch_yield": 1.0},
                       "assembly_processes": {
                           "bond_yield": 1.0, "alignment_yield": 1.0,
                           "dielectric_defect_density": 0.0}},
    "no_critical_area": {"layers": {"critical_area_fraction": 0.0}},
    "free_test": {"test_processes": {"cost_per_second": 0.0}},
    "free_assembly": {"assembly_processes": {
        "pick_place_rate": 0.0, "bond_rate": 0.0,
        "material_cost_per_mm2": 0.0}},
}


def at_edge(system: cc.ValidatedSystem, edge: str) -> cc.ValidatedSystem:
    """system on its library with EDGES[edge] applied."""
    lib = system.library
    for table, change in EDGES[edge].items():
        lib = dataclasses.replace(lib, **{table: {
            k: dataclasses.replace(v, **change)
            for k, v in getattr(lib, table).items()}})
    return cc.validate_system(system.root, system.nets, lib)


def scale_defects(system: cc.ValidatedSystem,
                  factor: float) -> cc.ValidatedSystem:
    layers = {k: dataclasses.replace(v,
                                     defect_density=v.defect_density * factor)
              for k, v in system.library.layers.items()}
    lib = dataclasses.replace(system.library, layers=layers)
    return cc.validate_system(system.root, system.nets, lib)


def check_invariants(system: cc.ValidatedSystem) -> None:
    """Assert every cross-module invariant on one system."""
    ds = derive(system)
    rep = evaluate(ds)

    def walk_derived(dc):
        active = dc.area_core + dc.area_io
        if dc.grown_for_pads:
            assert dc.area == dc.dim_x * dc.dim_y
            assert dc.area >= max(active, dc.area_stack) - 1e-12
        else:
            assert dc.area == max(active, dc.area_stack, dc.area_pads)
        want = (dc.spec.core_power + sum(c.power_total for c in dc.children)
                + dc.power_io)
        assert abs(dc.power_total - want) <= REL * max(1.0, abs(want))
        for c in dc.children:
            walk_derived(c)

    walk_derived(ds.root)

    for n in rep.nodes:
        if n.infeasible:
            continue
        assert 0.0 < n.yield_die <= 1.0
        assert 0.0 < n.yield_tested_self <= 1.0
        assert 0.0 < n.quality_self <= 1.0
        assert 0.0 < n.yield_assembly <= 1.0
        assert 0.0 < n.quality_shipped <= 1.0
        upstream = (n.cost_assembly + n.cost_test_assembly + n.cost_re_self
                    + sum(c.cost_re for c in n.children))
        assert (abs(n.cost_re * n.yield_tested_assembly - upstream)
                <= 1e-12 * max(1.0, upstream))
        assert n.cost_re >= n.cost_re_self - 1e-12
        assert n.cost_scrap >= 0.0

    assert rep.infeasible == (not math.isfinite(rep.cost_total))
    if not rep.infeasible:
        total = sum(rep.breakdown.values())
        assert abs(total - rep.cost_total) <= REL * abs(rep.cost_total)
        # the report_to_csv rows, five per node, sum to the TOTAL it writes
        rows = math.fsum(
            v for n in rep.nodes for v in (
                n.cost_die, n.cost_assembly,
                n.cost_test_self + n.cost_test_assembly, n.cost_scrap,
                n.cost_nre_self))
        assert abs(rows - rep.cost_total) <= REL * abs(rep.cost_total)
        assert (cc.report_to_csv(rep).splitlines()[-1]
                == f"TOTAL,total,{format_value(rep.cost_total)}")
    else:
        assert rep.infeasible_paths

    # evaluation is pure: an identical rebuild reproduces every float
    assert evaluate(derive(system)) == rep

    # defect density moves recurring cost only, and never downward
    worse = evaluate(derive(scale_defects(system, 3.0)))
    assert worse.cost_nre == rep.cost_nre
    if math.isfinite(rep.cost_re):
        assert worse.cost_re >= rep.cost_re * (1.0 - 1e-12)

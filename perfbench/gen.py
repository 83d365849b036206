"""Seeded input generator for the chipcost benchmark.

Writes each workload's library, system, netlist and sweep XML (plus the
extra designs its checks and ``eval_s`` need) into a directory, so the
program under test receives only generated files. The same seed always
gives byte-identical files.

    python3 perfbench/gen.py --workload field_sweep --seed 1 --out DIR

``tile_split`` and ``chip_size`` start from ``configs/graph_processor/``;
``field_sweep`` builds its own heterogeneous 2.5D/3D package.
"""
from __future__ import annotations

import argparse
import math
import os
import random
import sys
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GP_DIR = os.path.join(ROOT, "configs", "graph_processor")

WORKLOADS = ("field_sweep", "tile_split", "chip_size")

TILE_COUNTS = (1, 16, 64, 256, 1024)
# Sweep points per workload are fixed: only the values change with the
# seed, so every run attempts the same number of operations.
FIELD_AXIS_SIZES = (2, 6, 4, 3, 3, 2)   # outer axis first
CHIP_SIZE_POINTS = 120
# The shape of every design is fixed too, so the work per point does not
# change with the seed: field_sweep has 3 interposers of 4 compute dies,
# 2 memory dies and an IO die, a buried bridge and 2 NICs (28 chips, 48
# nets); chip_size spans the same area range at every seed.
FIELD_INTERPOSERS = 3
FIELD_CPUS = 4
FIELD_MEMS = 2
FIELD_NICS = 2
CHIP_SIZE_RANGE = (1.0, 1400.0)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _elem(tag: str, **attrs) -> ET.Element:
    e = ET.Element(tag)
    for k, v in attrs.items():
        if v is not None:
            e.set(k, _fmt(v))
    return e


def _write(elem: ET.Element, path: str) -> None:
    ET.indent(elem)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(ET.tostring(elem, encoding="unicode") + "\n")


def _netlist(nets: list[dict]) -> ET.Element:
    root = ET.Element("netlist")
    for n in nets:
        root.append(_elem("net", **{"from": n["from"]}, to=n["to"],
                          io=n["io"], bandwidth=n.get("bandwidth"),
                          count=n.get("count"),
                          utilization=n.get("utilization", 1.0)))
    return root


def _chip(spec: dict) -> ET.Element:
    spec = dict(spec)
    children = spec.pop("children", ())
    e = _elem("chip", **spec)
    for c in children:
        e.append(_chip(c))
    return e


def _sweep(params: list[tuple[str, list[float]]],
           split: dict | None = None) -> ET.Element:
    root = ET.Element("sweep")
    for target, values in params:
        root.append(_elem("param", target=target,
                          values=",".join(_fmt(float(v)) for v in values)))
    if split is not None:
        root.append(_elem("split", **split))
    return root


def _ascending(rng: random.Random, n: int, lo: float, hi: float,
               digits: int = 6) -> list[float]:
    """n distinct ascending values, one per equal slice of [lo, hi]."""
    step = (hi - lo) / n
    return [round(lo + step * (i + rng.uniform(0.1, 0.9)), digits)
            for i in range(n)]


def _jitter(rng: random.Random, value: float, share: float = 0.2) -> float:
    return round(value * rng.uniform(1.0 - share, 1.0 + share), 6)


# --- field_sweep ----------------------------------------------------------

def _field_library(rng: random.Random) -> ET.Element:
    lib = ET.Element("library")
    lib.append(_elem("io", name="d2d", tx_area=_jitter(rng, 0.02),
                     rx_area=_jitter(rng, 0.02), bandwidth=16.0,
                     reach=2.0, wires_per_instance=4,
                     energy_per_bit=0.5, bidirectional=False))
    hbm_area = _jitter(rng, 0.03)
    lib.append(_elem("io", name="hbm_phy", tx_area=hbm_area,
                     rx_area=hbm_area, bandwidth=32.0, reach=3.0,
                     wires_per_instance=8,
                     energy_per_bit=_jitter(rng, 1.2),
                     bidirectional=True))
    lib.append(_elem("io", name="serdes", tx_area=_jitter(rng, 0.2),
                     rx_area=_jitter(rng, 0.2), bandwidth=56.0, reach=4.0,
                     wires_per_instance=4,
                     energy_per_bit=_jitter(rng, 2.0), bidirectional=False))
    for name, cost, dd, caf, mask in (
            ("logic_n5", 0.2, 0.001, 0.7, 1.5e7),
            ("mem_n7", 0.12, 0.0015, 0.6, 6e6),
            ("io_n12", 0.06, 0.001, 0.5, 2e6),
            ("interposer_si", 0.008, 0.0002, 0.2, 4e5),
            ("organic_sub", 0.002, 0.00002, 0.1, 1e5)):
        lib.append(_elem("layer", name=name, cost_per_mm2=_jitter(rng, cost),
                         defect_density=_jitter(rng, dd),
                         clustering_factor=2.0,
                         critical_area_fraction=caf, litho_fraction=0.3,
                         mask_cost=mask, stitch_yield=0.995))
    for name, diameter, dicing in (("fab_300", 300.0, "grid"),
                                   ("fab_300_free", 300.0, "free"),
                                   ("panel_600", 600.0, "grid")):
        lib.append(_elem("waferprocess", name=name, wafer_diameter=diameter,
                         edge_exclusion=3.0, scribe_x=0.1, scribe_y=0.1,
                         reticle_x=33.0, reticle_y=26.0, dicing=dicing,
                         nre_fe_logic=4000.0, nre_fe_memory=2000.0,
                         nre_fe_analog=8000.0, nre_be_logic=1500.0,
                         nre_be_memory=800.0, nre_be_analog=3000.0))
    lib.append(_elem("assembly", name="hybrid_bond", pick_place_time=10.0,
                     pick_place_group=1, pick_place_rate=0.005,
                     bond_time=30.0, bond_group=2, bond_rate=0.01,
                     material_cost_per_mm2=0.0005, die_separation=0.1,
                     edge_exclusion=0.5, bonding_pitch=0.04,
                     max_current_density=250.0, bond_yield=0.999999,
                     alignment_yield=0.9995,
                     dielectric_defect_density=1e-5))
    lib.append(_elem("assembly", name="flip_chip", pick_place_time=5.0,
                     pick_place_group=1, pick_place_rate=0.004,
                     bond_time=20.0, bond_group=4, bond_rate=0.008,
                     material_cost_per_mm2=0.0002, die_separation=0.2,
                     edge_exclusion=1.0, bonding_pitch=0.15,
                     max_current_density=250.0, bond_yield=0.9999995,
                     alignment_yield=0.9998))
    for name, patterns, coverage in (("die_test", 300000, 0.95),
                                     ("mem_test", 100000, 0.9),
                                     ("stack_test", 50000, 0.9),
                                     ("pkg_test", 200000, 0.98)):
        lib.append(_elem("test", name=name, cost_per_second=0.1,
                         patterns=patterns, scan_chain_length=500,
                         clock_period=1e-8, fault_coverage=coverage,
                         scan_chains=4, ios_per_scan_chain=2,
                         test_io_offset=4))
    return lib


def _field_die(rng: random.Random, name: str, layer: str, wafer: str,
               test: str, area: tuple[float, float],
               power: tuple[float, float], fracs=(0.8, 0.15, 0.05),
               **extra) -> dict:
    return dict(name=name, core_area=round(rng.uniform(*area), 3),
                core_power=round(rng.uniform(*power), 3), core_voltage=0.75,
                quantity=rng.choice((500000, 1000000, 2000000)),
                layers=layer, wafer_process=wafer, test_self=test,
                logic_fraction=fracs[0], memory_fraction=fracs[1],
                analog_fraction=fracs[2], **extra)


def _field_system(rng: random.Random) -> tuple[dict, list[dict]]:
    """Package -> interposers -> dies (depth 3), a buried bridge die in
    the package, and network dies mounted on the package directly."""
    nets: list[dict] = []

    def util() -> float:
        return round(rng.uniform(0.3, 1.0), 3)

    interposers = []
    iods = []
    for k in range(FIELD_INTERPOSERS):
        cpus = [_field_die(rng, f"cpu{k}_{i}", "logic_n5", "fab_300",
                           "die_test", (40.0, 120.0), (20.0, 80.0))
                for i in range(FIELD_CPUS)]
        mems = [_field_die(rng, f"mem{k}_{i}", "mem_n7", "fab_300_free",
                           "mem_test", (60.0, 110.0), (5.0, 15.0),
                           fracs=(0.1, 0.85, 0.05))
                for i in range(FIELD_MEMS)]
        iod = _field_die(rng, f"iod{k}", "io_n12", "fab_300", "die_test",
                         (20.0, 50.0), (5.0, 15.0), fracs=(0.5, 0.1, 0.4))
        iods.append(iod["name"])
        for i, c in enumerate(cpus):
            nxt = cpus[(i + 1) % len(cpus)]["name"]
            nets.append(dict({"from": c["name"]}, to=nxt, io="d2d",
                             bandwidth=float(rng.choice((128, 256, 512))),
                             utilization=util()))
            nets.append(dict({"from": c["name"]},
                             to=mems[i % len(mems)]["name"], io="hbm_phy",
                             bandwidth=float(rng.choice((256, 512, 1024))),
                             utilization=util()))
            nets.append(dict({"from": c["name"]}, to=iod["name"], io="d2d",
                             bandwidth=float(rng.choice((64, 128))),
                             utilization=util()))
        interposers.append(dict(
            name=f"ip{k}", core_area=0.0, core_power=0.0, core_voltage=0.75,
            quantity=1000000, layers="interposer_si", wafer_process="fab_300",
            test_self="stack_test", assembly_process="hybrid_bond",
            test_assembly="stack_test", logic_fraction=0.0,
            memory_fraction=0.0, analog_fraction=1.0,
            children=tuple(cpus + mems + [iod])))
    for k in range(len(iods)):
        nets.append(dict({"from": iods[k]}, to=iods[(k + 1) % len(iods)],
                         io="d2d", bandwidth=float(rng.choice((256, 512))),
                         utilization=util()))
        nets.append(dict({"from": iods[k]}, to=f"ext_host{k}", io="serdes",
                         bandwidth=float(rng.choice((112, 224))),
                         utilization=util()))
    bridge = _field_die(rng, "bridge0", "io_n12", "fab_300", "die_test",
                        (8.0, 15.0), (0.5, 2.0), fracs=(0.2, 0.0, 0.8),
                        buried=True)
    nets.append(dict({"from": iods[0]}, to="bridge0", io="d2d",
                     count=rng.randint(2, 6)))
    nets.append(dict({"from": "bridge0"}, to=iods[1], io="d2d",
                     count=rng.randint(2, 6)))
    nics = [_field_die(rng, f"nic{j}", "io_n12", "fab_300", "die_test",
                       (15.0, 30.0), (3.0, 8.0), fracs=(0.4, 0.1, 0.5))
            for j in range(FIELD_NICS)]
    for j, nic in enumerate(nics):
        nets.append(dict({"from": nic["name"]}, to=f"eth{j}", io="serdes",
                         count=rng.randint(2, 8)))
        nets.append(dict({"from": iods[j]}, to=nic["name"], io="d2d",
                         bandwidth=float(rng.choice((128, 256))),
                         utilization=util()))
    root = dict(name="package", core_area=0.0, core_power=0.0,
                core_voltage=0.75, quantity=1000000, layers="organic_sub",
                wafer_process="panel_600", test_self="pkg_test",
                assembly_process="flip_chip", test_assembly="pkg_test",
                logic_fraction=0.0, memory_fraction=0.0, analog_fraction=1.0,
                children=tuple([bridge] + interposers + nics))
    return root, nets


def _gen_field_sweep(rng: random.Random, out: str) -> None:
    _write(_field_library(rng), os.path.join(out, "library.xml"))
    root, nets = _field_system(rng)
    _write(_chip(root), os.path.join(out, "system.xml"))
    _write(_netlist(nets), os.path.join(out, "netlist.xml"))
    n_e, n_dd, n_cov, n_cost, n_bond, n_align = FIELD_AXIS_SIZES
    coverage = _ascending(rng, n_cov - 1, 0.85, 0.995, 4) + [1.0]
    params = [
        ("library.io[d2d].energy_per_bit",
         _ascending(rng, n_e, 0.3, 0.9, 4)),
        ("library.layer[logic_n5].defect_density",
         _ascending(rng, n_dd, 0.0005, 0.004, 7)),
        ("library.test[die_test].fault_coverage", coverage),
        ("library.test[die_test].cost_per_second",
         _ascending(rng, n_cost, 0.05, 0.2, 4)),
        ("library.assembly[hybrid_bond].bond_yield",
         _ascending(rng, n_bond, 0.99995, 0.999999, 8)),
        ("library.assembly[hybrid_bond].alignment_yield",
         _ascending(rng, n_align, 0.999, 0.99995, 6)),
    ]
    _write(_sweep(params), os.path.join(out, "sweep.xml"))
    # every point evaluates the same tree, so the base design is the
    # largest one
    _write(_chip(root), os.path.join(out, "eval_system.xml"))
    _write(_netlist(nets), os.path.join(out, "eval_netlist.xml"))


# --- graph_processor derived workloads -------------------------------------

def _gp_library(defect_density: float) -> ET.Element:
    lib = ET.parse(os.path.join(GP_DIR, "library.xml")).getroot()
    for layer in lib.iter("layer"):
        if layer.get("name") == "cmos_3nm":
            layer.set("defect_density", _fmt(defect_density))
    return lib


def _gp_system() -> ET.Element:
    return ET.parse(os.path.join(GP_DIR, "system.xml")).getroot()


def _mesh_nets(m: int, side_bandwidth: float) -> list[dict]:
    """The m x m mesh the split axis builds, written out independently."""
    bw = side_bandwidth / m
    name = lambda r, c: f"tile_{r}_{c}"  # noqa: E731
    nets = []
    for r in range(m):
        for c in range(m - 1):
            nets.append(dict({"from": name(r, c)}, to=name(r, c + 1),
                             io="mesh_link", bandwidth=bw))
    for c in range(m):
        for r in range(m - 1):
            nets.append(dict({"from": name(r, c)}, to=name(r + 1, c),
                             io="mesh_link", bandwidth=bw))
    for i in range(m):
        for side, (r, c) in (("w", (i, 0)), ("e", (i, m - 1)),
                             ("n", (0, i)), ("s", (m - 1, i))):
            nets.append(dict({"from": name(r, c)}, to=f"edge_{side}{i}",
                             io="mesh_link", bandwidth=bw))
    return nets


def _gen_tile_split(rng: random.Random, out: str) -> None:
    densities = _ascending(rng, 2, 0.002, 0.02, 6)
    _write(_gp_library(densities[0]), os.path.join(out, "library.xml"))
    for src in ("system.xml", "netlist.xml"):
        tree = ET.parse(os.path.join(GP_DIR, src)).getroot()
        _write(tree, os.path.join(out, src))
    params = [("library.layer[cmos_3nm].defect_density", densities)]
    split = dict(chip="tile", counts=",".join(map(str, TILE_COUNTS)),
                 side_bandwidth=1024.0, io="mesh_link", external="edge",
                 utilization=1.0)
    _write(_sweep(params, split), os.path.join(out, "sweep.xml"))
    # the largest design: the 1024-tile split, as an ordinary system
    n = TILE_COUNTS[-1]
    m = math.isqrt(n)
    sysroot = _gp_system()
    template = sysroot.find("chip")
    sysroot.remove(template)
    for r in range(m):
        for c in range(m):
            tile = ET.SubElement(sysroot, "chip", dict(template.attrib))
            tile.set("name", f"tile_{r}_{c}")
            tile.set("core_area", _fmt(float(template.get("core_area")) / n))
            tile.set("core_power",
                     _fmt(float(template.get("core_power")) / n))
            tile.set("quantity", str(int(template.get("quantity")) * n))
    _write(sysroot, os.path.join(out, "eval_system.xml"))
    _write(_netlist(_mesh_nets(m, 1024.0)),
           os.path.join(out, "eval_netlist.xml"))


def chip_size_values(rng: random.Random) -> list[float]:
    """Log-spaced core areas from about 1 mm2 to past one reticle field
    (858 mm2), each jittered inside its own log slice so all differ."""
    lo, hi = CHIP_SIZE_RANGE
    span = math.log(hi / lo)
    n = CHIP_SIZE_POINTS
    return [round(lo * math.exp(span * (i + rng.uniform(0.05, 0.95)) / n), 6)
            for i in range(n)]


def _gen_chip_size(rng: random.Random, out: str) -> None:
    _write(_gp_library(0.005), os.path.join(out, "library.xml"))
    sizes = chip_size_values(rng)
    power = round(rng.uniform(3.0, 8.0), 3)
    bandwidth = float(rng.choice((32, 64, 96)))

    def system(core_area: float) -> ET.Element:
        root = _gp_system()
        die = root.find("chip")
        die.set("name", "die")
        die.set("core_area", _fmt(core_area))
        die.set("core_power", _fmt(power))
        return root

    nets = [dict({"from": "die"}, to=f"edge_{side}", io="mesh_link",
                 bandwidth=bandwidth) for side in "wens"]
    _write(system(sizes[0]), os.path.join(out, "system.xml"))
    _write(_netlist(nets), os.path.join(out, "netlist.xml"))
    _write(_sweep([("system.chip[die].core_area", sizes)]),
           os.path.join(out, "sweep.xml"))
    _write(system(sizes[-1]), os.path.join(out, "eval_system.xml"))
    _write(_netlist(nets), os.path.join(out, "eval_netlist.xml"))
    # sizes checked against the closed forms through `chipcost eval`:
    # one sub-reticle, one just past the field, the largest. The pure
    # Python corner enumeration costs O((wafer radius / pitch)^3), so the
    # sub-reticle sample stays above 16 mm2.
    sub = [s for s in sizes if 16.0 <= s <= 800.0]
    over = [s for s in sizes if s > 858.0]
    samples = [rng.choice(sub), over[0], sizes[-1]]
    for k, size in enumerate(samples):
        _write(system(size), os.path.join(out, f"sample{k}_system.xml"))


_GENERATORS = {
    "field_sweep": _gen_field_sweep,
    "tile_split": _gen_tile_split,
    "chip_size": _gen_chip_size,
}


def generate(workload: str, seed: int, out: str) -> dict:
    """Write the workload's inputs into `out`; return their paths."""
    os.makedirs(out, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    _GENERATORS[workload](rng, out)
    paths = {name[:-4]: os.path.join(out, name)
             for name in sorted(os.listdir(out)) if name.endswith(".xml")}
    return paths


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    for name, path in generate(args.workload, args.seed, args.out).items():
        print(f"{name}\t{path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Correctness checks made apart from chipcost.

Nothing here imports the package. The expected values come from the
generated XML, read with ElementTree, and from closed forms: power as
core power plus energy x bandwidth x utilization at every terminal in
the tree, NRE from the library's design-cost rates and mask costs,
negative-binomial die yield, dies per wafer by explicit corner
enumeration and stitch counts from an explicit reticle cell layout.

A row or report that breaks a check marks its operation failed; the
messages say which check and by how much.
"""
from __future__ import annotations

import csv
import math
import os
import re
import xml.etree.ElementTree as ET

REL = 1e-9
OUTPUT_COLUMNS = ("cost_total", "cost_silicon", "cost_assembly", "cost_test",
                  "cost_scrap", "cost_nre", "yield_chip", "quality_shipped",
                  "area_mm2", "power_w", "infeasible")
BREAKDOWN = ("cost_silicon", "cost_assembly", "cost_test", "cost_scrap",
             "cost_nre")
_LIB_KINDS = ("io", "layer", "waferprocess", "assembly", "test")
_TARGET = re.compile(r"^library\.(\w+)\[([^\]]+)\]\.(\w+)$"
                     r"|^system\.chip\[([^\]]+)\]\.(\w+)$")


def _value(text: str):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return float(text)
    except ValueError:
        return text


def _attrs(elem: ET.Element) -> dict:
    return {k: _value(v) for k, v in elem.attrib.items()}


def _close(got: float, want: float, rel: float = REL) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def cell(value) -> str:
    """The CLI's CSV spelling of one in-process value: 9 significant
    digits, integers as written, booleans as 0/1."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if math.isnan(value):
        return "nan"
    return format(value, ".9g")


# --- geometry oracles --------------------------------------------------------

def grid_dies_oracle(die_x: float, die_y: float, diameter: float,
                     exclusion: float, sx: float, sy: float) -> int:
    """Best count over first-column heights h = 1, 2, ... of grid cells
    whose four corners lie inside the usable circle, by enumerating every
    cell. For each h the first column of h dies sits flush against the
    circle, which fixes the grid phase."""
    r = diameter / 2.0 - exclusion
    px, py = die_x + sx, die_y + sy
    if r <= 0.0 or die_x <= 0.0 or die_y <= 0.0:
        return 0
    r2 = r * r + 1e-6
    best = 0
    h = 1
    while h * py / 2.0 <= r + 1e-9:
        y0 = -h * py / 2.0
        x0 = -math.sqrt(max(0.0, r * r - y0 * y0))
        count = 0
        for i in range(math.floor((-r - y0) / py) - 1,
                       math.ceil((r - y0) / py) + 1):
            yb = y0 + i * py
            wy2 = max(yb * yb, (yb + py) * (yb + py))
            if wy2 > r2:
                continue
            for j in range(math.floor((-r - x0) / px) - 1,
                           math.ceil((r - x0) / px) + 1):
                xl = x0 + j * px
                if max(xl * xl, (xl + px) * (xl + px)) + wy2 <= r2:
                    count += 1
        best = max(best, count)
        h += 1
    return best


def stitch_edges(n: int) -> int:
    """Shared edges of n reticle cells laid out as the largest square
    block, then a run up its right side, then a run along its top."""
    if n <= 1:
        return 0
    s = math.isqrt(n)
    cells = {(i, j) for i in range(s) for j in range(s)}
    rest = n - s * s
    for i in range(min(rest, s)):
        cells.add((i, s))
    for j in range(rest - s):
        cells.add((s, j))
    return sum(((i + 1, j) in cells) + ((i, j + 1) in cells)
               for i, j in cells)


def reticle(area: float, wp: dict) -> tuple[float, int]:
    """(exposure-field utilization, stitch count) of a die."""
    field = wp["reticle_x"] * wp["reticle_y"]
    if area <= field * (1.0 + 1e-9):
        k = math.floor(field / area + 1e-9)
        return k * area / field, 0
    n = math.ceil(area / field - 1e-9)
    return area / (n * field), stitch_edges(n)


# --- inputs ------------------------------------------------------------------

class Inputs:
    """The generated XML of one workload, as plain data."""

    def __init__(self, inputs_dir: str, system: str = "system.xml",
                 netlist: str = "netlist.xml"):
        self.dir = inputs_dir
        lib = ET.parse(os.path.join(inputs_dir, "library.xml")).getroot()
        self.lib: dict[str, dict[str, dict]] = {k: {} for k in _LIB_KINDS}
        for e in lib:
            a = _attrs(e)
            if e.tag == "io":
                a.setdefault("rx_area", a["tx_area"])
                a.setdefault("bidirectional", False)
            self.lib[e.tag][a["name"]] = a
        self.root = self._chip(ET.parse(os.path.join(
            inputs_dir, system)).getroot())
        self.nets = [_attrs(e) for e in ET.parse(os.path.join(
            inputs_dir, netlist)).getroot()]
        self.axes = []
        for e in ET.parse(os.path.join(inputs_dir, "sweep.xml")).getroot():
            a = dict(e.attrib)
            if e.tag == "param":
                self.axes.append(("param", a["target"],
                                  [float(v) for v in a["values"].split(",")]))
            else:
                a["counts"] = [int(v) for v in a["counts"].split(",")]
                self.axes.append(("split", a))

    def _chip(self, elem: ET.Element) -> dict:
        a = _attrs(elem)
        a["children"] = [self._chip(c) for c in elem]
        return a

    def chips(self, chip: dict | None = None):
        chip = self.root if chip is None else chip
        yield chip
        for c in chip["children"]:
            yield from self.chips(c)

    def columns(self) -> list[str]:
        cols = []
        for axis in self.axes:
            if axis[0] == "param":
                cols.append(axis[1])
            else:
                cols += [f"split.{axis[1]['chip']}",
                         f"{axis[1]['chip']}.core_area_each"]
        return cols + list(OUTPUT_COLUMNS)

    def with_overrides(self, row: dict) -> tuple[dict, dict]:
        """(library, chip-field overrides) after a row's param axes."""
        lib = {k: {n: dict(v) for n, v in t.items()}
               for k, t in self.lib.items()}
        chip_over: dict[str, dict] = {}
        for axis in self.axes:
            if axis[0] != "param":
                continue
            m = _TARGET.match(axis[1])
            if m.group(1):
                lib[m.group(1)][m.group(2)][m.group(3)] = row[axis[1]]
            else:
                chip_over.setdefault(m.group(4), {})[m.group(5)] = \
                    row[axis[1]]
        return lib, chip_over


# --- closed forms ------------------------------------------------------------

def nre_self(chip: dict, lib: dict) -> float:
    wp = lib["waferprocess"][chip["wafer_process"]]
    fr = (chip.get("logic_fraction", 1.0), chip.get("memory_fraction", 0.0),
          chip.get("analog_fraction", 0.0))
    rate = sum(f * (wp.get(f"nre_fe_{k}", 0.0) + wp.get(f"nre_be_{k}", 0.0))
               for f, k in zip(fr, ("logic", "memory", "analog")))
    masks = sum(lib["layer"][name]["mask_cost"]
                for name in chip["layers"].split(","))
    return ((chip["core_area"] * rate + chip.get("reticle_share", 1.0) * masks)
            / chip["quantity"])


def net_instances(net: dict, io: dict) -> int:
    if "count" in net:
        return int(net["count"])
    return math.ceil(net["bandwidth"] / io["bandwidth"] - 1e-12)


def net_power(net: dict, io: dict) -> float:
    """W charged at one terminal: pJ/bit x Gbit/s x utilization = mW."""
    bw = (net["bandwidth"] if "bandwidth" in net
          else net["count"] * io["bandwidth"])
    return io["energy_per_bit"] * bw * net.get("utilization", 1.0) * 1e-3


def io_area(name: str, nets: list[dict], lib: dict) -> float:
    area = 0.0
    for net in nets:
        if name not in (net["from"], net["to"]):
            continue
        io = lib["io"][net["io"]]
        inst = net_instances(net, io)
        if io["bidirectional"]:
            area += (io["tx_area"] + io["rx_area"]) * inst
        else:
            area += io["tx_area" if net["from"] == name else "rx_area"] * inst
    return area


def tree_power(chips: list[dict], nets: list[dict], lib: dict) -> float:
    names = {c["name"] for c in chips}
    power = sum(c["core_power"] for c in chips)
    for net in nets:
        terminals = (net["from"] in names) + (net["to"] in names)
        power += terminals * net_power(net, lib["io"][net["io"]])
    return power


def die_closed_forms(chip: dict, nets: list[dict], lib: dict) -> dict:
    """Area, die yield and die cost of a leaf die not grown for pads."""
    wp = lib["waferprocess"][chip["wafer_process"]]
    active = chip["core_area"] + io_area(chip["name"], nets, lib)
    side = math.sqrt(active)
    util, stitches = reticle(active, wp)
    dpw = grid_dies_oracle(side, side, wp["wafer_diameter"],
                           wp["edge_exclusion"], wp["scribe_x"],
                           wp["scribe_y"])
    r = wp["wafer_diameter"] / 2.0 - wp["edge_exclusion"]
    y = 1.0
    cost = 0.0
    for name in chip["layers"].split(","):
        layer = lib["layer"][name]
        alpha = layer["clustering_factor"]
        crit = active * layer["critical_area_fraction"]
        y *= (1.0 + layer["defect_density"] * crit / alpha) ** -alpha
        y *= layer.get("stitch_yield", 1.0) ** stitches
        lf = layer.get("litho_fraction", 0.0)
        cost += (active * layer["cost_per_mm2"] * math.pi * r * r
                 / (dpw * side * side) * (1.0 - lf + lf / util))
    return {"area_mm2": active, "yield_die": y, "cost_die": cost,
            "dies_per_wafer": dpw, "stitches": stitches}


# --- checks ------------------------------------------------------------------

class Checker:
    def __init__(self, workload: str, inputs_dir: str):
        self.workload = workload
        self.inputs = Inputs(inputs_dir)
        self.columns = self.inputs.columns()
        self.dd_axes = [a[1] for a in self.inputs.axes
                        if a[0] == "param" and a[1].endswith("defect_density")]

    # rows ------------------------------------------------------------------
    def row_failures(self, rows: list[list]) -> dict[int, str]:
        """Index -> first broken check, for in-process sweep rows."""
        bad: dict[int, str] = {}
        if len(rows) != self.expected_points():
            bad[-1] = f"{len(rows)} rows, expected {self.expected_points()}"
        first_nre = None
        for i, raw in enumerate(rows):
            if len(raw) != len(self.columns):
                bad[i] = f"row has {len(raw)} cells"
                continue
            row = dict(zip(self.columns, raw))
            msg = self._row_check(row)
            if msg is None and self.workload == "field_sweep":
                first_nre = row["cost_nre"] if first_nre is None \
                    else first_nre
                if row["cost_nre"] != first_nre:
                    msg = f"cost_nre {row['cost_nre']!r} != {first_nre!r}"
            if msg:
                bad[i] = msg
        for i, msg in self._monotone(rows).items():
            bad.setdefault(i, msg)
        return bad

    def expected_points(self) -> int:
        n = 1
        for axis in self.inputs.axes:
            n *= len(axis[2]) if axis[0] == "param" else len(axis[1]["counts"])
        return n

    def _row_check(self, row: dict) -> str | None:
        total = row["cost_total"]
        parts = sum(row[c] for c in BREAKDOWN)
        if not (math.isfinite(total) and _close(parts, total)):
            return f"breakdown sum {parts!r} != cost_total {total!r}"
        for c in ("yield_chip", "quality_shipped"):
            if not 0.0 < row[c] <= 1.0:
                return f"{c} {row[c]!r} outside (0, 1]"
        if row["infeasible"] not in (False, 0):
            return "point is infeasible"
        want_power, want_nre = self._power_nre(row)
        if not _close(row["power_w"], want_power):
            return f"power_w {row['power_w']!r}, closed form {want_power!r}"
        if not _close(row["cost_nre"], want_nre):
            return f"cost_nre {row['cost_nre']!r}, closed form {want_nre!r}"
        for axis in self.inputs.axes:
            if axis[0] == "split":
                chip = axis[1]["chip"]
                template = next(c for c in self.inputs.chips()
                                if c["name"] == chip)
                n = row[f"split.{chip}"]
                got = row[f"{chip}.core_area_each"] * n
                if not _close(got, template["core_area"], 1e-12):
                    return f"core_area_each * n = {got!r}"
        return None

    def _power_nre(self, row: dict) -> tuple[float, float]:
        lib, chip_over = self.inputs.with_overrides(row)
        chips = [dict(c, **chip_over.get(c["name"], {}))
                 for c in self.inputs.chips()]
        nets = self.inputs.nets
        for axis in self.inputs.axes:
            if axis[0] == "split":
                chips, nets = self._split(chips, nets, axis[1],
                                          row[f"split.{axis[1]['chip']}"])
        power = tree_power(chips, nets, lib)
        nre = sum(nre_self(c, lib) for c in chips)
        return power, nre

    @staticmethod
    def _split(chips, nets, axis, n):
        """Tiles and mesh nets of an n-way split, as closed-form tallies:
        n tiles of 1/n the template, 2m(m-1) mesh links charged at both
        ends and 4m edge stubs charged at one, each carrying
        side_bandwidth / m."""
        m = math.isqrt(n)
        template = next(c for c in chips if c["name"] == axis["chip"])
        tile = dict(template, core_area=template["core_area"] / n,
                    core_power=template["core_power"] / n,
                    quantity=template["quantity"] * n)
        others = [c for c in chips if c["name"] != axis["chip"]]
        kept = [x for x in nets if axis["chip"] not in (x["from"], x["to"])]
        tiles = [dict(tile, name=f"tile_{k}") for k in range(n)]
        link = {"from": "tile_0", "to": f"tile_{n - 1}", "io": axis["io"],
                "bandwidth": float(axis["side_bandwidth"]) / m,
                "utilization": float(axis.get("utilization", 1.0))}
        stub = dict(link, to="outside")
        return (others + tiles,
                kept + [link] * (2 * m * (m - 1)) + [stub] * (4 * m))

    def _monotone(self, rows: list[list]) -> dict[int, str]:
        """Along each defect-density axis, other axes fixed, cost_total
        never falls and yield_chip never rises."""
        bad: dict[int, str] = {}
        ci = self.columns.index("cost_total")
        yi = self.columns.index("yield_chip")
        for target in self.dd_axes:
            k = self.columns.index(target)
            groups: dict[tuple, list[int]] = {}
            for i, row in enumerate(rows):
                if len(row) == len(self.columns):
                    key = tuple(row[:k]) + tuple(row[k + 1:ci])
                    groups.setdefault(key, []).append(i)
            for idx in groups.values():
                idx.sort(key=lambda i: rows[i][k])
                for a, b in zip(idx, idx[1:]):
                    if rows[b][ci] < rows[a][ci] * (1.0 - 1e-12):
                        bad[b] = f"cost_total falls along {target}"
                    elif rows[b][yi] > rows[a][yi] * (1.0 + 1e-12):
                        bad[b] = f"yield_chip rises along {target}"
        return bad

    @staticmethod
    def row_mismatches(rows: list[list], ref: list[list]) -> dict[int, str]:
        bad = {i: "row differs from the jobs=1 row"
               for i, (a, b) in enumerate(zip(rows, ref)) if a != b}
        if len(rows) != len(ref):
            bad[-1] = f"{len(rows)} rows, jobs=1 gave {len(ref)}"
        return bad

    def csv_mismatches(self, path: str, ref: list[list]) -> dict[int, str]:
        """The CLI's CSV against the in-process rows, cell by cell."""
        with open(path, encoding="utf-8", newline="") as fh:
            lines = list(csv.reader(fh))
        bad: dict[int, str] = {}
        if not lines or not lines[0] or not lines[0][0].startswith(
                "# schema: chipcost-sweep-"):
            bad[-1] = "missing schema line"
            return bad
        if lines[1] != self.columns:
            bad[-1] = f"header {lines[1]}"
            return bad
        body = lines[2:]
        if len(body) != len(ref):
            bad[-1] = f"{len(body)} CSV rows, expected {len(ref)}"
        for i, (got, want) in enumerate(zip(body, ref)):
            if got != [cell(v) for v in want]:
                bad[i] = "CSV row differs from the in-process row"
        return bad

    # reports ---------------------------------------------------------------
    def report_failures(self, report: dict) -> list[str]:
        """The JSON report of the workload's largest design."""
        msgs = []
        parts = sum(report["breakdown"].values())
        if not _close(parts, report["cost_total"]):
            msgs.append(f"breakdown sum {parts!r} != {report['cost_total']!r}")
        if report["infeasible"]:
            msgs.append("largest design is infeasible")
        for key in ("yield_chip", "quality_shipped"):
            if not 0.0 < report[key] <= 1.0:
                msgs.append(f"{key} {report[key]!r} outside (0, 1]")
        ev = Inputs(self.inputs.dir, "eval_system.xml", "eval_netlist.xml")
        chips = list(ev.chips())
        want = tree_power(chips, ev.nets, ev.lib)
        if not _close(report["power_w"], want):
            msgs.append(f"power_w {report['power_w']!r}, closed form {want!r}")
        want = sum(nre_self(c, ev.lib) for c in chips)
        if not _close(report["cost_nre"], want):
            msgs.append(f"cost_nre {report['cost_nre']!r}, closed form "
                        f"{want!r}")
        if self.workload == "tile_split":
            msgs += self._tiles(report, ev)
        elif self.workload == "chip_size":
            msgs += self.die_failures(report, ev)
        return msgs

    @staticmethod
    def _tiles(report: dict, ev: Inputs) -> list[str]:
        """Every tile node carries identical numbers, and its die yield
        is the negative-binomial closed form."""
        tiles = [n for n in report["nodes"] if n["name"].startswith("tile_")]
        specs = {c["name"]: c for c in ev.chips()}
        msgs = []
        if len(tiles) != len(specs) - 1:
            msgs.append(f"{len(tiles)} tile nodes")
        if not tiles:
            return msgs
        ref = {k: v for k, v in tiles[0].items() if k not in ("name", "path")}
        for node in tiles:
            if {k: v for k, v in node.items()
                    if k not in ("name", "path")} != ref:
                msgs.append(f"tile {node['name']} differs from "
                            f"{tiles[0]['name']}")
                break
        for node in tiles:
            spec = specs[node["name"]]
            active = spec["core_area"] + io_area(spec["name"], ev.nets, ev.lib)
            y = 1.0
            for name in spec["layers"].split(","):
                layer = ev.lib["layer"][name]
                alpha = layer["clustering_factor"]
                y *= (1.0 + layer["defect_density"] * active
                      * layer["critical_area_fraction"] / alpha) ** -alpha
            if not _close(node["yield_die"], y):
                msgs.append(f"tile {node['name']} yield_die "
                            f"{node['yield_die']!r}, closed form {y!r}")
                break
        return msgs

    @staticmethod
    def die_failures(report: dict, ev: Inputs) -> list[str]:
        """The leaf die's area, yield and cost against the closed forms."""
        die = next(c for c in ev.chips() if not c["children"])
        node = next(n for n in report["nodes"] if n["name"] == die["name"])
        want = die_closed_forms(die, ev.nets, ev.lib)
        return [f"{die['name']} {key} {node[key]!r}, closed form {want[key]!r}"
                for key in ("area_mm2", "yield_die", "cost_die")
                if not _close(node[key], want[key])]

    def sample_failures(self, report: dict, system: str) -> list[str]:
        """A `chipcost eval` report of one sampled chip_size design."""
        ev = Inputs(self.inputs.dir, system)
        msgs = self.die_failures(report, ev)
        parts = sum(report["breakdown"].values())
        if not _close(parts, report["cost_total"]):
            msgs.append(f"breakdown sum {parts!r} != {report['cost_total']!r}")
        return msgs

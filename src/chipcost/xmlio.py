"""XML loading and writing for libraries, systems, and netlists.

Scalars are attributes, hierarchy is nesting. A library directory holds
any number of .xml files whose <library> roots each contribute <io>,
<layer>, <waferprocess>, <assembly>, and <test> definitions; files merge
in sorted order and a name collision of the same kind is an error, so
the result does not depend on listing order. The system file is a single
nested <chip> tree; the netlist file is a flat <netlist> of <net> rows.

Defect densities accept defects/mm2 (default) or defects/cm2 through a
*_unit attribute and are normalized to /mm2 at load time.

See SCHEMA.md at the repository root for the full format reference.
"""
from __future__ import annotations

import math
import os
import xml.etree.ElementTree as ET

from .errors import DuplicateNameError, ValidationError, XmlError
from .model import (AssemblyProcessDef, ChipSpec, IODefinition, LayerDef,
                    Library, NetSpec, TestProcessDef, ValidatedSystem,
                    WaferProcessDef, validate_library, validate_system)

_DENSITY_UNITS = {"per_mm2": 1.0, "per_cm2": 0.01}


def parse_number(text: str, what: str, context: str) -> float:
    """A finite float, or a ValidationError naming what was bad."""
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"{what} is not a number: '{text}'",
                              context) from None
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got '{text}'", context)
    return value


class _Attrs:
    """One element's attributes with typed access and typo detection."""

    def __init__(self, elem: ET.Element, context: str):
        self.attrib = dict(elem.attrib)
        self.context = context
        self.seen: set[str] = set()

    def _raw(self, name: str, required: bool, default):
        self.seen.add(name)
        if name in self.attrib:
            return self.attrib[name]
        if required:
            raise ValidationError(f"missing attribute '{name}'", self.context)
        return default

    def text(self, name: str, required: bool = True, default: str = ""):
        return self._raw(name, required, default)

    def number(self, name: str, required: bool = True, default: float = 0.0):
        raw = self._raw(name, required, None)
        if raw is None:
            return default
        return parse_number(raw, f"attribute '{name}'", self.context)

    def integer(self, name: str, required: bool = True, default: int = 0):
        value = self.number(name, required, float(default))
        if value != int(value):
            raise ValidationError(
                f"attribute '{name}' must be an integer, got {value}",
                self.context)
        return int(value)

    def flag(self, name: str, default: bool = False):
        raw = self._raw(name, False, None)
        if raw is None:
            return default
        low = raw.strip().lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValidationError(
            f"attribute '{name}' must be true or false, got '{raw}'",
            self.context)

    def optional_number(self, name: str):
        return self.number(name, required=False, default=None)

    def optional_integer(self, name: str):
        value = self.optional_number(name)
        if value is None:
            return None
        if value != int(value):
            raise ValidationError(
                f"attribute '{name}' must be an integer, got {value}",
                self.context)
        return int(value)

    def density(self, name: str, required: bool = True,
                default: float = 0.0):
        """A defect density normalized to /mm2 via its unit attribute."""
        value = self.number(name, required, default)
        unit = self._raw(f"{name}_unit", False, "per_mm2")
        if unit not in _DENSITY_UNITS:
            raise ValidationError(
                f"attribute '{name}_unit' must be one of "
                f"{sorted(_DENSITY_UNITS)}, got '{unit}'", self.context)
        return value * _DENSITY_UNITS[unit]

    def finish(self):
        unknown = set(self.attrib) - self.seen
        if unknown:
            raise ValidationError(
                f"unknown attribute(s): {', '.join(sorted(unknown))}",
                self.context)


def _parse_xml(path: str) -> ET.Element:
    try:
        return ET.parse(path).getroot()
    except ET.ParseError as exc:
        line, col = exc.position
        raise XmlError(f"line {line}, column {col}: {exc.msg}", path)
    except OSError as exc:
        raise XmlError(str(exc), path)


def _parse_io(elem: ET.Element, context: str) -> IODefinition:
    a = _Attrs(elem, context)
    name = a.text("name")
    tx = a.number("tx_area")
    io = IODefinition(
        name=name,
        tx_area=tx,
        rx_area=a.number("rx_area", required=False, default=tx),
        bandwidth=a.number("bandwidth"),
        reach=a.number("reach"),
        wires_per_instance=a.integer("wires_per_instance", required=False,
                                     default=1),
        energy_per_bit=a.number("energy_per_bit", required=False, default=0.0),
        bidirectional=a.flag("bidirectional"))
    a.finish()
    return io


def _parse_layer(elem: ET.Element, context: str) -> LayerDef:
    a = _Attrs(elem, context)
    layer = LayerDef(
        name=a.text("name"),
        cost_per_mm2=a.number("cost_per_mm2"),
        defect_density=a.density("defect_density"),
        clustering_factor=a.number("clustering_factor"),
        critical_area_fraction=a.number("critical_area_fraction"),
        litho_fraction=a.number("litho_fraction", required=False, default=0.0),
        mask_cost=a.number("mask_cost", required=False, default=0.0),
        stitch_yield=a.number("stitch_yield", required=False, default=1.0))
    a.finish()
    return layer


def _parse_wafer(elem: ET.Element, context: str) -> WaferProcessDef:
    a = _Attrs(elem, context)
    wp = WaferProcessDef(
        name=a.text("name"),
        wafer_diameter=a.number("wafer_diameter"),
        edge_exclusion=a.number("edge_exclusion"),
        scribe_x=a.number("scribe_x"),
        scribe_y=a.number("scribe_y"),
        reticle_x=a.number("reticle_x"),
        reticle_y=a.number("reticle_y"),
        dicing=a.text("dicing", required=False, default="grid"),
        nre_fe_logic=a.number("nre_fe_logic", required=False, default=0.0),
        nre_fe_memory=a.number("nre_fe_memory", required=False, default=0.0),
        nre_fe_analog=a.number("nre_fe_analog", required=False, default=0.0),
        nre_be_logic=a.number("nre_be_logic", required=False, default=0.0),
        nre_be_memory=a.number("nre_be_memory", required=False, default=0.0),
        nre_be_analog=a.number("nre_be_analog", required=False, default=0.0))
    a.finish()
    return wp


def _parse_assembly(elem: ET.Element, context: str) -> AssemblyProcessDef:
    a = _Attrs(elem, context)
    ap = AssemblyProcessDef(
        name=a.text("name"),
        pick_place_time=a.number("pick_place_time"),
        pick_place_group=a.integer("pick_place_group", required=False,
                                   default=1),
        pick_place_rate=a.number("pick_place_rate"),
        bond_time=a.number("bond_time"),
        bond_group=a.integer("bond_group", required=False, default=1),
        bond_rate=a.number("bond_rate"),
        material_cost_per_mm2=a.number("material_cost_per_mm2",
                                       required=False, default=0.0),
        die_separation=a.number("die_separation"),
        edge_exclusion=a.number("edge_exclusion", required=False, default=0.0),
        bonding_pitch=a.number("bonding_pitch"),
        max_current_density=a.number("max_current_density"),
        bond_yield=a.number("bond_yield"),
        alignment_yield=a.number("alignment_yield"),
        dielectric_defect_density=a.density("dielectric_defect_density",
                                            required=False, default=0.0))
    a.finish()
    return ap


def _parse_test(elem: ET.Element, context: str) -> TestProcessDef:
    a = _Attrs(elem, context)
    tp = TestProcessDef(
        name=a.text("name"),
        cost_per_second=a.number("cost_per_second"),
        patterns=a.integer("patterns"),
        scan_chain_length=a.integer("scan_chain_length"),
        clock_period=a.number("clock_period"),
        fault_coverage=a.number("fault_coverage"),
        scan_chains=a.integer("scan_chains", required=False, default=0),
        ios_per_scan_chain=a.integer("ios_per_scan_chain", required=False,
                                     default=0),
        test_io_offset=a.integer("test_io_offset", required=False, default=0))
    a.finish()
    return tp


_LIB_PARSERS = {
    "io": ("ios", _parse_io),
    "layer": ("layers", _parse_layer),
    "waferprocess": ("wafer_processes", _parse_wafer),
    "assembly": ("assembly_processes", _parse_assembly),
    "test": ("test_processes", _parse_test),
}


def parse_library_file(path: str, into: dict[str, dict]) -> None:
    root = _parse_xml(path)
    if root.tag != "library":
        raise ValidationError(f"expected <library> root, got <{root.tag}>",
                              path)
    for elem in root:
        if elem.tag not in _LIB_PARSERS:
            raise ValidationError(f"unknown library element <{elem.tag}>",
                                  path)
        table_name, parser = _LIB_PARSERS[elem.tag]
        context = f"{path}: <{elem.tag} name='{elem.get('name', '?')}'>"
        entry = parser(elem, context)
        table = into[table_name]
        if entry.name in table:
            raise DuplicateNameError(
                f"{elem.tag} '{entry.name}' is defined more than once", path)
        table[entry.name] = entry


def parse_library(path: str) -> Library:
    """A single library file, or a directory of them merged in name order."""
    tables: dict[str, dict] = {attr: {} for attr, _ in _LIB_PARSERS.values()}
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.endswith(".xml"))
        if not names:
            raise ValidationError("no .xml files found", path)
        for name in names:
            parse_library_file(os.path.join(path, name), tables)
    elif os.path.exists(path):
        parse_library_file(path, tables)
    else:
        raise XmlError("no such file or directory", path)
    return validate_library(Library(
        ios=tables["ios"], layers=tables["layers"],
        wafer_processes=tables["wafer_processes"],
        assembly_processes=tables["assembly_processes"],
        test_processes=tables["test_processes"]))


def _parse_chip(elem: ET.Element, path: str) -> ChipSpec:
    if elem.tag != "chip":
        raise ValidationError(f"expected <chip>, got <{elem.tag}>", path)
    context = f"{path}: <chip name='{elem.get('name', '?')}'>"
    a = _Attrs(elem, context)
    layers_raw = a.text("layers")
    layers = tuple(s.strip() for s in layers_raw.split(",") if s.strip())
    chip = ChipSpec(
        name=a.text("name"),
        core_area=a.number("core_area"),
        core_power=a.number("core_power"),
        core_voltage=a.number("core_voltage"),
        quantity=a.integer("quantity"),
        layers=layers,
        wafer_process=a.text("wafer_process"),
        test_self=a.text("test_self"),
        assembly_process=a.text("assembly_process", required=False,
                                default=None),
        test_assembly=a.text("test_assembly", required=False, default=None),
        logic_fraction=a.number("logic_fraction", required=False, default=1.0),
        memory_fraction=a.number("memory_fraction", required=False,
                                 default=0.0),
        analog_fraction=a.number("analog_fraction", required=False,
                                 default=0.0),
        reticle_share=a.number("reticle_share", required=False, default=1.0),
        black_box_area=a.optional_number("black_box_area"),
        black_box_power=a.optional_number("black_box_power"),
        buried=a.flag("buried"),
        children=tuple(_parse_chip(child, path) for child in elem))
    a.finish()
    return chip


def parse_netlist(path: str) -> tuple[NetSpec, ...]:
    root = _parse_xml(path)
    if root.tag != "netlist":
        raise ValidationError(f"expected <netlist> root, got <{root.tag}>",
                              path)
    nets = []
    for i, elem in enumerate(root):
        if elem.tag != "net":
            raise ValidationError(f"unknown netlist element <{elem.tag}>",
                                  path)
        a = _Attrs(elem, f"{path}: net[{i}]")
        nets.append(NetSpec(
            source=a.text("from"),
            dest=a.text("to"),
            io_type=a.text("io"),
            bandwidth=a.optional_number("bandwidth"),
            count=a.optional_integer("count"),
            utilization=a.number("utilization", required=False, default=1.0)))
        a.finish()
    return tuple(nets)


def parse_system(system_path: str, netlist_path: str | None,
                 library: Library) -> ValidatedSystem:
    root_elem = _parse_xml(system_path)
    root = _parse_chip(root_elem, system_path)
    nets = parse_netlist(netlist_path) if netlist_path else ()
    return validate_system(root, nets, library)


# --- serialization -------------------------------------------------------

def _set(elem: ET.Element, name: str, value) -> None:
    if value is None:
        return
    if isinstance(value, bool):
        elem.set(name, "true" if value else "false")
    elif isinstance(value, float):
        elem.set(name, repr(value))
    else:
        elem.set(name, str(value))


def _io_elem(io: IODefinition) -> ET.Element:
    e = ET.Element("io")
    for f in ("name", "tx_area", "rx_area", "bandwidth", "reach",
              "wires_per_instance", "energy_per_bit", "bidirectional"):
        _set(e, f, getattr(io, f))
    return e


def _layer_elem(layer: LayerDef) -> ET.Element:
    e = ET.Element("layer")
    for f in ("name", "cost_per_mm2", "defect_density", "clustering_factor",
              "critical_area_fraction", "litho_fraction", "mask_cost",
              "stitch_yield"):
        _set(e, f, getattr(layer, f))
    return e


def _wafer_elem(wp: WaferProcessDef) -> ET.Element:
    e = ET.Element("waferprocess")
    for f in ("name", "wafer_diameter", "edge_exclusion", "scribe_x",
              "scribe_y", "reticle_x", "reticle_y", "dicing",
              "nre_fe_logic", "nre_fe_memory", "nre_fe_analog",
              "nre_be_logic", "nre_be_memory", "nre_be_analog"):
        _set(e, f, getattr(wp, f))
    return e


def _assembly_elem(ap: AssemblyProcessDef) -> ET.Element:
    e = ET.Element("assembly")
    for f in ("name", "pick_place_time", "pick_place_group",
              "pick_place_rate", "bond_time", "bond_group", "bond_rate",
              "material_cost_per_mm2", "die_separation", "edge_exclusion",
              "bonding_pitch", "max_current_density", "bond_yield",
              "alignment_yield", "dielectric_defect_density"):
        _set(e, f, getattr(ap, f))
    return e


def _test_elem(tp: TestProcessDef) -> ET.Element:
    e = ET.Element("test")
    for f in ("name", "cost_per_second", "patterns", "scan_chain_length",
              "clock_period", "fault_coverage", "scan_chains",
              "ios_per_scan_chain", "test_io_offset"):
        _set(e, f, getattr(tp, f))
    return e


def serialize_library(lib: Library) -> str:
    root = ET.Element("library")
    for io in lib.ios.values():
        root.append(_io_elem(io))
    for layer in lib.layers.values():
        root.append(_layer_elem(layer))
    for wp in lib.wafer_processes.values():
        root.append(_wafer_elem(wp))
    for ap in lib.assembly_processes.values():
        root.append(_assembly_elem(ap))
    for tp in lib.test_processes.values():
        root.append(_test_elem(tp))
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"


def _chip_elem(chip: ChipSpec) -> ET.Element:
    e = ET.Element("chip")
    _set(e, "name", chip.name)
    _set(e, "core_area", chip.core_area)
    _set(e, "core_power", chip.core_power)
    _set(e, "core_voltage", chip.core_voltage)
    _set(e, "quantity", chip.quantity)
    _set(e, "layers", ",".join(chip.layers))
    _set(e, "wafer_process", chip.wafer_process)
    _set(e, "test_self", chip.test_self)
    _set(e, "assembly_process", chip.assembly_process)
    _set(e, "test_assembly", chip.test_assembly)
    _set(e, "logic_fraction", chip.logic_fraction)
    _set(e, "memory_fraction", chip.memory_fraction)
    _set(e, "analog_fraction", chip.analog_fraction)
    _set(e, "reticle_share", chip.reticle_share)
    _set(e, "black_box_area", chip.black_box_area)
    _set(e, "black_box_power", chip.black_box_power)
    if chip.buried:
        _set(e, "buried", True)
    for child in chip.children:
        e.append(_chip_elem(child))
    return e


def serialize_system(root: ChipSpec) -> str:
    elem = _chip_elem(root)
    ET.indent(elem)
    return ET.tostring(elem, encoding="unicode") + "\n"


def serialize_netlist(nets: tuple[NetSpec, ...]) -> str:
    root = ET.Element("netlist")
    for net in nets:
        e = ET.SubElement(root, "net")
        _set(e, "from", net.source)
        _set(e, "to", net.dest)
        _set(e, "io", net.io_type)
        _set(e, "bandwidth", net.bandwidth)
        _set(e, "count", net.count)
        _set(e, "utilization", net.utilization)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"

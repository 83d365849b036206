"""Domain model: process definitions, chip tree, netlist, and validation.

Everything here is a frozen dataclass. Parameter studies never mutate a
model in place; they rebuild the changed pieces with dataclasses.replace,
so every sweep point starts from the same unchanged inputs.

Each dataclass is also the one record of its XML element: a field is an
attribute of the same name and type, and its default is the attribute's
default (a field without one is a required attribute). Field metadata
covers the exceptions: "attr" names an attribute spelled differently
from the field, "unit" marks a defect density that accepts a *_unit
attribute, and "sparse" marks an attribute written only when it differs
from its default.

Units: mm and mm2 for geometry, W for power, V for voltage, A/mm2 for
current density, USD for cost, s for time, Gbit/s for bandwidth, pJ/bit
for IO energy, defects/mm2 for defect densities.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

from .errors import ValidationError

FRACTION_TOL = 1e-9


@dataclass(frozen=True)
class IODefinition:
    """One IO cell type from the library."""

    name: str
    tx_area: float            # mm2 per transmit instance
    rx_area: float = field(default=None, kw_only=True)  # None: tx_area
    bandwidth: float          # Gbit/s per instance
    reach: float              # mm, max distance from die edge served
    wires_per_instance: int = field(default=1, kw_only=True)
    energy_per_bit: float = field(default=0.0, kw_only=True)  # pJ/bit
    bidirectional: bool = False

    def __post_init__(self):
        if self.rx_area is None:    # a receiver the size of the driver
            object.__setattr__(self, "rx_area", self.tx_area)


@dataclass(frozen=True)
class LayerDef:
    """A processed silicon layer charged per mm2 of the chip it is part of."""

    name: str
    cost_per_mm2: float
    defect_density: float = field(metadata={"unit": True})  # defects/mm2
    clustering_factor: float      # alpha of the negative binomial yield model
    critical_area_fraction: float
    # share of layer cost scaling with reticle use
    litho_fraction: float = field(default=0.0, kw_only=True)
    # USD, one mask set for this layer
    mask_cost: float = field(default=0.0, kw_only=True)
    stitch_yield: float = 1.0     # per reticle stitch, super-reticle dies only


@dataclass(frozen=True)
class WaferProcessDef:
    """Wafer geometry, dicing style, and per-mm2 design effort rates."""

    name: str
    wafer_diameter: float     # mm
    edge_exclusion: float     # mm
    scribe_x: float           # mm added to the die in x
    scribe_y: float
    reticle_x: float          # mm
    reticle_y: float
    dicing: str = "grid"      # "grid" (shared cut lines) or "free"
    nre_fe_logic: float = 0.0    # USD per mm2 of logic content, front end
    nre_fe_memory: float = 0.0
    nre_fe_analog: float = 0.0
    nre_be_logic: float = 0.0    # back end rates
    nre_be_memory: float = 0.0
    nre_be_analog: float = 0.0

    @property
    def usable_radius(self) -> float:
        return self.wafer_diameter / 2.0 - self.edge_exclusion

    @property
    def reticle_area(self) -> float:
        return self.reticle_x * self.reticle_y


@dataclass(frozen=True)
class AssemblyProcessDef:
    """Bonding children onto a chip: machine time, geometry, and yields."""

    name: str
    pick_place_time: float      # s per pick-and-place cycle
    # dies handled per cycle
    pick_place_group: int = field(default=1, kw_only=True)
    pick_place_rate: float      # USD/s
    bond_time: float            # s per bonding cycle
    bond_group: int = field(default=1, kw_only=True)
    bond_rate: float            # USD/s
    material_cost_per_mm2: float = field(default=0.0, kw_only=True)
    die_separation: float       # mm of clearance around each placed die
    # mm ring kept free around the stack region
    edge_exclusion: float = field(default=0.0, kw_only=True)
    bonding_pitch: float        # mm between bonded pads
    max_current_density: float  # A/mm2 through a power pad
    bond_yield: float           # per bonded pad
    alignment_yield: float      # per placed die
    # defects/mm2 of bonded interface
    dielectric_defect_density: float = field(default=0.0,
                                             metadata={"unit": True})


@dataclass(frozen=True)
class TestProcessDef:
    """Scan test economics for one test insertion."""

    name: str
    cost_per_second: float
    patterns: int
    scan_chain_length: int
    clock_period: float       # s
    fault_coverage: float     # share of true defects the insertion catches
    scan_chains: int = 0
    ios_per_scan_chain: int = 0
    test_io_offset: int = 0


@dataclass(frozen=True)
class NetSpec:
    """A directed connection; bidirectional IO types carry traffic both ways."""

    source: str = field(metadata={"attr": "from"})
    dest: str = field(metadata={"attr": "to"})
    io_type: str = field(metadata={"attr": "io"})
    bandwidth: float | None = None   # Gbit/s requested; instances = ceil over IO
    count: int | None = None         # explicit instance count, bypasses the ceil
    utilization: float = 1.0


@dataclass(frozen=True)
class ChipSpec:
    """A node of the physical hierarchy: die, interposer, or board.

    Children are the dies stacked on (or buried in) this chip. A chip with
    children must name an assembly_process and a test_assembly insertion;
    the root always needs an assembly_process because its own pads follow
    that process's pitch.
    """

    name: str
    core_area: float
    core_power: float
    core_voltage: float
    quantity: int                    # units manufactured, amortizes NRE
    layers: tuple[str, ...]
    wafer_process: str
    test_self: str
    assembly_process: str | None = None
    test_assembly: str | None = None
    logic_fraction: float = 1.0
    memory_fraction: float = 0.0
    analog_fraction: float = 0.0
    reticle_share: float = 1.0       # share of the mask set this chip pays for
    black_box_area: float | None = None
    black_box_power: float | None = None
    # sunk into the parent, no stack footprint
    buried: bool = field(default=False, metadata={"sparse": True})
    children: tuple[ChipSpec, ...] = field(default_factory=tuple)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class Library:
    """Name-keyed process definitions. Treated as immutable after build."""

    ios: dict[str, IODefinition]
    layers: dict[str, LayerDef]
    wafer_processes: dict[str, WaferProcessDef]
    assembly_processes: dict[str, AssemblyProcessDef]
    test_processes: dict[str, TestProcessDef]


@dataclass(frozen=True)
class ValidatedSystem:
    """A chip tree plus netlist checked against a library."""

    root: ChipSpec
    nets: tuple[NetSpec, ...]
    library: Library


# A field's value type by its annotation; an optional ("X | None") field
# reports X, and a tuple is a comma-separated list. Anything else (the
# nested chips) is not an XML attribute.
_KINDS = {"str": str, "float": float, "int": int, "bool": bool,
          "tuple[str, ...]": tuple, "tuple[int, ...]": tuple}


@functools.cache
def field_kinds(cls) -> dict[str, type | None]:
    """Each field of a model class mapped to str, float, int, bool, tuple
    (a comma-separated name list) or None (a nested record)."""
    return {f.name: _KINDS.get(f.type.removesuffix(" | None"))
            for f in dataclasses.fields(cls)}


def _check(cond: bool, message: str, context: str):
    if not cond:
        raise ValidationError(message, context)


def _check_unit_interval(value: float, name: str, context: str,
                         open_low: bool = False):
    lo_ok = value > 0.0 if open_low else value >= 0.0
    _check(lo_ok and value <= 1.0,
           f"{name} must be in {'(' if open_low else '['}0, 1], got {value}",
           context)


def validate_io(io: IODefinition) -> None:
    ctx = f"io '{io.name}'"
    _check(io.tx_area >= 0.0 and io.rx_area >= 0.0,
           "tx_area and rx_area must be >= 0", ctx)
    _check(io.bandwidth > 0.0, "bandwidth must be > 0", ctx)
    _check(io.reach > 0.0, "reach must be > 0", ctx)
    _check(io.wires_per_instance >= 1, "wires_per_instance must be >= 1", ctx)
    _check(io.energy_per_bit >= 0.0, "energy_per_bit must be >= 0", ctx)
    if io.bidirectional:
        _check(io.tx_area == io.rx_area,
               "bidirectional IO requires tx_area == rx_area", ctx)


def validate_layer(layer: LayerDef) -> None:
    ctx = f"layer '{layer.name}'"
    _check(layer.cost_per_mm2 >= 0.0, "cost_per_mm2 must be >= 0", ctx)
    _check(layer.defect_density >= 0.0, "defect_density must be >= 0", ctx)
    _check(layer.clustering_factor > 0.0, "clustering_factor must be > 0", ctx)
    _check_unit_interval(layer.critical_area_fraction,
                         "critical_area_fraction", ctx)
    _check_unit_interval(layer.litho_fraction, "litho_fraction", ctx)
    _check(layer.mask_cost >= 0.0, "mask_cost must be >= 0", ctx)
    _check_unit_interval(layer.stitch_yield, "stitch_yield", ctx, open_low=True)


def validate_wafer_process(wp: WaferProcessDef) -> None:
    ctx = f"waferprocess '{wp.name}'"
    _check(wp.wafer_diameter > 0.0, "wafer_diameter must be > 0", ctx)
    _check(wp.edge_exclusion >= 0.0, "edge_exclusion must be >= 0", ctx)
    _check(wp.usable_radius > 0.0,
           "edge_exclusion consumes the whole wafer", ctx)
    _check(wp.scribe_x >= 0.0 and wp.scribe_y >= 0.0,
           "scribe widths must be >= 0", ctx)
    _check(wp.reticle_x > 0.0 and wp.reticle_y > 0.0,
           "reticle dimensions must be > 0", ctx)
    _check(0.0 < wp.reticle_x * wp.reticle_y < math.inf,
           "reticle field area overflows", ctx)
    _check(wp.dicing in ("grid", "free"),
           f"dicing must be 'grid' or 'free', got '{wp.dicing}'", ctx)
    for rate_name in ("nre_fe_logic", "nre_fe_memory", "nre_fe_analog",
                      "nre_be_logic", "nre_be_memory", "nre_be_analog"):
        _check(getattr(wp, rate_name) >= 0.0,
               f"{rate_name} must be >= 0", ctx)


def validate_assembly_process(ap: AssemblyProcessDef) -> None:
    ctx = f"assembly '{ap.name}'"
    _check(ap.pick_place_time >= 0.0 and ap.bond_time >= 0.0,
           "cycle times must be >= 0", ctx)
    _check(ap.pick_place_group >= 1 and ap.bond_group >= 1,
           "group sizes must be >= 1", ctx)
    _check(ap.pick_place_rate >= 0.0 and ap.bond_rate >= 0.0,
           "machine rates must be >= 0", ctx)
    _check(ap.material_cost_per_mm2 >= 0.0,
           "material_cost_per_mm2 must be >= 0", ctx)
    _check(ap.die_separation >= 0.0, "die_separation must be >= 0", ctx)
    _check(ap.edge_exclusion >= 0.0, "edge_exclusion must be >= 0", ctx)
    _check(ap.bonding_pitch > 0.0, "bonding_pitch must be > 0", ctx)
    _check(ap.max_current_density > 0.0,
           "max_current_density must be > 0", ctx)
    _check_unit_interval(ap.bond_yield, "bond_yield", ctx, open_low=True)
    _check_unit_interval(ap.alignment_yield, "alignment_yield", ctx,
                         open_low=True)
    _check(ap.dielectric_defect_density >= 0.0,
           "dielectric_defect_density must be >= 0", ctx)


def validate_test_process(tp: TestProcessDef) -> None:
    ctx = f"test '{tp.name}'"
    _check(tp.cost_per_second >= 0.0, "cost_per_second must be >= 0", ctx)
    _check(tp.patterns >= 0, "patterns must be >= 0", ctx)
    _check(tp.scan_chain_length >= 0, "scan_chain_length must be >= 0", ctx)
    _check(tp.clock_period >= 0.0, "clock_period must be >= 0", ctx)
    _check_unit_interval(tp.fault_coverage, "fault_coverage", ctx)
    _check(tp.scan_chains >= 0, "scan_chains must be >= 0", ctx)
    _check(tp.ios_per_scan_chain >= 0, "ios_per_scan_chain must be >= 0", ctx)
    _check(tp.test_io_offset >= 0, "test_io_offset must be >= 0", ctx)


# XML tag of each library definition -> (Library attribute, class,
# validator); parsing, writing, validation and sweep targets read this.
LIBRARY_KINDS = {
    "io": ("ios", IODefinition, validate_io),
    "layer": ("layers", LayerDef, validate_layer),
    "waferprocess": ("wafer_processes", WaferProcessDef,
                     validate_wafer_process),
    "assembly": ("assembly_processes", AssemblyProcessDef,
                 validate_assembly_process),
    "test": ("test_processes", TestProcessDef, validate_test_process),
}


def validate_library(lib: Library) -> Library:
    for attr, _, validate in LIBRARY_KINDS.values():
        for entry in getattr(lib, attr).values():
            validate(entry)
    return lib


def _validate_chip(chip: ChipSpec, lib: Library, is_root: bool) -> None:
    ctx = f"chip '{chip.name}'"
    _check(chip.core_area >= 0.0, "core_area must be >= 0", ctx)
    _check(chip.core_power >= 0.0, "core_power must be >= 0", ctx)
    _check(chip.core_voltage >= 0.0, "core_voltage must be >= 0", ctx)
    _check(chip.quantity >= 1, "quantity must be >= 1", ctx)
    _check(len(chip.layers) >= 1, "at least one layer is required", ctx)
    for layer_name in chip.layers:
        _check(layer_name in lib.layers,
               f"unknown layer '{layer_name}'", ctx)
    _check(chip.wafer_process in lib.wafer_processes,
           f"unknown wafer process '{chip.wafer_process}'", ctx)
    _check(chip.test_self in lib.test_processes,
           f"unknown test process '{chip.test_self}'", ctx)
    for frac_name in ("logic_fraction", "memory_fraction", "analog_fraction"):
        _check_unit_interval(getattr(chip, frac_name), frac_name, ctx)
    frac_sum = chip.logic_fraction + chip.memory_fraction + chip.analog_fraction
    _check(abs(frac_sum - 1.0) <= FRACTION_TOL,
           f"content fractions must sum to 1, got {frac_sum}", ctx)
    _check_unit_interval(chip.reticle_share, "reticle_share", ctx,
                         open_low=True)
    if chip.black_box_area is not None:
        _check(chip.black_box_area > 0.0, "black_box_area must be > 0", ctx)
    if chip.black_box_power is not None:
        _check(chip.black_box_power >= 0.0,
               "black_box_power must be >= 0", ctx)
    needs_assembly = bool(chip.children) or is_root
    if needs_assembly:
        _check(chip.assembly_process is not None,
               "assembly_process is required on the root and on any chip "
               "with children", ctx)
    if chip.assembly_process is not None:
        _check(chip.assembly_process in lib.assembly_processes,
               f"unknown assembly process '{chip.assembly_process}'", ctx)
    if chip.children:
        _check(chip.test_assembly is not None,
               "test_assembly is required on a chip with children", ctx)
    if chip.test_assembly is not None:
        _check(chip.test_assembly in lib.test_processes,
               f"unknown test process '{chip.test_assembly}'", ctx)
    for child in chip.children:
        _validate_chip(child, lib, is_root=False)


def validate_system(root: ChipSpec, nets: tuple[NetSpec, ...],
                    library: Library) -> ValidatedSystem:
    """Cross-check the tree and netlist against the library."""
    validate_library(library)
    _validate_chip(root, library, is_root=True)

    names = [c.name for c in root.walk()]
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ValidationError(
                f"chip name '{name}' appears more than once in the tree",
                "system")
        seen.add(name)

    for i, net in enumerate(nets):
        ctx = f"net[{i}] {net.source}->{net.dest}"
        _check(net.source != net.dest,
               "source and dest must differ", ctx)
        _check(net.io_type in library.ios,
               f"unknown io type '{net.io_type}'", ctx)
        _check((net.bandwidth is None) != (net.count is None),
               "exactly one of bandwidth or count is required", ctx)
        if net.bandwidth is not None:
            _check(net.bandwidth > 0.0, "bandwidth must be > 0", ctx)
        if net.count is not None:
            _check(net.count >= 1, "count must be >= 1", ctx)
        _check_unit_interval(net.utilization, "utilization", ctx)
        _check(net.source in seen or net.dest in seen,
               "neither endpoint names a chip in the tree", ctx)

    return ValidatedSystem(root=root, nets=tuple(nets), library=library)

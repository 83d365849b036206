"""Domain model: process definitions, chip tree, netlist, and validation.

Every record in the package is a dataclass that nothing assigns to once
it is built; tests hold the package to that. None is frozen (a frozen
__init__ stores each field through object.__setattr__, several times
slower) and no module writes an instance's dict. Hot records, these
included, are slotted; the sweep axes, which resolve attributes in
__post_init__, are not. A record of scalar and tuple fields hashes, equal
ones equal; one holding a dict (Library, ValidatedSystem) does not. Sweeps
rebuild changed pieces with dataclasses.replace, never mutating in place.

Each dataclass is also the one record of its XML element: a field is an
attribute of the same name and type, and its default is the attribute's
default (a field without one is a required attribute). Field metadata
covers the rest: "check" states the field's valid range (">= 0", "> 0",
">= 1", "[0, 1]" or "(0, 1]"), which check_fields enforces; "attr" names
an attribute spelled differently from the field (None: no attribute sets
it), "unit" marks a defect density that accepts a *_unit attribute, and
"sparse" marks an attribute written only when it differs from its
default. "derive" marks each library field that derive reads: a sweep
re-derives the tree only when an axis changes one of them (or the chip
tree itself). "ref" names the library kind of the entry a ChipSpec field
names, the record of what evaluate reads; "parent" marks one it reads
only on a chip with children.

Units: mm and mm2 for geometry, W for power, V for voltage, A/mm2 for
current density, USD for cost, s for time, Gbit/s for bandwidth, pJ/bit
for IO energy, defects/mm2 for defect densities.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Collection
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import ValidationError

FRACTION_TOL = 1e-9


class Tree:
    """A node whose `children` are nodes of its kind: a chip, a derived
    chip, a chip's costs. walk() yields it and every node below, pre-order."""

    __slots__ = ()

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(slots=True, unsafe_hash=True)
class IODefinition:
    """One IO cell type from the library; derive reads every field."""

    name: str
    # mm2 per instance
    tx_area: float = field(metadata={"check": ">= 0", "derive": True})
    # None: a receiver as large as the transmitter, see receiver_area
    rx_area: float | None = field(default=None, kw_only=True,
                                  metadata={"check": ">= 0", "derive": True})
    # Gbit/s per instance
    bandwidth: float = field(metadata={"check": "> 0", "derive": True})
    # mm, max distance from die edge served
    reach: float = field(metadata={"check": "> 0", "derive": True})
    wires_per_instance: int = field(default=1, kw_only=True,
                                    metadata={"check": ">= 1",
                                              "derive": True})
    energy_per_bit: float = field(default=0.0, kw_only=True,  # pJ/bit
                                  metadata={"check": ">= 0", "derive": True})
    bidirectional: bool = field(default=False, metadata={"derive": True})

    @property
    def receiver_area(self) -> float:
        """rx_area, or tx_area where the library omits it."""
        return self.tx_area if self.rx_area is None else self.rx_area


@dataclass(slots=True, unsafe_hash=True)
class LayerDef:
    """A processed silicon layer charged per mm2 of the chip it is part of."""

    name: str
    cost_per_mm2: float = field(metadata={"check": ">= 0"})
    defect_density: float = field(metadata={"unit": True,  # defects/mm2
                                            "check": ">= 0"})
    # alpha of the negative binomial yield model
    clustering_factor: float = field(metadata={"check": "> 0"})
    critical_area_fraction: float = field(metadata={"check": "[0, 1]"})
    # share of layer cost scaling with reticle use
    litho_fraction: float = field(default=0.0, kw_only=True,
                                  metadata={"check": "[0, 1]"})
    # USD, one mask set for this layer
    mask_cost: float = field(default=0.0, kw_only=True,
                             metadata={"check": ">= 0"})
    # per reticle stitch, super-reticle dies only
    stitch_yield: float = field(default=1.0, metadata={"check": "(0, 1]"})


@dataclass(slots=True, unsafe_hash=True)
class WaferProcessDef:
    """Wafer geometry, dicing style, and per-mm2 design effort rates.

    derive reads the geometry to fit each die to the wafer and reticle."""

    name: str
    # mm
    wafer_diameter: float = field(metadata={"check": "> 0", "derive": True})
    edge_exclusion: float = field(metadata={"check": ">= 0", "derive": True})
    # mm added to the die in x and y
    scribe_x: float = field(metadata={"check": ">= 0", "derive": True})
    scribe_y: float = field(metadata={"check": ">= 0", "derive": True})
    # mm
    reticle_x: float = field(metadata={"check": "> 0", "derive": True})
    reticle_y: float = field(metadata={"check": "> 0", "derive": True})
    dicing: str = "grid"      # "grid" (shared cut lines) or "free"
    # USD per mm2 of logic, memory and analog content, front and back end
    nre_fe_logic: float = field(default=0.0, metadata={"check": ">= 0"})
    nre_fe_memory: float = field(default=0.0, metadata={"check": ">= 0"})
    nre_fe_analog: float = field(default=0.0, metadata={"check": ">= 0"})
    nre_be_logic: float = field(default=0.0, metadata={"check": ">= 0"})
    nre_be_memory: float = field(default=0.0, metadata={"check": ">= 0"})
    nre_be_analog: float = field(default=0.0, metadata={"check": ">= 0"})

    @property
    def usable_radius(self) -> float:
        return self.wafer_diameter / 2.0 - self.edge_exclusion


@dataclass(slots=True, unsafe_hash=True)
class AssemblyProcessDef:
    """Bonding children onto a chip: machine time, geometry, and yields."""

    name: str
    # s per pick-and-place cycle
    pick_place_time: float = field(metadata={"check": ">= 0"})
    # dies handled per cycle
    pick_place_group: int = field(default=1, kw_only=True,
                                  metadata={"check": ">= 1"})
    pick_place_rate: float = field(metadata={"check": ">= 0"})  # USD/s
    bond_time: float = field(metadata={"check": ">= 0"})  # s per bond cycle
    bond_group: int = field(default=1, kw_only=True,
                            metadata={"check": ">= 1"})
    bond_rate: float = field(metadata={"check": ">= 0"})  # USD/s
    material_cost_per_mm2: float = field(default=0.0, kw_only=True,
                                         metadata={"check": ">= 0"})
    # mm of clearance around each placed die
    die_separation: float = field(metadata={"check": ">= 0",
                                            "derive": True})
    # mm ring kept free around the stack region
    edge_exclusion: float = field(default=0.0, kw_only=True,
                                  metadata={"check": ">= 0", "derive": True})
    # mm between bonded pads
    bonding_pitch: float = field(metadata={"check": "> 0", "derive": True})
    # A/mm2 through a power pad
    max_current_density: float = field(metadata={"check": "> 0",
                                                 "derive": True})
    bond_yield: float = field(metadata={"check": "(0, 1]"})  # per bonded pad
    # per placed die
    alignment_yield: float = field(metadata={"check": "(0, 1]"})
    # defects/mm2 of bonded interface
    dielectric_defect_density: float = field(
        default=0.0, metadata={"unit": True, "check": ">= 0"})


@dataclass(slots=True, unsafe_hash=True)
class TestProcessDef:
    """Scan test economics for one test insertion."""

    name: str
    cost_per_second: float = field(metadata={"check": ">= 0"})
    patterns: int = field(metadata={"check": ">= 0"})
    scan_chain_length: int = field(metadata={"check": ">= 0"})
    clock_period: float = field(metadata={"check": ">= 0"})  # s
    # share of true defects the insertion catches
    fault_coverage: float = field(metadata={"check": "[0, 1]"})
    # test IOs each die reserves pads for
    scan_chains: int = field(default=0, metadata={"check": ">= 0",
                                                  "derive": True})
    ios_per_scan_chain: int = field(default=0, metadata={"check": ">= 0",
                                                         "derive": True})
    test_io_offset: int = field(default=0, metadata={"check": ">= 0",
                                                     "derive": True})


@dataclass(slots=True, unsafe_hash=True)
class NetSpec:
    """A directed connection; bidirectional IO types carry traffic both ways."""

    source: str = field(metadata={"attr": "from"})
    dest: str = field(metadata={"attr": "to"})
    io_type: str = field(metadata={"attr": "io"})
    # Gbit/s requested; instances = ceil over IO
    bandwidth: float | None = field(default=None, metadata={"check": "> 0"})
    # explicit instance count, bypasses the ceil
    count: int | None = field(default=None, metadata={"check": ">= 1"})
    utilization: float = field(default=1.0, metadata={"check": "[0, 1]"})


@dataclass(slots=True, unsafe_hash=True)
class ChipSpec(Tree):
    """A node of the physical hierarchy: die, interposer, or board.

    Children are the dies stacked on (or buried in) this chip. A chip with
    children must name an assembly_process and a test_assembly insertion;
    the root always needs an assembly_process because its own pads follow
    that process's pitch.
    """

    name: str
    core_area: float = field(metadata={"check": ">= 0"})
    core_power: float = field(metadata={"check": ">= 0"})
    core_voltage: float = field(metadata={"check": ">= 0"})
    # units manufactured, amortizes NRE
    quantity: int = field(metadata={"check": ">= 1"})
    layers: tuple[str, ...] = field(metadata={"ref": "layer"})
    wafer_process: str = field(metadata={"ref": "waferprocess"})
    test_self: str = field(metadata={"ref": "test"})
    assembly_process: str | None = field(
        default=None, metadata={"ref": "assembly", "parent": True})
    test_assembly: str | None = field(
        default=None, metadata={"ref": "test", "parent": True})
    logic_fraction: float = field(default=1.0, metadata={"check": "[0, 1]"})
    memory_fraction: float = field(default=0.0, metadata={"check": "[0, 1]"})
    analog_fraction: float = field(default=0.0, metadata={"check": "[0, 1]"})
    # share of the mask set this chip pays for
    reticle_share: float = field(default=1.0, metadata={"check": "(0, 1]"})
    black_box_area: float | None = field(default=None,
                                         metadata={"check": "> 0"})
    black_box_power: float | None = field(default=None,
                                          metadata={"check": ">= 0"})
    # sunk into the parent, no stack footprint
    buried: bool = field(default=False, metadata={"sparse": True})
    children: tuple[ChipSpec, ...] = field(default_factory=tuple)


@dataclass(slots=True)
class Library:
    """Name-keyed process definitions. Never altered after build: a
    study builds a new Library around the tables it changes."""

    ios: dict[str, IODefinition]
    layers: dict[str, LayerDef]
    wafer_processes: dict[str, WaferProcessDef]
    assembly_processes: dict[str, AssemblyProcessDef]
    test_processes: dict[str, TestProcessDef]


@dataclass(slots=True)
class ValidatedSystem:
    """A chip tree plus netlist checked against a library, as
    validate_system returns it.

    leaf_classes maps each chip's name to (that chip, its leaf class),
    the class None for the root and for a chip with children. A class is
    a small int shared by the non-root leaves whose inputs (every field
    but the name) are equal, numbered in pre-order of first appearance;
    derive keys its leaf memo by it, for the very chip objects held
    here alone (`is`): a system built around another tree (as by
    dataclasses.replace) derives that tree's new chips in full."""

    root: ChipSpec
    nets: tuple[NetSpec, ...]
    library: Library
    leaf_classes: dict[str, tuple[ChipSpec, int | None]]


# A leaf's inputs: every field of it but its name (the first). A non-root
# leaf's checks and its derived figures read nothing else of its spec.
_LEAF_INPUTS = attrgetter(*(f.name for f in dataclasses.fields(ChipSpec)[1:]))


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


# The range rules a field's "check" metadata may name, written so that
# NaN fails each of them.
_RULES = {">= 0": lambda v: v >= 0, "> 0": lambda v: v > 0,
          ">= 1": lambda v: v >= 1, "[0, 1]": lambda v: 0 <= v <= 1,
          "(0, 1]": lambda v: 0 < v <= 1}


@functools.cache
def _field_checks(cls) -> tuple:
    """(field, rule, predicate) for each field of cls that declares one."""
    return tuple((f.name, f.metadata["check"], _RULES[f.metadata["check"]])
                 for f in dataclasses.fields(cls) if "check" in f.metadata)


@functools.cache
def derive_fields(cls) -> frozenset[str]:
    """The fields of cls that derive reads ("derive" metadata)."""
    return frozenset(f.name for f in dataclasses.fields(cls)
                     if f.metadata.get("derive"))


@functools.cache
def ref_fields(cls) -> tuple[tuple[str, str, bool], ...]:
    """(field, library kind, read only on a parent) for each field of cls
    that names a library entry ("ref" metadata)."""
    return tuple((f.name, f.metadata["ref"], f.metadata.get("parent", False))
                 for f in dataclasses.fields(cls) if "ref" in f.metadata)


def check_fields(obj, context: str) -> None:
    """Refuse the first field of obj outside its declared range; an
    absent optional value (None) passes."""
    for name, rule, ok in _field_checks(type(obj)):
        value = getattr(obj, name)
        if value is not None and not ok(value):
            raise ValidationError(f"{name} must be {rule}, got {value}",
                                  context)


def _check_io(io: IODefinition, ctx: str) -> None:
    if io.bidirectional:
        _check(io.tx_area == io.receiver_area,
               "bidirectional IO requires tx_area == rx_area", ctx)


def _check_wafer_process(wp: WaferProcessDef, ctx: str) -> None:
    _check(wp.usable_radius > 0.0,
           "edge_exclusion consumes the whole wafer", ctx)
    _check(0.0 < wp.reticle_x * wp.reticle_y < math.inf,
           "reticle field area overflows", ctx)
    _check(wp.dicing in ("grid", "free"),
           f"dicing must be 'grid' or 'free', got '{wp.dicing}'", ctx)


# XML tag of each library definition -> (Library attribute, class,
# cross-field check or None); parsing, writing, validation and sweep
# targets read this.
LIBRARY_KINDS = {
    "io": ("ios", IODefinition, _check_io),
    "layer": ("layers", LayerDef, None),
    "waferprocess": ("wafer_processes", WaferProcessDef,
                     _check_wafer_process),
    "assembly": ("assembly_processes", AssemblyProcessDef, None),
    "test": ("test_processes", TestProcessDef, None),
}


def validate_library(lib: Library, only: Collection | None = None) -> Library:
    """Each entry's field ranges, then its kind's cross-field rule, by
    kind as LIBRARY_KINDS lists them and then in table order. `only`,
    (kind, name) pairs, limits the checks to those entries, in the same
    order, so the first broken one is named either way."""
    for tag, (attr, _, check) in LIBRARY_KINDS.items():
        for name, entry in getattr(lib, attr).items():
            if only is None or (tag, name) in only:
                ctx = f"{tag} '{entry.name}'"
                check_fields(entry, ctx)
                if check is not None:
                    check(entry, ctx)
    return lib


def _validate_chip(chip: ChipSpec, lib: Library, is_root: bool) -> None:
    ctx = f"chip '{chip.name}'"
    check_fields(chip, ctx)
    _check(len(chip.layers) >= 1, "at least one layer is required", ctx)
    for layer_name in chip.layers:
        _check(layer_name in lib.layers,
               f"unknown layer '{layer_name}'", ctx)
    _check(chip.wafer_process in lib.wafer_processes,
           f"unknown wafer process '{chip.wafer_process}'", ctx)
    _check(chip.test_self in lib.test_processes,
           f"unknown test process '{chip.test_self}'", ctx)
    frac_sum = chip.logic_fraction + chip.memory_fraction + chip.analog_fraction
    _check(abs(frac_sum - 1.0) <= FRACTION_TOL,
           f"content fractions must sum to 1, got {frac_sum}", ctx)
    if chip.children or is_root:
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


def validate_system(root: ChipSpec, nets: tuple[NetSpec, ...],
                    library: Library) -> ValidatedSystem:
    """Cross-check the tree and netlist against the library. A non-root
    leaf equal, name aside, to one that passed passes too, is not
    checked again, and takes that leaf's class (leaf_classes); a leaf
    that fails is never stored, so the first failing chip in pre-order
    is the one named. The root is checked in full and has no class.
    Nets likewise: a net of the class (io type, bandwidth, count,
    utilization) of the last net checked in full runs only its two
    endpoint checks, so the links of a split are checked in full once
    and the first failing net is named."""
    validate_library(library)
    seen = {}           # (chip, leaf class) by chip name
    passed: dict[tuple, int] = {}       # the inputs of each class
    repeated = []
    stack = [root]      # pre-order, each chip's children pushed reversed
    while stack:
        chip = stack.pop()
        k = None
        if chip.children or chip is root:
            _validate_chip(chip, library, chip is root)
            stack.extend(reversed(chip.children))
        else:
            key = _LEAF_INPUTS(chip)
            k = passed.get(key)
            if k is None:
                _validate_chip(chip, library, False)
                k = passed[key] = len(passed)
        name = chip.name
        if name in seen:
            repeated.append(name)
        seen[name] = chip, k
    if repeated:
        raise ValidationError(
            f"chip name '{repeated[0]}' appears more than once in the tree",
            "system")

    cleared = None      # the class of the last net checked in full
    for i, net in enumerate(nets):
        src, dst = net.source, net.dest
        # every field the io-type, one-of and range checks read: a net of
        # the class that last passed them runs only its endpoint checks. A
        # class is kept only once it passed, so a NaN net, which fails its
        # range, is checked in full every time; -0.0 and 0.0 pass alike
        key = (net.io_type, net.bandwidth, net.count, net.utilization)
        if key == cleared and src != dst and (src in seen or dst in seen):
            continue
        ctx = f"net[{i}] {src}->{dst}"
        _check(src != dst, "source and dest must differ", ctx)
        if key != cleared:
            _check(net.io_type in library.ios,
                   f"unknown io type '{net.io_type}'", ctx)
            _check((net.bandwidth is None) != (net.count is None),
                   "exactly one of bandwidth or count is required", ctx)
            check_fields(net, ctx)
            cleared = key
        _check(src in seen or dst in seen,
               "neither endpoint names a chip in the tree", ctx)

    return ValidatedSystem(root=root, nets=tuple(nets), library=library,
                           leaf_classes=seen)

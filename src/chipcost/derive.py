"""Physical derivation: connectivity, power, pads, and area per chip.

One pass over the netlist (tally_nets) puts each net's instances, pads
and link power on the chips it touches, summing the internal instances
into per-IO-type matrices between chips. A net's figures follow from
its class (io type, bandwidth, count, utilization), so a run of nets of
one class, as the mesh links of a split, works them out once.
Each chip's IO cell area adds those summed instances first, then the
external nets in net order.
Power rolls up the tree, pad counts follow from connectivity plus power
and test needs, and the final area of each chip is the largest of its
core+IO silicon, its stack footprint, and the area its pads demand. One
pass over a chip's children derives them and sums their power, bonded
pins and crossing pads; its pads use its parent's assembly process (the
root's own). Order matters and is deliberate: power first (it does not
depend on area), then pads, then area. No iteration is needed. Each die
is then fitted to its wafer and exposure field once, so evaluate reads
the fit instead of recomputing it. A leaf whose inputs, all but its name,
match an earlier leaf's copies that leaf's figures and names it as its
twin, so the tiles of a split are derived once per call and evaluate
costs each class of them once.

IO cell area lands only on the two terminal chips of a net. A chip that
merely routes a net between descendants accrues bumps for it, not cell
area. Nets whose far endpoint names nothing in the tree are external and
touch only the resolving chip.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from operator import attrgetter

from .errors import ValidationError
from .model import (_LEAF_INPUTS, AssemblyProcessDef, ChipSpec,
                    IODefinition, Library, NetSpec, TestProcessDef, Tree,
                    ValidatedSystem, WaferProcessDef)
from .wafer import ReticleFit, reticle_fit

_EPS = 1e-12

# Most dies one row or column may hold: smaller dies are refused rather
# than packed for minutes. A 450 mm wafer at this limit has a 22.5 um
# pitch; a cold grid packing there takes about half a second.
MAX_DIES_ACROSS = 20_000


@dataclass(slots=True)
class DerivedChip(Tree):
    """A chip with its physical quantities resolved. Treated as immutable
    after build; not frozen, so that copying a leaf's figures is cheap."""

    spec: ChipSpec
    children: tuple[DerivedChip, ...]
    area_core: float
    area_io: float
    area_stack: float
    area_pads: float
    area: float
    dim_x: float
    dim_y: float
    power_io: float
    power_total: float
    n_signal_pads: int
    n_power_pads: int
    n_test_ios: int
    n_bonded_pins: int      # pads on the face bonded to the parent
    grown_for_pads: bool
    fit: ReticleFit         # the die on its process's exposure field
    # a copied leaf: the leaf derived in full whose figures it took, and
    # whose costs it shares; None on a leaf derived in full
    twin: DerivedChip | None = None


# A copied leaf takes every field of the record after spec and before twin.
_FIGURES = attrgetter(*(f.name for f in fields(DerivedChip)[1:-1]))


@dataclass(slots=True)
class DerivedSystem:
    system: ValidatedSystem
    # io -> {(src, dst): instances} of the internal nets (NetTally)
    matrices: dict[str, dict[tuple[str, str], int]]
    root: DerivedChip


def _finite(value, what: str, context: str):
    """The value, or a ValidationError naming the element if it overflowed:
    a float to inf, or an int past float range (any area product of it
    would raise). Python compares ints with floats exactly."""
    if value <= sys.float_info.max:
        return value
    raise ValidationError(f"{what} overflows", context)


def net_instances(net: NetSpec, io: IODefinition) -> int:
    """Instance count: explicit, or enough IO bandwidth for the request."""
    if net.count is not None:
        return net.count
    ratio = net.bandwidth / io.bandwidth
    # as _finite, with the net's name written only when it overflows
    if ratio <= sys.float_info.max:
        return int(math.ceil(ratio - _EPS))
    raise ValidationError("instance count overflows",
                          f"net '{net.source}' -> '{net.dest}'")


@dataclass(slots=True)
class NetTally:
    """What the netlist puts on each chip, keyed by chip name.

    area_io and power_io land on the terminal chips of a net, or on the
    resolving chip alone for an external net. external_pads holds, by IO
    type, the pads of the external nets a chip resolves; crossing_pads
    the pads of internal nets crossing the boundary of its subtree.
    matrices[io][(src, dst)] sums the instances of the internal nets of
    each IO type and direction; src == dst is refused at validation.
    """

    area_io: dict[str, float]
    power_io: dict[str, float]
    external_pads: dict[str, dict[str, int]]
    crossing_pads: dict[str, dict[str, int]]
    matrices: dict[str, dict[tuple[str, str], int]]


def _cell_areas(io: IODefinition) -> tuple[float, float]:
    """Cell area per instance on the (source, dest) side of a link. A
    bidirectional cell transmits and receives, so both land on each side."""
    if io.bidirectional:
        both = io.tx_area + io.receiver_area
        return both, both
    return io.tx_area, io.receiver_area


def tally_nets(root: ChipSpec, nets: tuple[NetSpec, ...],
               library: Library) -> NetTally:
    """One pass over the nets. Power and pads add in net order. Cell area
    adds the summed internal instances first (IO types, then chip pairs,
    each in first-seen order), then the external nets in net order. So
    the totals are the same as a scan of every net per chip."""
    parent: dict[str, str] = {}
    depth = {root.name: 0}
    for chip in root.walk():
        for c in chip.children:
            parent[c.name] = chip.name
            depth[c.name] = depth[chip.name] + 1
    area = dict.fromkeys(depth, 0.0)
    power = dict.fromkeys(depth, 0.0)
    external: dict[str, dict[str, int]] = {name: {} for name in depth}
    crossing: dict[str, dict[str, int]] = {name: {} for name in depth}
    matrices: dict[str, dict[tuple[str, str], int]] = {}
    outside = []        # (resolving chip, cell area) of each external net
    # io, instances, pads and link power follow from a net's class, the
    # fields they are worked out from: a run of nets of one class, as the
    # links of a split, works them out once. Utilization 0.0 and -0.0 are
    # one class, so a zero link power may keep the other sign; that adds
    # nothing either way, as every power total starts at +0.0 and
    # x + (+-0.0) == x bit for bit
    last = None

    for net in nets:
        key = (net.io_type, net.bandwidth, net.count, net.utilization)
        if key != last:
            last = key
            io = library.ios[net.io_type]
            inst = net_instances(net, io)
            pads = inst * io.wires_per_instance
            bandwidth = (net.bandwidth if net.bandwidth is not None
                         else net.count * io.bandwidth)
            # link power at each resolving terminal: pJ/bit times Gbit/s
            # times utilization gives mW, converted to W
            p = io.energy_per_bit * bandwidth * net.utilization * 1e-3
        a, b = net.source, net.dest
        if a not in depth or b not in depth:
            r = a if a in depth else b
            tx, rx = _cell_areas(io)
            outside.append((r, (tx if a == r else rx) * inst))
            power[r] += p
            tally = external[r]
            tally[net.io_type] = tally.get(net.io_type, 0) + pads
            continue
        m = matrices.setdefault(net.io_type, {})
        m[a, b] = m.get((a, b), 0) + inst
        power[a] += p
        power[b] += p
        # the net crosses the boundary of each subtree holding one endpoint
        # only: those rooted below the lowest common ancestor on the paths
        # up from either endpoint
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            tally = crossing[a]
            tally[net.io_type] = tally.get(net.io_type, 0) + pads
            a = parent[a]

    # cell area of internal nets from the summed instances: tx per row,
    # rx per column; a chip that only routes a net gets none
    for io_name, m in matrices.items():
        tx, rx = _cell_areas(library.ios[io_name])
        for (src, dst), inst in m.items():
            area[src] += tx * inst
            area[dst] += rx * inst
    for r, cell_area in outside:
        area[r] += cell_area
    return NetTally(area_io=area, power_io=power, external_pads=external,
                    crossing_pads=crossing, matrices=matrices)


def stack_area(children: tuple[DerivedChip, ...],
               asm: AssemblyProcessDef | None) -> float:
    """Footprint of the placed children: each grows by the die separation
    on both axes, the sum is treated as a square region, and the edge
    exclusion ring wraps around it. Buried dies take no footprint."""
    placed = [c for c in children if not c.spec.buried]
    if not placed:
        return 0.0
    if asm is None:
        raise ValidationError("children present but no assembly process",
                              "stack_area")
    sep = asm.die_separation
    total = 0.0
    for c in placed:
        total += (c.dim_x + sep) * (c.dim_y + sep)
    side = math.sqrt(total) + 2.0 * asm.edge_exclusion
    return side * side


def test_io_count(tp: TestProcessDef) -> int:
    return tp.scan_chains * tp.ios_per_scan_chain + tp.test_io_offset


def power_pad_count(power_total: float, core_voltage: float,
                    asm: AssemblyProcessDef, context: str) -> int:
    """Pads to carry the supply current, doubled for the return path."""
    if power_total <= 0.0:
        return 0
    if core_voltage <= 0.0:
        raise ValidationError(
            "core_voltage must be > 0 on a chip that draws power", context)
    pad_radius = asm.bonding_pitch / 4.0
    per_pad = (core_voltage * asm.max_current_density
               * math.pi * pad_radius * pad_radius)
    n = _finite(power_total / per_pad if per_pad > 0.0 else math.inf,
               "power pad count", context)
    return 2 * int(math.ceil(n))


def _band_area(side: float, width: float) -> float:
    """Area of the outer band of the given width on a square die. Written
    as 4w(side - w), not side^2 - inner^2, which cancels on a large side."""
    if side <= 2.0 * width:
        return side * side
    return 4.0 * width * (side - width)


def _side_for_band(n_pads: int, width: float, pitch: float) -> float:
    """Smallest square side whose outer band of the given width holds
    n_pads at one pad per pitch^2."""
    need = n_pads * pitch * pitch
    full = math.sqrt(need)
    if full <= 2.0 * width:
        return full
    return (need + 4.0 * width * width) / (4.0 * width)


def _grow(side: float, target: float, pitch: float, context: str) -> float:
    """Grow in whole bonding-pitch steps per side until side >= target."""
    if target <= side * (1.0 + _EPS):
        return side
    steps = _finite((target - side) / pitch, "pad-driven die side", context)
    return side + int(math.ceil(steps - _EPS)) * pitch


def place_pads(side0: float, signal_by_type: dict[str, int], n_pads: int,
               asm: AssemblyProcessDef, library: Library, context: str,
               allow_growth: bool = True) -> tuple[float, bool]:
    """(die side, whether it grew): fit signal pads in perimeter bands by
    reach, then all n_pads (signal, power and test) anywhere, growing the
    die as a square when a stage cannot fit.

    Each IO type gets a band (reach - die_separation) / 2 deep; the types
    place shortest reach first, so earlier bands nest inside later ones
    and the running total must fit each type's own band.
    """
    pitch = asm.bonding_pitch
    side = side0
    grown = False
    order = sorted((name for name, n in signal_by_type.items() if n > 0),
                   key=lambda name: (library.ios[name].reach, name))
    running = 0
    for name in order:
        io = library.ios[name]
        width = (io.reach - asm.die_separation) / 2.0
        if width <= 0.0:
            raise ValidationError(
                f"io '{name}' reach {io.reach} does not clear the die "
                f"separation {asm.die_separation}", context)
        running += signal_by_type[name]
        need = running * pitch * pitch
        if _band_area(side, width) + _EPS < need:
            if not allow_growth:
                continue
            side = _grow(side, _side_for_band(running, width, pitch), pitch,
                         context)
            grown = True
            # _grow leaves the band short by rounding at most
            if _band_area(side, width) + _EPS < need:
                side += pitch
    need = n_pads * pitch * pitch
    if side * side + _EPS < need and allow_growth:
        side = _grow(side, math.sqrt(need), pitch, context)
        grown = True
    return side, grown


def _check_die(area: float, side: float, wp: WaferProcessDef,
               context: str) -> None:
    """Refuse a die whose wafer figures cannot be computed: too many dies
    across the wafer to pack, or exposure counts past float range."""
    across = 2.0 * wp.usable_radius / (side + min(wp.scribe_x, wp.scribe_y))
    if not across <= MAX_DIES_ACROSS:
        raise ValidationError(
            f"{across:.3g} dies of {side:.6g} x {side:.6g} mm "
            f"fit across waferprocess '{wp.name}', more than "
            f"{MAX_DIES_ACROSS}", context)
    field = wp.reticle_x * wp.reticle_y
    if not (2.0 * area / field < math.inf and field / area < math.inf):
        raise ValidationError(
            f"exposure counts of a {area:.6g} mm2 die overflow on "
            f"waferprocess '{wp.name}'", context)


def derive_chip(chip: ChipSpec, tally: NetTally, library: Library,
                parent_asm: AssemblyProcessDef | None,
                memo: dict | None = None) -> DerivedChip:
    """chip and its subtree. With a memo, a leaf whose inputs match a leaf
    derived before into that memo copies its figures under its own spec
    and names that leaf as its twin; only a leaf that passed every check
    is kept."""
    key = None
    if memo is not None and not chip.children:
        # == takes -0.0 for 0.0: the two floats a leaf keeps unchanged
        # (area_core, power_total) key the sign of a zero as well. The
        # content fractions need not: only nre_cost_self reads them, and
        # there they move fe + be by at most a zero's sign, which adding
        # the mask share erases (the mask total starts at +0.0, so that
        # share is never -0.0). So twins cost the same too
        a, p = chip.core_area, chip.black_box_power
        name = chip.name
        key = (*_LEAF_INPUTS(chip), a == 0.0 and repr(a),
               p == 0.0 and repr(p), tally.area_io[name],
               tally.power_io[name], *tally.crossing_pads[name].items(),
               None, *tally.external_pads[name].items(), id(parent_asm))
        hit = memo.get(key)
        if hit is not None:
            return DerivedChip(chip, *_FIGURES(hit), hit)

    ctx = f"chip '{chip.name}'"
    own_asm = (library.assembly_processes[chip.assembly_process]
               if chip.assembly_process is not None else None)
    interface_asm = parent_asm if parent_asm is not None else own_asm

    # pads: own boundary-crossing signals plus each child's bonded face,
    # which together cover both faces of this chip
    signal_by_type = dict(tally.crossing_pads[chip.name])
    for io, n in tally.external_pads[chip.name].items():
        signal_by_type[io] = signal_by_type.get(io, 0) + n
    own_pads_below = sum(signal_by_type.values())
    children = []
    p_children = 0.0    # folded left: sum() compensates floats from 3.12
    n_bonded = 0
    for c in chip.children:
        child = derive_chip(c, tally, library, own_asm, memo)
        children.append(child)
        p_children += child.power_total
        n_bonded += child.n_bonded_pins
        for io, n in tally.crossing_pads[c.name].items():
            signal_by_type[io] = signal_by_type.get(io, 0) + n
    children = tuple(children)

    p_io = tally.power_io[chip.name]
    if chip.black_box_power is not None:
        p_total = chip.black_box_power
    else:
        p_total = chip.core_power + p_children + p_io

    a_core = chip.core_area
    a_io = tally.area_io[chip.name]
    a_stack = stack_area(children, own_asm)
    n_signal = sum(signal_by_type.values())
    n_power = power_pad_count(p_total, chip.core_voltage, interface_asm, ctx)
    n_test = test_io_count(library.test_processes[chip.test_self])
    n_pads = _finite(n_signal + n_power + n_test, "pad count", ctx)

    base = max(a_core + a_io, a_stack)
    side0 = math.sqrt(base) if base > 0.0 else 0.0
    side, grown = place_pads(side0, signal_by_type, n_pads, interface_asm,
                             library, ctx,
                             allow_growth=chip.black_box_area is None)

    pitch = interface_asm.bonding_pitch
    a_pads = side * side if grown else n_pads * pitch * pitch
    if chip.black_box_area is not None:
        area = chip.black_box_area
    else:
        area = _finite(max(a_core + a_io, a_stack, a_pads), "area", ctx)
    if area <= 0.0:
        raise ValidationError(
            "chip resolves to zero area (no core, stack, or pads)", ctx)
    if not grown:
        side = math.sqrt(area)

    for c in children:
        if c.area > area * (1.0 + 1e-9):
            raise ValidationError(
                f"child '{c.spec.name}' area {c.area:.6g} exceeds parent "
                f"area {area:.6g}", ctx)

    _finite(n_bonded, "bonded pin count", ctx)
    wp = library.wafer_processes[chip.wafer_process]
    _check_die(area, side, wp, ctx)
    derived = DerivedChip(
        spec=chip, children=children,
        area_core=a_core, area_io=a_io, area_stack=a_stack,
        area_pads=a_pads, area=area, dim_x=side, dim_y=side,
        power_io=p_io, power_total=p_total,
        n_signal_pads=n_signal, n_power_pads=n_power, n_test_ios=n_test,
        n_bonded_pins=own_pads_below + n_power + n_test,
        grown_for_pads=grown,
        fit=reticle_fit(area, wp.reticle_x, wp.reticle_y))
    if key is not None:
        memo[key] = derived
    return derived


def derive(system: ValidatedSystem) -> DerivedSystem:
    """Resolve the whole tree bottom-up, each distinct leaf once."""
    tally = tally_nets(system.root, system.nets, system.library)
    root = derive_chip(system.root, tally, system.library, None, {})
    return DerivedSystem(system=system, matrices=tally.matrices, root=root)

"""Cost and yield evaluation over a derived system.

Each node is costed post-order. A die is fabricated, tested, and scrapped
against its tested yield; an assembly stage bonds the tested children onto
the tested parent die, is tested itself, and scrapped against the tested
assembly yield. Quality (truly good parts among test passers) propagates
upward and discounts the assembly true yield, because an escape at one
level only surfaces as a failure at the next. The assembly test screens
the assembly and its children but not the parent die, which only its
own test screened: quality_shipped = quality_self x q_asm, where q_asm
is the truly good share (bond sound, every child truly good) of the
assemblies that pass.

A node is infeasible when its recurring or NRE cost is not finite: a die
no wafer holds, a tested yield of zero, or a cost past double range. It
is tagged per node (so is every node above it), never raised. A die
whose wafer figures cannot be computed at all (too small to pack, or an
exposure count past float range) never gets here: derive refuses it
while fitting the die to its exposure field.

A leaf that derive copied from a twin costs what its twin costs: each
evaluate call costs the first leaf it reaches of each such class and
gives the others those costs under their own names and paths. derive's
key covers every input a leaf's costs read (every spec field but the
name), so no output changes.

evaluate's memo keeps, per node, its last costs and the library entries
its subtree and its own die read: a sweep point re-costs only the nodes,
and re-figures only the dies, that read an entry the point moved.

The one walk of the costed tree is evaluate's pre-order fold of the
breakdown, which also lists the nodes in the report for the writers.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Collection
from dataclasses import dataclass

from .derive import DerivedChip, DerivedSystem
from .model import (AssemblyProcessDef, ChipSpec, LayerDef, Library,
                    TestProcessDef, Tree, WaferProcessDef, ref_fields)
from .wafer import dies_per_wafer

INF = math.inf


def defect_yield(defect_density: float, critical_area: float,
                 clustering_factor: float) -> float:
    """Negative binomial yield; large clustering factors approach Poisson."""
    x = defect_density * critical_area / clustering_factor
    return math.pow(1.0 + x, -clustering_factor)


def litho_multiplier(litho_fraction: float, utilization: float) -> float:
    """Scale the litho share of cost by wasted exposure field."""
    return 1.0 - litho_fraction + litho_fraction / utilization


def layer_cost(layer: LayerDef, area: float, dim_x: float, dim_y: float,
               wp: WaferProcessDef, utilization: float) -> float:
    """One layer's share of the wafer, charged for unusable silicon and,
    by its litho share, for the unused exposure field (`utilization`,
    from the die's reticle fit).

    The effective cost per mm2 spreads the whole usable wafer over the
    dies that actually fit; zero dies per wafer means the die cannot be
    made on this process and the cost is infinite.
    """
    dpw = dies_per_wafer(wp, dim_x, dim_y)
    if dpw <= 0:
        return INF
    r = wp.usable_radius
    effective = layer.cost_per_mm2 * (math.pi * r * r) / (dpw * dim_x * dim_y)
    return area * effective * litho_multiplier(layer.litho_fraction,
                                               utilization)


def die_cost(chip: DerivedChip, library: Library) -> float:
    wp = library.wafer_processes[chip.spec.wafer_process]
    total = 0.0
    for layer_name in chip.spec.layers:
        total += layer_cost(library.layers[layer_name], chip.area,
                            chip.dim_x, chip.dim_y, wp, chip.fit.utilization)
    return total


def die_yield(chip: DerivedChip, library: Library) -> float:
    """Defect yield over all layers, times stitch yield for dies larger
    than the exposure field. The critical area is the defect-sensitive
    share of the active silicon (core plus IO cells), not pad or stack
    overhead."""
    k_stitch = chip.fit.k_stitch
    y = 1.0
    for layer_name in chip.spec.layers:
        layer = library.layers[layer_name]
        critical = (chip.area_core + chip.area_io) * layer.critical_area_fraction
        y *= defect_yield(layer.defect_density, critical,
                          layer.clustering_factor)
        if k_stitch > 0:
            y *= math.pow(layer.stitch_yield, k_stitch)
    return y


def test_cost(tp: TestProcessDef) -> float:
    return (tp.cost_per_second * tp.patterns * tp.scan_chain_length
            * tp.clock_period)


def tested_yield(fault_coverage: float, true_yield: float) -> float:
    """Share of parts that pass the test: all good ones plus the escapes.

    Written as y + escapes rather than 1 - coverage * (1 - y), which
    cancels and can land below y; the clamp keeps rounding inside [y, 1].
    """
    y = true_yield + (1.0 - fault_coverage) * (1.0 - true_yield)
    return min(1.0, max(true_yield, y))


def quality(true_yield: float, y_tested: float) -> float:
    """Truly good share of the parts that passed."""
    return true_yield / y_tested


def assembly_cost(asm: AssemblyProcessDef, n_dies: int,
                  bonded_area: float) -> float:
    t_pnp = math.ceil(n_dies / asm.pick_place_group) * asm.pick_place_time
    t_bond = math.ceil(n_dies / asm.bond_group) * asm.bond_time
    return (asm.pick_place_rate * t_pnp + asm.bond_rate * t_bond
            + asm.material_cost_per_mm2 * bonded_area)


def assembly_yield(asm: AssemblyProcessDef, n_pins: int, n_dies: int,
                   bonded_area: float) -> float:
    """Every bonded pad, every placement, and the bonded dielectric
    interface must all succeed."""
    y = math.pow(asm.bond_yield, n_pins)
    y *= math.pow(asm.alignment_yield, n_dies)
    y /= 1.0 + asm.dielectric_defect_density * bonded_area
    return y


def nre_cost_self(chip: DerivedChip, library: Library) -> float:
    """Design effort on the core content plus this chip's mask share,
    spread over the units manufactured."""
    spec = chip.spec
    wp = library.wafer_processes[spec.wafer_process]
    fe = spec.core_area * (wp.nre_fe_logic * spec.logic_fraction
                           + wp.nre_fe_memory * spec.memory_fraction
                           + wp.nre_fe_analog * spec.analog_fraction)
    be = spec.core_area * (wp.nre_be_logic * spec.logic_fraction
                           + wp.nre_be_memory * spec.memory_fraction
                           + wp.nre_be_analog * spec.analog_fraction)
    masks = 0.0     # folded left: sum() compensates floats from 3.12
    for name in spec.layers:
        masks += library.layers[name].mask_cost
    return (fe + be + spec.reticle_share * masks) / spec.quantity


class NodeCosts(namedtuple("NodeCosts", (
        "name path area power cost_die cost_test_self cost_test_assembly"
        " cost_assembly cost_re_self cost_re cost_nre_self cost_nre"
        " cost_scrap yield_die yield_tested_self quality_self"
        " yield_assembly yield_child_quality yield_tested_assembly"
        " yield_chip quality_shipped infeasible children")), Tree):
    """Cost and yield numbers for one chip, children included in the
    recurring figures: an immutable record. `name` and `path` are str,
    `infeasible` a bool, `children` a tuple of NodeCosts; every other
    field is a float."""

    __slots__ = ()


@dataclass(slots=True)
class CostReport:
    """A costed tree: its root, every node in pre-order (as root.walk()
    yields them, listed by evaluate's breakdown walk), the totals and the
    category breakdown, and the paths of the deepest infeasible nodes."""
    root: NodeCosts
    nodes: tuple[NodeCosts, ...]
    cost_total: float
    cost_re: float
    cost_nre: float
    breakdown: dict[str, float]
    infeasible: bool
    infeasible_paths: tuple[str, ...]


def _entries_read(chip: DerivedChip, memo: dict) -> tuple:
    """(kind, name) of each library entry that costing chip's subtree
    reads: what its "ref" fields name (a "parent" one only on a chip
    with children), and its children's sets in memo; then of those its
    own die reads, what its fields not marked "parent" name."""
    reads = set().union(*(memo[id(c)][0] for c in chip.children))
    own = set()
    for field, kind, parent in ref_fields(ChipSpec):
        if chip.children or not parent:
            names = getattr(chip.spec, field)
            named = {(kind, name) for name in
                     (names if isinstance(names, tuple) else (names,))}
            reads |= named
            if not parent:
                own |= named
    return frozenset(reads), frozenset(own)


def _evaluate_node(chip: DerivedChip, library: Library, path: str,
                   memo: dict | None, moved: Collection,
                   last: tuple | None, seen: dict) -> NodeCosts:
    """chip's costs; `last` is its memo entry, which some entry it reads
    moved since, or None. `seen` holds the costs of each leaf this
    evaluate call costed, keyed by the id of its twin or, without one,
    its own: a leaf with a twin found there takes them under its name and
    path."""
    spec = chip.spec
    my_path = f"{path}/{spec.name}" if path else spec.name
    twin = chip.twin
    if twin is not None and (found := seen.get(id(twin))) is not None:
        costs = tuple.__new__(NodeCosts, (spec.name, my_path, *found[2:]))
        if memo is not None:
            memo[id(chip)] = (*(last[:2] if last
                                else _entries_read(chip, memo)), costs)
        return costs
    # one pass over the children: their costs, each from the memo when
    # nothing it reads moved, and their sums, folded left in child order
    children = []
    bonded_area = c_nre_children = c_re_children = 0.0
    n_pins, y_child_q = 0, 1.0
    for c in chip.children:
        entry = memo.get(id(c)) if memo is not None else None
        costs = (entry[2] if entry is not None and entry[0].isdisjoint(moved)
                 else _evaluate_node(c, library, my_path, memo, moved, entry,
                                     seen))
        children.append(costs)
        bonded_area += c.area
        n_pins += c.n_bonded_pins
        c_nre_children += costs.cost_nre
        c_re_children += costs.cost_re
        y_child_q *= costs.quality_shipped
    children = tuple(children)

    if last is not None and last[1].isdisjoint(moved):
        # nothing the die reads moved: its figures stand
        old = last[2]
        (c_die, y_die, c_test_self, y_tested_self, q_self, c_re_self,
         c_nre_self) = (old.cost_die, old.yield_die, old.cost_test_self,
                        old.yield_tested_self, old.quality_self,
                        old.cost_re_self, old.cost_nre_self)
    else:
        c_die = die_cost(chip, library)
        y_die = die_yield(chip, library)
        tp_self = library.test_processes[spec.test_self]
        c_test_self = test_cost(tp_self)
        y_tested_self = tested_yield(tp_self.fault_coverage, y_die)
        q_self = (quality(y_die, y_tested_self) if y_tested_self > 0.0
                  else 0.0)
        c_re_self = ((c_die + c_test_self) / y_tested_self
                     if y_tested_self > 0.0 else INF)
        c_nre_self = nre_cost_self(chip, library)
    c_nre = c_nre_self + c_nre_children

    if children:
        asm = library.assembly_processes[spec.assembly_process]
        tp_asm = library.test_processes[spec.test_assembly]
        n_dies = len(chip.children)
        c_asm = assembly_cost(asm, n_dies, bonded_area)
        c_test_asm = test_cost(tp_asm)
        y_asm = assembly_yield(asm, n_pins, n_dies, bonded_area)
        y_true_asm = y_asm * y_child_q
        y_tested_asm = tested_yield(tp_asm.fault_coverage, y_true_asm)
        upstream = c_asm + c_test_asm + c_re_self + c_re_children
        c_re = upstream / y_tested_asm if y_tested_asm > 0.0 else INF
        q_asm = (quality(y_true_asm, y_tested_asm)
                 if y_tested_asm > 0.0 else 0.0)
        q_shipped = q_self * q_asm
        y_chip = y_die * y_asm * y_child_q
        scrap = c_re - (c_die + c_test_self + c_asm + c_test_asm) \
            - c_re_children
    else:
        c_asm = c_test_asm = 0.0
        y_asm = y_tested_asm = 1.0
        c_re = c_re_self
        q_shipped = q_self
        y_chip = y_die
        scrap = c_re - (c_die + c_test_self)
    # rounding can leave scrap ulps below zero (c_re sums in another order)
    scrap = max(scrap, 0.0)     # scrap first: NaN and -0.0 pass unchanged

    costs = NodeCosts(
        name=spec.name, path=my_path, area=chip.area,
        power=chip.power_total,
        cost_die=c_die, cost_test_self=c_test_self,
        cost_test_assembly=c_test_asm, cost_assembly=c_asm,
        cost_re_self=c_re_self, cost_re=c_re,
        cost_nre_self=c_nre_self, cost_nre=c_nre,
        cost_scrap=INF if c_re == INF else scrap,
        yield_die=y_die, yield_tested_self=y_tested_self,
        quality_self=q_self, yield_assembly=y_asm,
        yield_child_quality=y_child_q, yield_tested_assembly=y_tested_asm,
        yield_chip=y_chip, quality_shipped=q_shipped,
        infeasible=not math.isfinite(c_re + c_nre), children=children)
    if not children:
        seen[id(twin or chip)] = costs
    if memo is not None:
        memo[id(chip)] = (*(last[:2] if last else _entries_read(chip, memo)),
                          costs)
    return costs


def evaluate(ds: DerivedSystem, *, memo: dict | None = None,
             moved: Collection = frozenset()) -> CostReport:
    """Roll the whole tree up into a report with a category breakdown.

    `memo`, a dict the caller keeps for one derived tree, holds each
    node's last costs and the library entries ((kind, name) pairs) its
    subtree and its own die read. A node whose subtree reads none of the
    `moved` entries returns its costs without recursing; one whose die
    reads none keeps its die figures (cost_die to cost_nre_self). A leaf
    and the copies naming it as their twin are costed once per call. The
    breakdown still walks every node, so the sums keep their bits, and
    that walk lists the report's nodes.
    """
    last = memo.get(id(ds.root)) if memo is not None else None
    root = (last[2] if last is not None and last[0].isdisjoint(moved)
            else _evaluate_node(ds.root, ds.system.library, "", memo, moved,
                                last, {}))
    silicon = 0.0
    assembly = 0.0
    test = 0.0
    scrap = 0.0
    bad_paths = []
    nodes = []
    stack = [root]      # pre-order: a node, then its children in order
    while stack:
        n = stack.pop()
        nodes.append(n)
        stack.extend(reversed(n.children))
        silicon += n.cost_die
        assembly += n.cost_assembly
        test += n.cost_test_self + n.cost_test_assembly
        scrap += n.cost_scrap
        if n.infeasible and not any(c.infeasible for c in n.children):
            bad_paths.append(n.path)
    total = root.cost_re + root.cost_nre
    breakdown = {
        "silicon": silicon,
        "assembly": assembly,
        "test": test,
        "scrap": scrap,
        "nre": root.cost_nre,
    }
    return CostReport(root=root, nodes=tuple(nodes), cost_total=total,
                      cost_re=root.cost_re, cost_nre=root.cost_nre,
                      breakdown=breakdown, infeasible=root.infeasible,
                      infeasible_paths=tuple(sorted(bad_paths)))

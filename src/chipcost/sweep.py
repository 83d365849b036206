"""Parameter sweeps: scalar field axes and the homogeneous split axis.

A sweep is a cartesian product over axes in document order. Every point
rebuilds its own copy of the library and system (the models are frozen
dataclasses) from the unchanged base, and points run one after another.

A point re-runs only the stages its values can change. It is always
evaluated, and its library always validated. The tree and netlist are
validated again only when a chip or split axis rebuilt them. derive runs
again only when an axis that reaches it moved since the last point: a
split or chip axis, or a library axis on a field marked "derive" in the
model; otherwise the point reuses the last derived tree with its own
library.

The split axis divides one template chip into an n = m x m mesh of equal
chiplets. Every mesh link and every boundary stub carries the template's
side bandwidth divided by m, which keeps the total bandwidth crossing
the original die boundary constant at any split.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import math
import re
from dataclasses import dataclass

from .derive import DerivedSystem, derive
from .engine import evaluate
from .errors import ValidationError
from .model import (LIBRARY_KINDS, ChipSpec, Library, NetSpec,
                    ValidatedSystem, derive_fields, field_kinds,
                    validate_library, validate_system)
from .report import SCHEMA_VERSION, format_value
from .xmlio import (_Attrs, _parse_fields, _parse_xml, parse_number,
                    to_integer)

# Most points one sweep may hold, per range axis and over the whole
# cartesian product; both are checked before any point is built.
MAX_SWEEP_POINTS = 1_000_000
# Most tiles one <split> count may ask for: each point builds them all.
MAX_SPLIT_TILES = 16_384

_TARGET_RE = re.compile(
    rf"^(library)\.({'|'.join(LIBRARY_KINDS)})\[([^\]]+)\]\.(\w+)$"
    r"|^(system)\.chip\[([^\]]+)\]\.(\w+)$")


@dataclass(frozen=True)
class FieldAxis:
    target: str
    values: tuple[float, ...]

    @property
    def column(self) -> str:
        return self.target

    @property
    def points(self) -> tuple[float, ...]:
        return self.values


@dataclass(frozen=True)
class SplitAxis:
    """A <split> element; its attributes are read like the model's."""

    chip: str
    counts: tuple[int, ...]
    side_bandwidth: float
    io_type: str = dataclasses.field(metadata={"attr": "io"})
    external_prefix: str = dataclasses.field(default="edge",
                                             metadata={"attr": "external"})
    utilization: float = 1.0

    @property
    def column(self) -> str:
        return f"split.{self.chip}"

    @property
    def points(self) -> tuple[int, ...]:
        return self.counts


@dataclass(frozen=True)
class SweepPlan:
    axes: tuple[FieldAxis | SplitAxis, ...]


def _parse_values(text: str, context: str = "sweep") -> tuple[float, ...]:
    out = tuple(parse_number(v.strip(), "value", context)
                for v in text.split(",") if v.strip())
    if not out:
        raise ValidationError("values list is empty", context)
    return out


def _parse_range(text: str, context: str = "sweep") -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"range must be start:stop:step, got '{text}'",
                              context)
    start, stop, step = (parse_number(p, f"range '{text}'", context)
                         for p in parts)
    if step <= 0:
        raise ValidationError("range step must be > 0", context)
    # slack keeps the stop endpoint inclusive under float accumulation,
    # for negative stops too
    limit = stop + abs(stop) * 1e-12 + 1e-15
    if not (limit - start) / step < MAX_SWEEP_POINTS:
        raise ValidationError(
            f"range '{text}' has more than {MAX_SWEEP_POINTS} values",
            context)
    out = []
    k = 0
    while True:
        v = start + k * step
        if v > limit:
            break
        out.append(v)
        k += 1
    if not out:
        raise ValidationError(f"range '{text}' produces no values", context)
    return tuple(out)


def _parse_counts(text: str, context: str) -> tuple[int, ...]:
    counts = []
    for v in (v.strip() for v in text.split(",")):
        if not v:
            continue
        n = parse_number(v, "<split> count", context)
        if n < 1 or n != int(n) or math.isqrt(int(n)) ** 2 != n:
            raise ValidationError(
                f"<split> counts must be perfect squares, got {v}", context)
        if n > MAX_SPLIT_TILES:
            raise ValidationError(
                f"<split> count {v} is more than {MAX_SPLIT_TILES} tiles",
                context)
        counts.append(int(n))
    if not counts:
        raise ValidationError("<split> needs counts", context)
    return tuple(counts)


def parse_sweep(path: str) -> SweepPlan:
    root = _parse_xml(path)
    if root.tag != "sweep":
        raise ValidationError(f"expected <sweep> root, got <{root.tag}>", path)
    _Attrs(root, f"{path}: <sweep>").finish()
    axes: list[FieldAxis | SplitAxis] = []
    for elem in root:
        if elem.tag == "param":
            ctx = f"{path}: <param {elem.get('target', '?')}>"
            a = _Attrs(elem, ctx)
            target = a.text("target", True)
            values = a.text("values", False)
            range_ = a.text("range", False)
            a.finish()
            if not _TARGET_RE.match(target):
                raise ValidationError(f"bad target '{target}'", ctx)
            if (values is None) == (range_ is None):
                raise ValidationError(
                    "<param> needs exactly one of values or range", ctx)
            pts = (_parse_values(values, ctx) if values is not None
                   else _parse_range(range_, ctx))
            axes.append(FieldAxis(target=target, values=pts))
        elif elem.tag == "split":
            counts = _parse_counts(elem.get("counts", ""), path)
            axes.append(_parse_fields(SplitAxis, elem, f"{path}: <split>",
                                      counts=counts))
        else:
            raise ValidationError(f"unknown sweep element <{elem.tag}>", path)
    if not axes:
        raise ValidationError("sweep defines no axes", path)
    return SweepPlan(axes=tuple(axes))


def _replace_number(obj, field: str, value: float):
    """obj with one numeric field set to value, coerced to the field's type."""
    kinds = field_kinds(type(obj))
    if field not in kinds:
        raise ValidationError(f"'{obj.name}' has no field '{field}'",
                              "sweep")
    if kinds[field] is int:
        value = to_integer(value, f"field '{field}'", "sweep")
    elif kinds[field] is not float:
        raise ValidationError(f"field '{field}' is not numeric", "sweep")
    return dataclasses.replace(obj, **{field: value})


def _replace_in_library(lib: Library, kind: str, name: str, field: str,
                        value: float) -> Library:
    attr = LIBRARY_KINDS[kind][0]
    table: dict = getattr(lib, attr)
    if name not in table:
        raise ValidationError(f"no {kind} named '{name}' in the library",
                              "sweep")
    new_table = dict(table)
    new_table[name] = _replace_number(table[name], field, value)
    return dataclasses.replace(lib, **{attr: new_table})


def _replace_in_tree(chip: ChipSpec, name: str, field: str,
                     value: float) -> tuple[ChipSpec, int]:
    hits = 0
    children = []
    for c in chip.children:
        new_c, n = _replace_in_tree(c, name, field, value)
        children.append(new_c)
        hits += n
    chip = dataclasses.replace(chip, children=tuple(children))
    if name == "*" or chip.name == name:
        chip = _replace_number(chip, field, value)
        hits += 1
    return chip, hits


def apply_field(lib: Library, root: ChipSpec, nets: tuple[NetSpec, ...],
                target: str, value: float):
    m = _TARGET_RE.match(target)
    if not m:
        raise ValidationError(f"bad target '{target}'", "sweep")
    if m.group(1) == "library":
        lib = _replace_in_library(lib, m.group(2), m.group(3), m.group(4),
                                  value)
    else:
        root, hits = _replace_in_tree(root, m.group(6), m.group(7), value)
        if hits == 0:
            raise ValidationError(
                f"no chip named '{m.group(6)}' in the system", "sweep")
    return lib, root, nets


def apply_split(lib: Library, root: ChipSpec, nets: tuple[NetSpec, ...],
                axis: SplitAxis, n: int):
    """Replace the template chip with an m x m mesh of equal shares."""
    m = math.isqrt(n)
    if m * m != n:
        raise ValidationError(f"split count {n} is not a perfect square",
                              "sweep")

    template = None
    for c in root.walk():
        if c.name == axis.chip:
            template = c
    if template is None:
        raise ValidationError(f"no chip named '{axis.chip}' to split", "sweep")
    if template.children:
        raise ValidationError("the split template must be a leaf chip",
                              "sweep")
    if axis.io_type not in lib.ios:
        raise ValidationError(f"unknown io type '{axis.io_type}'", "sweep")

    def tile_name(r: int, c: int) -> str:
        return f"{axis.chip}_{r}_{c}"

    tiles = tuple(
        dataclasses.replace(
            template,
            name=tile_name(r, c),
            core_area=template.core_area / n,
            core_power=template.core_power / n,
            quantity=template.quantity * n)
        for r in range(m) for c in range(m))

    def rebuild(chip: ChipSpec) -> ChipSpec:
        new_children = []
        for c in chip.children:
            if c.name == axis.chip:
                new_children.extend(tiles)
            else:
                new_children.append(rebuild(c))
        return dataclasses.replace(chip, children=tuple(new_children))

    if root.name == axis.chip:
        raise ValidationError("cannot split the root chip", "sweep")
    new_root = rebuild(root)

    link_bw = axis.side_bandwidth / m
    new_nets = [x for x in nets
                if x.source != axis.chip and x.dest != axis.chip]
    for r in range(m):
        for c in range(m - 1):
            new_nets.append(NetSpec(source=tile_name(r, c),
                                    dest=tile_name(r, c + 1),
                                    io_type=axis.io_type, bandwidth=link_bw,
                                    utilization=axis.utilization))
    for c in range(m):
        for r in range(m - 1):
            new_nets.append(NetSpec(source=tile_name(r, c),
                                    dest=tile_name(r + 1, c),
                                    io_type=axis.io_type, bandwidth=link_bw,
                                    utilization=axis.utilization))
    for i in range(m):
        for side, (r, c) in (("w", (i, 0)), ("e", (i, m - 1)),
                             ("n", (0, i)), ("s", (m - 1, i))):
            new_nets.append(NetSpec(source=tile_name(r, c),
                                    dest=f"{axis.external_prefix}_{side}{i}",
                                    io_type=axis.io_type, bandwidth=link_bw,
                                    utilization=axis.utilization))
    return lib, new_root, tuple(new_nets)


OUTPUT_COLUMNS = ("cost_total", "cost_silicon", "cost_assembly", "cost_test",
                  "cost_scrap", "cost_nre", "yield_chip", "quality_shipped",
                  "area_mm2", "power_w", "infeasible")


def sweep_columns(plan: SweepPlan) -> tuple[str, ...]:
    cols = []
    for axis in plan.axes:
        cols.append(axis.column)
        if isinstance(axis, SplitAxis):
            cols.append(f"{axis.chip}.core_area_each")
    cols.extend(OUTPUT_COLUMNS)
    return tuple(cols)


def _reaches_derive(axis: FieldAxis | SplitAxis) -> bool:
    """Whether the axis can change what derive computes: a split or chip
    axis always, a library axis when derive reads its field."""
    m = isinstance(axis, FieldAxis) and _TARGET_RE.match(axis.target)
    if not m or m.group(1) != "library":
        return True
    return m.group(4) in derive_fields(LIBRARY_KINDS[m.group(2)][1])


class _DeriveMemo:
    """The last derived tree, keyed by the indices of a point's values on
    the axes that reach derive (indices, since 0.0 == -0.0)."""

    def __init__(self):
        self.key = None
        self.tree = None

    def derive(self, key: tuple, system: ValidatedSystem) -> DerivedSystem:
        if key != self.key:
            # drop the old tree first: two large ones are never held
            self.key = self.tree = None
            self.tree = derive(system)
            self.key = key
        return DerivedSystem(system=system, matrices=self.tree.matrices,
                             root=self.tree.root)


def _evaluate_point(base: ValidatedSystem, plan: SweepPlan,
                    reaches: tuple[bool, ...], memo: _DeriveMemo,
                    index: tuple[int, ...]) -> tuple:
    lib, root, nets = base.library, base.root, base.nets
    cells = []
    for axis, i in zip(plan.axes, index):
        value = axis.points[i]
        if isinstance(axis, FieldAxis):
            lib, root, nets = apply_field(lib, root, nets, axis.target, value)
            cells.append(value)
        else:
            unsplit = root
            lib, root, nets = apply_split(lib, root, nets, axis, value)
            area = next(c.core_area for c in unsplit.walk()
                        if c.name == axis.chip)
            cells.append(value)
            cells.append(area / value)
    if root is base.root and nets is base.nets:
        # only library numbers changed, and no name the tree and netlist
        # checks read: those passed on the base
        system = ValidatedSystem(root=root, nets=nets,
                                 library=validate_library(lib))
    else:
        system = validate_system(root, nets, lib)
    key = tuple(i for i, r in zip(index, reaches) if r)
    report = evaluate(memo.derive(key, system))
    cells.extend([
        report.cost_total,
        report.breakdown["silicon"],
        report.breakdown["assembly"],
        report.breakdown["test"],
        report.breakdown["scrap"],
        report.breakdown["nre"],
        report.root.yield_chip,
        report.root.quality_shipped,
        report.root.area,
        report.root.power,
        report.infeasible,
    ])
    return tuple(cells)


def run_sweep(base: ValidatedSystem, plan: SweepPlan,
              jobs: int = 1) -> list[tuple]:
    """All rows of the cartesian product, in declaration order.

    Points run serially whatever `jobs` asks for: a thread pool measured
    slower than one loop on every benchmark workload, since the points
    hold the interpreter lock. `jobs` is kept so callers need not change.
    """
    size = 1
    for axis in plan.axes:
        size *= len(axis.points)
        if size > MAX_SWEEP_POINTS:
            raise ValidationError(
                f"more than {MAX_SWEEP_POINTS} points once axis "
                f"'{axis.column}' joins the product", "sweep")
    validate_system(base.root, base.nets, base.library)
    reaches = tuple(_reaches_derive(axis) for axis in plan.axes)
    memo = _DeriveMemo()
    return [_evaluate_point(base, plan, reaches, memo, index)
            for index in itertools.product(*(range(len(axis.points))
                                             for axis in plan.axes))]


def sweep_to_csv(plan: SweepPlan, rows: list[tuple]) -> str:
    buf = io.StringIO()
    buf.write(f"# schema: chipcost-sweep-{SCHEMA_VERSION}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(sweep_columns(plan))
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    return buf.getvalue()

"""Parameter sweeps: scalar field axes and the homogeneous split axis.

A sweep is a cartesian product over axes, and points run one after
another. The models are frozen dataclasses: a point rebuilds the pieces
its values change and alters no other point's. Each axis is resolved
once, when it is built; a value it cannot apply at a point is refused
naming the axis.

Each axis has a stage, the earliest one its values change: TREE for a
chip or split axis, DERIVE for a library field marked "derive" in the
model, COST for any other library field. Points are visited
stage-major: the axes sorted by stage, stably, so TREE axes are
outermost and COST axes innermost, each group in declaration order. An
axis commutes with every axis of an earlier stage: the two set
different fields, a chip axis never reads the library, and apply_split
reads only the names of the IO cells. So every point holds what
applying its values to the base in declaration order gives. Rows and
their cells stay in declaration order, and a failing sweep reports the
first failing point in declaration order.

A point re-runs only what its values can change. run_sweep keeps a
stack of applied prefixes: entry k holds the library, tree, netlist and
row cells once the first k visited axes are applied. A point cuts the
stack back to the first axis whose value index moved, re-applies the
axes from there on, and re-runs every stage from the earliest stage of
those axes; the first point runs them all. TREE validates the whole
system; a later stage re-checks only the library entries the re-applied
axes name, in validate_library's order. TREE and DERIVE derive the tree
again, so each derived tree is built once. At COST a point re-costs only
the nodes whose subtree reads an entry a re-applied axis names (see
engine.evaluate), through a memo of its node costs kept when three or
more points share the tree.

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

from .derive import derive
from .engine import evaluate
from .errors import ConfigError, ValidationError
from .model import (LIBRARY_KINDS, ChipSpec, Library, NetSpec,
                    ValidatedSystem, check_fields, derive_fields,
                    field_kinds, validate_library, validate_system)
from .report import SCHEMA_VERSION, format_value
from .xmlio import (_Attrs, _parse_fields, _parse_xml, parse_number,
                    to_integer)

# Most points one sweep may hold, per range axis and over the whole
# cartesian product; both are checked before any point is built.
MAX_SWEEP_POINTS = 1_000_000
# Most tiles one <split> count may ask for: each point builds them all.
MAX_SPLIT_TILES = 16_384

# An axis's stage: the earliest one its values change (see above).
TREE, DERIVE, COST = range(3)

_TARGET_RE = re.compile(
    rf"^(?:library\.({'|'.join(LIBRARY_KINDS)})|system\.chip)"
    r"\[([^\]]+)\]\.(\w+)$")


@dataclass(frozen=True)
class FieldAxis:
    """A <param> axis. Its target is resolved when the axis is built into
    `kind` (the library tag or "chip"), `name` (the entry or chip name,
    "*" for every chip), `field`, `is_int` and `stage` (the earliest
    stage the field changes); a bad target, an unknown field or one that
    holds no number is refused there. Errors name `context`, which is
    "<param target>" unless the caller gives one."""

    target: str
    values: tuple[float, ...]
    context: str = dataclasses.field(default="", compare=False, repr=False)

    def __post_init__(self):
        ctx = self.context or f"<param {self.target}>"
        m = _TARGET_RE.match(self.target)
        if not m:
            raise ValidationError(f"bad target '{self.target}'", ctx)
        kind, name, field = m[1] or "chip", m[2], m[3]
        cls = ChipSpec if kind == "chip" else LIBRARY_KINDS[kind][1]
        if field not in field_kinds(cls):
            raise ValidationError(f"{kind} '{name}' has no field '{field}'",
                                  ctx)
        if field_kinds(cls)[field] not in (int, float):
            raise ValidationError(f"field '{field}' is not numeric", ctx)
        self.__dict__.update(
            context=ctx, kind=kind, name=name, field=field,
            is_int=field_kinds(cls)[field] is int,
            stage=TREE if kind == "chip" else
            DERIVE if field in derive_fields(cls) else COST)

    @property
    def column(self) -> str:
        return self.target

    @property
    def points(self) -> tuple[float, ...]:
        return self.values


@dataclass(frozen=True)
class SplitAxis:
    """A <split> element; its attributes are read and checked like the
    model's."""

    chip: str
    counts: tuple[int, ...]
    side_bandwidth: float = dataclasses.field(metadata={"check": "> 0"})
    io_type: str = dataclasses.field(metadata={"attr": "io"})
    external_prefix: str = dataclasses.field(default="edge",
                                             metadata={"attr": "external"})
    utilization: float = dataclasses.field(default=1.0,
                                           metadata={"check": "[0, 1]"})
    stage = TREE              # a split rebuilds the tree

    @property
    def context(self) -> str:
        return f"<split {self.chip}>"

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
            if (values is None) == (range_ is None):
                raise ValidationError(
                    "<param> needs exactly one of values or range", ctx)
            pts = (_parse_values(values, ctx) if values is not None
                   else _parse_range(range_, ctx))
            axes.append(FieldAxis(target=target, values=pts, context=ctx))
        elif elem.tag == "split":
            ctx = f"{path}: <split>"
            split = _parse_fields(SplitAxis, elem, ctx, counts=_parse_counts(
                elem.get("counts", ""), path))
            check_fields(split, ctx)
            axes.append(split)
        else:
            raise ValidationError(f"unknown sweep element <{elem.tag}>", path)
    if not axes:
        raise ValidationError("sweep defines no axes", path)
    return SweepPlan(axes=tuple(axes))


def _replace_in_tree(chip: ChipSpec, name: str,
                     change: dict) -> tuple[ChipSpec, int]:
    hits = 0
    children = []
    for c in chip.children:
        new_c, n = _replace_in_tree(c, name, change)
        children.append(new_c)
        hits += n
    matched = name == "*" or chip.name == name
    return (dataclasses.replace(chip, children=tuple(children),
                                **(change if matched else {})),
            hits + matched)


def apply_field(lib: Library, root: ChipSpec, nets: tuple[NetSpec, ...],
                axis: FieldAxis, value: float):
    """lib, root and nets with the axis's field set to value."""
    if axis.is_int:
        value = to_integer(value, f"field '{axis.field}'", axis.context)
    change = {axis.field: value}
    if axis.kind == "chip":
        root, hits = _replace_in_tree(root, axis.name, change)
        if hits == 0:
            raise ValidationError(
                f"no chip named '{axis.name}' in the system", axis.context)
        return lib, root, nets
    attr = LIBRARY_KINDS[axis.kind][0]
    table = dict(getattr(lib, attr))
    if axis.name not in table:
        raise ValidationError(
            f"no {axis.kind} named '{axis.name}' in the library",
            axis.context)
    table[axis.name] = dataclasses.replace(table[axis.name], **change)
    return dataclasses.replace(lib, **{attr: table}), root, nets


def apply_split(lib: Library, root: ChipSpec, nets: tuple[NetSpec, ...],
                axis: SplitAxis, n: int):
    """Replace the template chip with an m x m mesh of equal shares."""
    m = math.isqrt(n)
    if m * m != n:
        raise ValidationError(f"split count {n} is not a perfect square",
                              axis.context)

    template = next((c for c in root.walk() if c.name == axis.chip), None)
    if template is None:
        raise ValidationError(f"no chip named '{axis.chip}' to split",
                              axis.context)
    if template.children:
        raise ValidationError("the split template must be a leaf chip",
                              axis.context)
    if axis.io_type not in lib.ios:
        raise ValidationError(f"unknown io type '{axis.io_type}'",
                              axis.context)

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
        raise ValidationError("cannot split the root chip", axis.context)
    new_root = rebuild(root)

    link_bw = axis.side_bandwidth / m
    new_nets = [x for x in nets
                if x.source != axis.chip and x.dest != axis.chip]
    links = (*((tile_name(r, c), tile_name(r, c + 1))
               for r in range(m) for c in range(m - 1)),
             *((tile_name(r, c), tile_name(r + 1, c))
               for c in range(m) for r in range(m - 1)),
             *((tile_name(r, c), f"{axis.external_prefix}_{side}{i}")
               for i in range(m)
               for side, (r, c) in (("w", (i, 0)), ("e", (i, m - 1)),
                                    ("n", (0, i)), ("s", (m - 1, i)))))
    new_nets.extend(NetSpec(source=src, dest=dst, io_type=axis.io_type,
                            bandwidth=link_bw, utilization=axis.utilization)
                    for src, dst in links)
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


def run_sweep(base: ValidatedSystem, plan: SweepPlan,
              jobs: int = 1) -> list[tuple]:
    """All rows of the cartesian product, each at its declaration-order
    position with its cells in declaration order, visited stage-major
    as the module docstring describes. If that walk fails, the same walk
    runs again in declaration order, so the error is the one the first
    failing point in declaration order raises.

    Points run serially whatever `jobs` asks for: a thread pool measured
    slower than one loop on every benchmark workload, since the points
    hold the interpreter lock. `jobs` is kept so callers need not change.
    """
    if not plan.axes:
        raise ValidationError("sweep defines no axes", "sweep")
    size = 1
    for axis in plan.axes:
        check_fields(axis, axis.context)
        size *= len(axis.points)
        if size > MAX_SWEEP_POINTS:
            raise ValidationError(
                f"more than {MAX_SWEEP_POINTS} points once axis "
                f"'{axis.column}' joins the product", "sweep")
    order = sorted(range(len(plan.axes)), key=lambda k: plan.axes[k].stage)
    try:
        return _walk(base, plan, order)
    except ConfigError:
        if order == sorted(order):
            raise
    return _walk(base, plan, range(len(plan.axes)))


def _walk(base: ValidatedSystem, plan: SweepPlan,
          order: list[int] | range) -> list[tuple]:
    """run_sweep's rows, visiting the product with plan.axes[order[0]]
    outermost, on the stack of applied prefixes. Values are compared by
    index, since 0.0 == -0.0."""
    axes = [plan.axes[k] for k in order]
    # a row's position: its value indices in declaration order
    stride = [math.prod(len(a.points) for a in plan.axes[k + 1:])
              for k in order]
    # the declaration index of each cell in visiting order (a split has
    # two); a stable sort by it puts a row's cells in declaration order
    owner = [k for k in order
             for _ in range(1 + isinstance(plan.axes[k], SplitAxis))]
    perm = sorted(range(len(owner)), key=owner.__getitem__)
    # the earliest stage a point re-runs once it re-applies axes[k:]
    floor = [min(a.stage for a in axes[k:]) for k in range(len(axes))]
    # points in a row that share one derived tree: a memo of its node
    # costs, filled at the second, pays only from the third
    share = math.prod(len(a.points) for a in itertools.takewhile(
        lambda a: a.stage == COST, reversed(axes)))
    # prefix[k]: (library, root, nets, cells, row position) once the
    # first k axes apply
    prefix = [(base.library, base.root, base.nets, (), 0)]
    last = (None,) * len(axes)
    tree = memo = None
    rows = [None] * math.prod(len(a.points) for a in axes)
    for n, index in enumerate(itertools.product(
            *(range(len(a.points)) for a in axes))):
        start = next(k for k, (i, was) in enumerate(zip(index, last))
                     if i != was)
        stage = floor[start] if n else TREE
        del prefix[start + 1:]
        lib, root, nets, cells, pos = prefix[start]
        entries = {}    # the entries the re-applied library axes name
        for axis, i, step in zip(axes[start:], index[start:],
                                 stride[start:]):
            value = axis.points[i]
            pos += i * step
            if isinstance(axis, FieldAxis):
                lib, root, nets = apply_field(lib, root, nets, axis, value)
                cells += (value,)
                if axis.kind != "chip":
                    entries[axis.kind, axis.name] = None
            else:
                lib, split, nets = apply_split(lib, root, nets, axis, value)
                cells += (value, next(c.core_area for c in root.walk()
                                      if c.name == axis.chip) / value)
                root = split
            prefix.append((lib, root, nets, cells, pos))
        if stage == TREE:
            system = validate_system(root, nets, lib)
        else:
            system = ValidatedSystem(root=root, nets=nets,
                                     library=validate_library(lib, entries))
        if stage <= DERIVE:
            # drop the old tree first: two large ones are never held
            tree = None
            tree = derive(system)
            memo = None
        elif memo is None and share >= 3:
            memo = {}
        last = index
        rows[pos] = _row(
            map(cells.__getitem__, perm),
            evaluate(dataclasses.replace(tree, system=system), memo=memo,
                     moved=entries))
    return rows


def _row(cells, report) -> tuple:
    """One CSV row; the report is dropped once it is built, so two large
    ones are never held."""
    return (*cells, report.cost_total, *report.breakdown.values(),
            report.root.yield_chip, report.root.quality_shipped,
            report.root.area, report.root.power, report.infeasible)


def sweep_to_csv(plan: SweepPlan, rows: list[tuple]) -> str:
    buf = io.StringIO()
    buf.write(f"# schema: chipcost-sweep-{SCHEMA_VERSION}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(sweep_columns(plan))
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    return buf.getvalue()

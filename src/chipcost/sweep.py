"""Parameter sweeps: scalar field axes and the homogeneous split axis.

A sweep is a cartesian product over axes. The models are never
altered after build: a point rebuilds the pieces its values change and
alters no other point's. Each axis is resolved and its values checked
once, when it is built; a value it cannot apply at a point is refused
naming the axis. An axis answers for itself: when built it sets
`points` (its values), `columns` (the row cells it adds), `entries`
(the library (kind, name) pairs its values move) and `stage`, and
apply(lib, root, nets, value) returns the three with the value
applied, plus the cells.

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

Points run in this process alone unless run_sweep is given jobs > 1:
then the values of the outermost visited axis are dealt round-robin to
forked processes, each walking its values as above (see run_sweep). The
rows are byte-identical at every jobs.

The split axis divides one template chip into an n = m x m mesh of equal
chiplets. Every mesh link and every boundary stub carries the template's
side bandwidth divided by m, which keeps the total bandwidth crossing
the original die boundary constant at any split.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import os
import re
import threading
from dataclasses import dataclass

from .derive import derive
from .engine import evaluate
from .errors import ValidationError
from .model import (_LEAF_INPUTS, LIBRARY_KINDS, ChipSpec, Library,
                    NetSpec, ValidatedSystem, check_fields, derive_fields,
                    field_kinds, validate_library, validate_system)
from .report import csv_text, format_value
from .xmlio import (_attr, _parse_fields, _parse_xml, _refuse_unknown,
                    parse_number, to_integer)

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


@dataclass(unsafe_hash=True)
class FieldAxis:
    """A <param> axis. Its target is resolved when the axis is built into
    `kind` (the library tag or "chip"), `entry` (the entry or chip name,
    "*" for every chip), `field`, `is_int` and `stage` (the earliest
    stage the field changes); a bad target, an unknown field or one that
    holds no number is refused there, as is an empty value list, a value
    that is not finite or one an int field cannot hold. The values are
    kept as given, as `points`; the one column is the target, and a
    library target is the one entry. Errors name `context`, which is
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
        if not self.values:
            raise ValidationError("values list is empty", ctx)
        is_int = field_kinds(cls)[field] is int
        for v in self.values:
            if not math.isfinite(v):
                raise ValidationError(f"value must be finite, got {v}", ctx)
            if is_int:
                to_integer(v, f"field '{field}'", ctx)
        self.context, self.kind, self.entry = ctx, kind, name
        self.field, self.is_int = field, is_int
        self.stage = (TREE if kind == "chip" else
                      DERIVE if field in derive_fields(cls) else COST)
        self.points, self.columns = self.values, (self.target,)
        self.entries = () if kind == "chip" else ((kind, name),)

    def apply(self, lib, root, nets, value):
        return (*apply_field(lib, root, nets, self, value), (value,))


@dataclass(unsafe_hash=True)
class SplitAxis:
    """A <split> element; its attributes are read and checked like the
    model's when it is built. `counts` must be a non-empty list of whole
    perfect squares of at most MAX_SPLIT_TILES tiles, and is kept as
    ints, as `points`. Its columns are the count and the template's core
    area per tile; it moves no entry. Errors name `context`, which is
    "<split chip>" unless the caller gives one."""

    chip: str
    counts: tuple[int, ...]
    side_bandwidth: float = dataclasses.field(metadata={"check": "> 0"})
    io_type: str = dataclasses.field(metadata={"attr": "io"})
    external_prefix: str = dataclasses.field(default="edge",
                                             metadata={"attr": "external"})
    utilization: float = dataclasses.field(default=1.0,
                                           metadata={"check": "[0, 1]"})
    context: str = dataclasses.field(default="", compare=False, repr=False,
                                     metadata={"attr": None})
    stage = TREE              # a split rebuilds the tree
    entries = ()              # and moves no library entry

    def __post_init__(self):
        ctx = self.context or f"<split {self.chip}>"
        if not self.counts:
            raise ValidationError("<split> needs counts", ctx)
        for n in self.counts:
            if n > MAX_SPLIT_TILES:
                raise ValidationError(
                    f"<split> count {format_value(n)} is more than "
                    f"{MAX_SPLIT_TILES} tiles", ctx)
            if not n >= 1 or n != int(n) or math.isqrt(int(n)) ** 2 != n:
                raise ValidationError(
                    "<split> counts must be perfect squares, got "
                    f"{format_value(n)}", ctx)
        check_fields(self, ctx)
        self.context = ctx
        self.counts = self.points = tuple(int(n) for n in self.counts)
        self.columns = (f"split.{self.chip}", f"{self.chip}.core_area_each")

    def apply(self, lib, root, nets, n):
        split = apply_split(lib, root, nets, self, n)
        area = next(c.core_area for c in root.walk() if c.name == self.chip)
        return (*split, (n, area / n))


@dataclass(slots=True, unsafe_hash=True)
class SweepPlan:
    axes: tuple[FieldAxis | SplitAxis, ...]


def _parse_values(text: str, context: str,
                  what: str = "value") -> tuple[float, ...]:
    return tuple(parse_number(v.strip(), what, context)
                 for v in text.split(",") if v.strip())


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


def parse_sweep(path: str) -> SweepPlan:
    root = _parse_xml(path, "sweep")
    _refuse_unknown(root, (), f"{path}: <sweep>")
    axes: list[FieldAxis | SplitAxis] = []
    for elem in root:
        if elem.tag == "param":
            ctx = f"{path}: <param {elem.get('target', '?')}>"
            target = _attr(elem, "target", str, True, ctx)
            values = _attr(elem, "values", str, False, ctx)
            range_ = _attr(elem, "range", str, False, ctx)
            _refuse_unknown(elem, ("target", "values", "range"), ctx)
            if (values is None) == (range_ is None):
                raise ValidationError(
                    "<param> needs exactly one of values or range", ctx)
            pts = (_parse_values(values, ctx) if values is not None
                   else _parse_range(range_, ctx))
            axes.append(FieldAxis(target=target, values=pts, context=ctx))
        elif elem.tag == "split":
            ctx = f"{path}: <split {elem.get('chip', '?')}>"
            counts = _attr(elem, "counts", str, True, ctx)
            axes.append(_parse_fields(
                SplitAxis, elem, ctx, context=ctx,
                counts=_parse_values(counts, ctx, "<split> count")))
        else:
            raise ValidationError(f"unknown sweep element <{elem.tag}>", path)
    if not axes:
        raise ValidationError("sweep defines no axes", path)
    return SweepPlan(axes=tuple(axes))


def _rewrite(chip: ChipSpec, name: str,
             swap) -> tuple[tuple[ChipSpec, ...], int]:
    """chip's tree rewritten bottom-up, each chip named `name` ("*":
    every chip) replaced by the chips swap(chip, its rewritten children)
    returns: the chips that stand for `chip`, and the swap count."""
    hits, children = 0, []
    for c in chip.children:
        new, n = _rewrite(c, name, swap)
        children.extend(new)
        hits += n
    if name == "*" or chip.name == name:
        return swap(chip, tuple(children)), hits + 1
    return (dataclasses.replace(chip, children=tuple(children)),), hits


def apply_field(lib: Library, root: ChipSpec, nets: tuple[NetSpec, ...],
                axis: FieldAxis, value: float):
    """lib, root and nets with the axis's field set to value."""
    if axis.is_int:
        value = int(value)      # a whole number, checked when built
    change = {axis.field: value}
    if axis.kind == "chip":
        (root,), hits = _rewrite(root, axis.entry, lambda c, children: (
            dataclasses.replace(c, children=children, **change),))
        if hits == 0:
            raise ValidationError(
                f"no chip named '{axis.entry}' in the system", axis.context)
        return lib, root, nets
    attr = LIBRARY_KINDS[axis.kind][0]
    table = dict(getattr(lib, attr))
    if axis.entry not in table:
        raise ValidationError(
            f"no {axis.kind} named '{axis.entry}' in the library",
            axis.context)
    table[axis.entry] = dataclasses.replace(table[axis.entry], **change)
    return dataclasses.replace(lib, **{attr: table}), root, nets


def apply_split(lib: Library, root: ChipSpec, nets: tuple[NetSpec, ...],
                axis: SplitAxis, n: int):
    """Replace the template chip with an m x m mesh of equal shares: each
    tile takes 1/n of its core and black-box area and power and n times
    its quantity. Refused, in this order: no template, a template with
    children, an unknown io type, a template that is the root, an edge
    stub named like another chip in the tree (a tile cannot be: its
    name ends in digits, a stub's in a side letter and a digit)."""
    m = math.isqrt(n)
    # tile (r, c) is names[r * m + c]
    names = [f"{axis.chip}_{r}_{c}" for r in range(m) for c in range(m)]

    def share(value: float | None) -> float | None:
        return None if value is None else value / n

    def tiles(template: ChipSpec, children: tuple) -> tuple[ChipSpec, ...]:
        if children:
            raise ValidationError("the split template must be a leaf chip",
                                  axis.context)
        # one divided tile; each named tile takes its fields after the name
        rest = _LEAF_INPUTS(dataclasses.replace(
            template,
            core_area=template.core_area / n,
            core_power=template.core_power / n,
            black_box_area=share(template.black_box_area),
            black_box_power=share(template.black_box_power),
            quantity=template.quantity * n))
        return tuple(ChipSpec(name, *rest) for name in names)

    roots, hits = _rewrite(root, axis.chip, tiles)
    if hits == 0:
        raise ValidationError(f"no chip named '{axis.chip}' to split",
                              axis.context)
    if axis.io_type not in lib.ios:
        raise ValidationError(f"unknown io type '{axis.io_type}'",
                              axis.context)
    if root.name == axis.chip:
        raise ValidationError("cannot split the root chip", axis.context)
    # each edge stub, with the index in names of the tile it leaves
    stubs = {f"{axis.external_prefix}_{side}{i}": k
             for i in range(m)
             for side, k in (("w", i * m), ("e", i * m + m - 1),
                             ("n", i), ("s", (m - 1) * m + i))}
    for chip in root.walk():
        if chip.name in stubs and chip.name != axis.chip:
            raise ValidationError(
                f"external endpoint '{chip.name}' is a chip in the system",
                axis.context)

    link_bw = axis.side_bandwidth / m
    new_nets = [x for x in nets
                if x.source != axis.chip and x.dest != axis.chip]
    # links along each row, then down each column, then the edge stubs;
    # k is a tile's index in names
    links = (*((names[k], names[k + 1])
               for r in range(m) for k in range(r * m, r * m + m - 1)),
             *((names[k], names[k + m])
               for c in range(m) for k in range(c, c + (m - 1) * m, m)),
             *((names[k], stub) for stub, k in stubs.items()))
    # source, dest, io_type, bandwidth, count, utilization
    new_nets.extend(NetSpec(src, dst, axis.io_type, link_bw, None,
                            axis.utilization)
                    for src, dst in links)
    return lib, roots[0], tuple(new_nets)


OUTPUT_COLUMNS = ("cost_total", "cost_silicon", "cost_assembly", "cost_test",
                  "cost_scrap", "cost_nre", "yield_chip", "quality_shipped",
                  "area_mm2", "power_w", "infeasible")


def sweep_columns(plan: SweepPlan) -> tuple[str, ...]:
    return (*(c for axis in plan.axes for c in axis.columns),
            *OUTPUT_COLUMNS)


def run_sweep(base: ValidatedSystem, plan: SweepPlan,
              jobs: int = 1) -> list[tuple]:
    """All rows of the cartesian product, each at its declaration-order
    position with its cells in declaration order, visited stage-major
    as the module docstring describes, in up to `jobs` processes.

    The n values of the outermost visited axis are dealt round-robin to
    w = min(jobs, usable CPUs, n) processes: process k walks the value
    indices range(k, n, w). This process is k = 0 and forks the others;
    w is 1, and nothing is forked, where os.fork is missing and in a
    process with other threads (forking one can deadlock). The rows are
    put back by position and are byte-identical at every w. If any
    process fails, every result is dropped and the product is walked
    again here in declaration order, so the error is the one the first
    failing point in declaration order raises.
    """
    if not plan.axes:
        raise ValidationError("sweep defines no axes", "sweep")
    size = 1
    for axis in plan.axes:
        size *= len(axis.points)
        if size > MAX_SWEEP_POINTS:
            raise ValidationError(
                f"more than {MAX_SWEEP_POINTS} points once axis "
                f"'{axis.columns[0]}' joins the product", "sweep")
    order = sorted(range(len(plan.axes)), key=lambda k: plan.axes[k].stage)
    try:
        return _dealt_walk(base, plan, order, jobs)
    except Exception:
        pass    # the walk below raises the first failing point's error
    return _walk(base, plan, range(len(plan.axes)))


def _dealt_walk(base: ValidatedSystem, plan: SweepPlan, order: list[int],
                jobs: int) -> list[tuple]:
    """run_sweep's rows, its outer values dealt to w processes as it
    describes; raises if any process fails. Each child pickles its rows
    into a pipe and leaves by os._exit, writing nothing else; every
    child is killed if this process's walk fails, and reaped before
    this returns or raises."""
    n = len(plan.axes[order[0]].points)
    w = min(jobs, n, len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    if w < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        w = 1
    else:
        import pickle
        import signal
    children, rows = [], None       # children: [rows pipe, pid]
    try:
        for k in range(1, w):
            read, write = os.pipe()
            children.append([open(read, "rb"), None])
            with open(write, "wb") as out:
                children[-1][1] = pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        pickle.dump(_walk(base, plan, order, range(k, n, w)),
                                    out, pickle.HIGHEST_PROTOCOL)
                        out.flush()
                        code = 0
                    finally:
                        os._exit(code)
        rows = _walk(base, plan, order, range(0, n, w))
    finally:
        if rows is None:
            for _, pid in children:
                if pid:
                    os.kill(pid, signal.SIGKILL)
        parts = []
        for fh, pid in children:
            with fh:
                part = fh.read()
            parts.append(pid and os.waitpid(pid, 0)[1] == 0 and part)
    if not all(parts):
        raise ChildProcessError("a sweep process failed")
    for part in parts:
        rows = [r if r is not None else p
                for r, p in zip(rows, pickle.loads(part))]
    return rows


def _walk(base: ValidatedSystem, plan: SweepPlan, order: list[int] | range,
          span: range | None = None) -> list[tuple]:
    """run_sweep's rows, visiting the product with plan.axes[order[0]]
    outermost, on the stack of applied prefixes; only the values of that
    axis at the indices in `span` (all by default), the other rows None.
    Values are compared by index, since 0.0 == -0.0."""
    axes = [plan.axes[k] for k in order]
    # a row's position: its value indices in declaration order
    stride = [math.prod(len(a.points) for a in plan.axes[k + 1:])
              for k in order]
    # the declaration index of each cell in visiting order; a stable
    # sort by it puts a row's cells in declaration order
    owner = [k for k in order for _ in plan.axes[k].columns]
    perm = sorted(range(len(owner)), key=owner.__getitem__)
    # the earliest stage a point re-runs once it re-applies axes[k:]
    floor = [min(a.stage for a in axes[k:]) for k in range(len(axes))]
    # points in a row that share one derived tree: a memo of its node
    # costs is filled at the first and pays from the second, but for two
    # points filling it costs more than the second saves
    share = math.prod(len(a.points) for a in itertools.takewhile(
        lambda a: a.stage == COST, reversed(axes)))
    # prefix[k]: (library, root, nets, cells, row position) once the
    # first k axes apply
    prefix = [(base.library, base.root, base.nets, (), 0)]
    last = (None,) * len(axes)
    tree = memo = None
    rows = [None] * math.prod(len(a.points) for a in axes)
    for n, index in enumerate(itertools.product(
            span or range(len(axes[0].points)),
            *(range(len(a.points)) for a in axes[1:]))):
        start = next(k for k, (i, was) in enumerate(zip(index, last))
                     if i != was)
        stage = floor[start] if n else TREE
        del prefix[start + 1:]
        lib, root, nets, cells, pos = prefix[start]
        entries = {}    # the entries the re-applied library axes name
        for axis, i, step in zip(axes[start:], index[start:],
                                 stride[start:]):
            pos += i * step
            lib, root, nets, new = axis.apply(lib, root, nets, axis.points[i])
            cells += new
            entries.update(dict.fromkeys(axis.entries))
            prefix.append((lib, root, nets, cells, pos))
        if stage == TREE:
            system = validate_system(root, nets, lib)
        else:
            system = ValidatedSystem(root=root, nets=nets,
                                     library=validate_library(lib, entries))
        if stage <= DERIVE:
            # drop the old tree and its memo first: two large ones are
            # never held
            tree = memo = None
            tree = derive(system)
            memo = {} if share >= 3 else None
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
    return csv_text("sweep", sweep_columns(plan),
                    (map(format_value, row) for row in rows))

"""Independent reference implementations used to cross-check the kernels.

Everything here is deliberately written by a different route than the
library code: explicit cell enumeration with corner-in-circle tests
instead of analytic chord arithmetic, and set-based adjacency counting
instead of closed-form stitch formulas.

The exception is the pair of naive packers (`naive_grid_packing`,
`naive_free_packing`): they keep the library's float arithmetic but
take the slow, obvious route (every row recounted for every grid
phase) and also return the per-column or per-row layout, so the fast
kernels must match them exactly.

`evaluate_exact` reruns evaluate's formulas in exact rational arithmetic,
so each float figure can be held to a stated error bound.

`report_dict` builds the eval JSON document as one plain dict, which
json.dumps(indent=2) writes through json's pure-Python encoder; the
library's C-encoded records must give the same bytes.
"""
import math

import numpy as np

# Slop on r^2 comparisons: admits corners that touch the boundary up to
# float noise, rejects genuine overshoot (fixtures use >= 1e-3 mm steps).
_TOL = 1e-6

# The library's boundary tolerance, for the naive packers that copy its
# arithmetic.
_EPS = 1e-9


def _cells_inside(r: float, px: float, py: float,
                  x0: float, y0: float) -> int:
    """Cells of the grid anchored at (x0, y0) whose four corners all lie
    inside the circle of radius r, counted by explicit enumeration."""
    r2 = r * r + _TOL
    js = np.arange(math.floor((-r - x0) / px) - 1,
                   math.ceil((r - x0) / px) + 1)
    iv = np.arange(math.floor((-r - y0) / py) - 1,
                   math.ceil((r - y0) / py) + 1)
    xl = x0 + js * px
    xr = xl + px
    yb = y0 + iv * py
    yt = yb + py
    wx = np.maximum(np.abs(xl), np.abs(xr))[None, :]
    wy = np.maximum(np.abs(yb), np.abs(yt))[:, None]
    return int(np.count_nonzero(wx * wx + wy * wy <= r2))


def grid_family_oracle(die_x: float, die_y: float, diameter: float,
                       exclusion: float, sx: float, sy: float) -> int:
    """Best corner-checked count over first-column heights h = 1, 2, ...

    Same placement family as the production grid packer, independent
    counting route.
    """
    r = diameter / 2.0 - exclusion
    px, py = die_x + sx, die_y + sy
    if r <= 0.0 or die_x <= 0.0 or die_y <= 0.0:
        return 0
    best = 0
    h = 1
    while h * py / 2.0 <= r + 1e-9:
        y0 = -h * py / 2.0
        x0 = -math.sqrt(max(0.0, r * r - y0 * y0))
        best = max(best, _cells_inside(r, px, py, x0, y0))
        h += 1
    return best


def origin_sweep_oracle(die_x: float, die_y: float, diameter: float,
                        exclusion: float, sx: float, sy: float,
                        step: float = 0.05) -> int:
    """Best corner-checked count over grid origins swept across one cell.

    A cell [xl, xl+px] x [yb, yb+py] is inside iff its worst corner is,
    i.e. wx^2 + wy^2 <= r^2; for a fixed x-origin the per-row counts are
    #{j : wx_j^2 <= r^2 - wy^2}, found against the sorted wx^2 values.
    """
    r = diameter / 2.0 - exclusion
    px, py = die_x + sx, die_y + sy
    if r <= 0.0 or die_x <= 0.0 or die_y <= 0.0:
        return 0
    r2 = r * r + _TOL
    oys = np.arange(0.0, py + step / 2.0, step)
    iv = np.arange(math.floor(-r / py) - 2, math.ceil(r / py) + 2)
    js = np.arange(math.floor(-r / px) - 2, math.ceil(r / px) + 2)
    yb = oys[:, None] + iv[None, :] * py
    wy2 = np.maximum(np.abs(yb), np.abs(yb + py)) ** 2
    best = 0
    for ox in np.arange(0.0, px + step / 2.0, step):
        xl = ox + js * px
        wx2 = np.sort(np.maximum(np.abs(xl), np.abs(xl + px)) ** 2)
        counts = np.searchsorted(wx2, r2 - wy2, side="right")
        best = max(best, int(counts.sum(axis=1).max()))
    return best


def free_rows_oracle(die_x: float, die_y: float, diameter: float,
                     exclusion: float, sx: float, sy: float) -> int:
    """Row-by-row packing, each row verified by corner placement.

    A row of k dies centered on the chord fits iff the outermost corners
    (k*px/2, y_worse) are inside the circle; k is found by direct search
    instead of the closed-form floor.
    """
    r = diameter / 2.0 - exclusion
    px, py = die_x + sx, die_y + sy
    if r <= 0.0 or die_x <= 0.0 or die_y <= 0.0:
        return 0
    r2 = r * r + _TOL

    def row_fit(y_worse: float) -> int:
        if y_worse * y_worse > r2:
            return 0
        k = 0
        while (((k + 1) * px / 2.0) ** 2 + y_worse * y_worse) <= r2:
            k += 1
        return k

    on_diameter = 0
    k = 0
    while True:
        cap = row_fit((k + 1) * py)
        if cap <= 0:
            break
        on_diameter += cap
        k += 1
    on_diameter *= 2

    centered = row_fit(py / 2.0)
    if centered > 0:
        k = 0
        while True:
            cap = row_fit(py / 2.0 + (k + 1) * py)
            if cap <= 0:
                break
            centered += 2 * cap
            k += 1

    return max(on_diameter, centered)


def _naive_grid_rows(r: float, pitch_x: float, pitch_y: float,
                     x0: float, y0: float):
    """(first column, die count) of each row of the grid with origin
    (x0, y0) whose cells lie fully inside radius r, bottom to top."""
    i_lo = math.ceil((-r - y0) / pitch_y - _EPS)
    i_hi = math.floor((r - y0) / pitch_y + _EPS) - 1
    r2 = r * r
    for i in range(i_lo, i_hi + 1):
        y_bot = y0 + i * pitch_y
        y_top = y_bot + pitch_y
        y_worst = max(abs(y_bot), abs(y_top))
        rem = r2 - y_worst * y_worst
        if rem < -_EPS * r2:
            continue
        half = math.sqrt(max(0.0, rem))
        j_lo = math.ceil((-half - x0) / pitch_x - _EPS)
        j_hi = math.floor((half - x0) / pitch_x + _EPS) - 1
        if j_hi >= j_lo:
            yield j_lo, j_hi - j_lo + 1


def naive_grid_packing(die_x: float, die_y: float, wafer_diameter: float,
                       edge_exclusion: float, scribe_x: float,
                       scribe_y: float) -> tuple[int, tuple[int, ...]]:
    """The O(H x R) grid packer: every first-column height h recounts
    every row. Returns the best count and, for the first h reaching it,
    the per-column die counts left to right. Same float arithmetic as
    the library kernel, so the counts must agree exactly."""
    r = wafer_diameter / 2.0 - edge_exclusion
    pitch_x = die_x + scribe_x
    pitch_y = die_y + scribe_y
    if r <= 0.0 or pitch_x <= 0.0 or pitch_y <= 0.0:
        return 0, ()
    if die_x <= 0.0 or die_y <= 0.0:
        return 0, ()
    best = 0
    best_seed = None
    h_max = int(2.0 * r / pitch_y + _EPS)
    for h in range(1, h_max + 1):
        half_height = h * pitch_y / 2.0
        if half_height > r * (1.0 + _EPS):
            break
        x0 = -math.sqrt(max(0.0, r * r - half_height * half_height))
        n = sum(k for _, k in _naive_grid_rows(r, pitch_x, pitch_y, x0,
                                               -half_height))
        if n > best:
            best = n
            best_seed = (x0, -half_height)
    if best_seed is None:
        return 0, ()
    columns: dict[int, int] = {}
    for j_lo, k in _naive_grid_rows(r, pitch_x, pitch_y, *best_seed):
        for j in range(j_lo, j_lo + k):
            columns[j] = columns.get(j, 0) + 1
    return best, tuple(columns[j] for j in sorted(columns))


def _row_capacity(r: float, pitch_x: float, y_worst: float) -> int:
    rem = r * r - y_worst * y_worst
    if rem < 0.0:
        return 0
    return int(math.floor(2.0 * math.sqrt(rem) / pitch_x + _EPS))


def naive_free_packing(die_x: float, die_y: float, wafer_diameter: float,
                       edge_exclusion: float, scribe_x: float,
                       scribe_y: float) -> tuple[int, tuple[int, ...]]:
    """The free-dicing packer with its per-row layout, bottom to top:
    rows on the diameter (mirrored below) against a first row centered
    on it; the better seeding wins."""
    r = wafer_diameter / 2.0 - edge_exclusion
    pitch_x = die_x + scribe_x
    pitch_y = die_y + scribe_y
    if r <= 0.0 or pitch_x <= 0.0 or pitch_y <= 0.0:
        return 0, ()
    if die_x <= 0.0 or die_y <= 0.0:
        return 0, ()

    def stack(offset: float) -> list[int]:
        caps = []
        while True:
            cap = _row_capacity(r, pitch_x,
                                offset + (len(caps) + 1) * pitch_y)
            if cap <= 0:
                return caps
            caps.append(cap)

    on = stack(0.0)
    layout_on = tuple(reversed(on)) + tuple(on)
    center = _row_capacity(r, pitch_x, pitch_y / 2.0)
    above = stack(pitch_y / 2.0) if center > 0 else []
    layout_centered = (tuple(reversed(above)) + (center,) + tuple(above)
                       if center > 0 else ())
    if sum(layout_on) >= sum(layout_centered):
        return sum(layout_on), layout_on
    return sum(layout_centered), layout_centered


def stitch_layout_edges(n: int) -> int:
    """Shared internal edges of the square-block-plus-boundary-runs layout,
    counted on an explicit cell set."""
    if n <= 1:
        return 0
    s = math.isqrt(n)
    cells = {(i, j) for i in range(s) for j in range(s)}
    rest = n - s * s
    for i in range(min(rest, s)):          # run up the right side
        cells.add((i, s))
    for j in range(rest - s):              # then along the top
        cells.add((s, j))
    assert len(cells) == n
    edges = 0
    for (i, j) in cells:
        if (i + 1, j) in cells:
            edges += 1
        if (i, j + 1) in cells:
            edges += 1
    return edges


def naive_net_tally(root, nets, library):
    """Per-chip net sums by scanning every net once per chip, with the
    crossing pads of a subtree found by testing both endpoints of each
    internal net for membership. O(chips x nets); each chip's cell area
    adds the summed internal instances first, then the external nets, and
    every other float sum runs in net order, so the result must equal the
    one-pass tally exactly."""
    from chipcost.derive import NetTally, net_instances

    names = {c.name for c in root.walk()}

    def internal(net):
        return net.source in names and net.dest in names

    def resolving(net):
        return net.source if net.source in names else net.dest

    def instances(net):
        return net_instances(net, library.ios[net.io_type])

    matrices = {}
    for net in nets:
        if internal(net):
            m = matrices.setdefault(net.io_type, {})
            key = (net.source, net.dest)
            m[key] = m.get(key, 0) + instances(net)

    def area_of(name):
        area = 0.0
        for io_name, m in matrices.items():
            io = library.ios[io_name]
            for (src, dst), inst in m.items():
                if io.bidirectional:
                    if name in (src, dst):
                        area += (io.tx_area + io.receiver_area) * inst
                else:
                    if src == name:
                        area += io.tx_area * inst
                    if dst == name:
                        area += io.receiver_area * inst
        for net in nets:
            if not internal(net) and resolving(net) == name:
                io = library.ios[net.io_type]
                if io.bidirectional:
                    area += (io.tx_area + io.receiver_area) * instances(net)
                elif net.source == name:
                    area += io.tx_area * instances(net)
                else:
                    area += io.receiver_area * instances(net)
        return area

    def power_of(name):
        power = 0.0
        for net in nets:
            if name not in (net.source, net.dest):
                continue
            if not internal(net) and resolving(net) != name:
                continue
            io = library.ios[net.io_type]
            bandwidth = (net.bandwidth if net.bandwidth is not None
                         else net.count * io.bandwidth)
            power += (io.energy_per_bit * bandwidth * net.utilization
                      * 1e-3)
        return power

    def pads_where(keep):
        out = {}
        for net in nets:
            if keep(net):
                pads = (instances(net)
                        * library.ios[net.io_type].wires_per_instance)
                out[net.io_type] = out.get(net.io_type, 0) + pads
        return out

    def crossing_of(chip):
        inside = {c.name for c in chip.walk()}
        return pads_where(lambda net: internal(net) and (
            (net.source in inside) != (net.dest in inside)))

    def external_of(name):
        return pads_where(
            lambda net: not internal(net) and resolving(net) == name)

    chips = list(root.walk())
    return NetTally(
        area_io={c.name: area_of(c.name) for c in chips},
        power_io={c.name: power_of(c.name) for c in chips},
        external_pads={c.name: external_of(c.name) for c in chips},
        crossing_pads={c.name: crossing_of(c) for c in chips},
        matrices=matrices)


def derive_without_memo(system):
    """The derived system with every chip derived in full: derive_chip
    called without a leaf memo, so no leaf copies another's figures."""
    from chipcost.derive import DerivedSystem, derive_chip, tally_nets

    tally = tally_nets(system.root, system.nets, system.library)
    root = derive_chip(system.root, tally, system.library, None)
    return DerivedSystem(system=system, matrices=tally.matrices, root=root)


def evaluate_in_full(system):
    """The cost report with every chip derived and costed in full: no leaf
    of derive_without_memo has a twin, so evaluate costs each one."""
    from chipcost.engine import evaluate

    return evaluate(derive_without_memo(system))


def derived_differences(a, b) -> list:
    """(chip, field) of each figure whose repr differs between two derived
    trees, pre-order; repr tells -0.0 from 0.0, which == does not. The
    specs must be the same objects. A copied leaf's twin is a link, not
    a figure, so it is not compared."""
    import dataclasses
    import itertools

    from chipcost.derive import DerivedChip

    names = [f.name for f in dataclasses.fields(DerivedChip)
             if f.name not in ("spec", "children", "twin")]
    out = []
    for x, y in itertools.zip_longest(a.walk(), b.walk()):
        if x is None or y is None or x.spec is not y.spec:
            return out + [((x or y).spec.name, "spec")]
        out += [(x.spec.name, n) for n in names
                if repr(getattr(x, n)) != repr(getattr(y, n))]
    return out


def naive_sweep(base, plan):
    """Every row of a sweep by the plain per-point pipeline: each point's
    values applied to the base, then validate_system, derive and evaluate
    from scratch, every leaf in full. run_sweep must match it row for
    row."""
    import itertools

    from chipcost.model import validate_system
    from chipcost.sweep import FieldAxis, apply_field, apply_split

    rows = []
    for point in itertools.product(*(axis.points for axis in plan.axes)):
        lib, root, nets = base.library, base.root, base.nets
        cells = []
        for axis, value in zip(plan.axes, point):
            cells.append(value)
            if isinstance(axis, FieldAxis):
                lib, root, nets = apply_field(lib, root, nets, axis, value)
            else:
                area = next(c.core_area for c in root.walk()
                            if c.name == axis.chip)
                lib, root, nets = apply_split(lib, root, nets, axis, value)
                cells.append(area / value)
        report = evaluate_in_full(validate_system(root, nets, lib))
        cells.extend([report.cost_total, *report.breakdown.values(),
                      report.root.yield_chip, report.root.quality_shipped,
                      report.root.area, report.root.power,
                      report.infeasible])
        rows.append(tuple(cells))
    return rows


def simulate_rollup(ds, n, seed):
    """Monte Carlo of the cost rollup, unit by unit, for a derived system.

    Every die is fabricated and tested, and discarded if it fails. An
    assembly bonds one passing unit of each child onto a passing parent
    die, is tested, and is discarded whole if it fails. A test catches a
    bad part with probability equal to its fault coverage; the assembly
    test sees a failed bond or a bad child, not a bad parent die. Only
    the per-node figures come from the engine (die_cost, die_yield,
    test_cost, assembly_cost, assembly_yield); the retries, escapes and
    discards are simulated, by a different route than its closed forms.

    Returns the mean cost of the first n shipped units of the root, the
    standard error of that mean, and the truly good share of those units.
    """
    from chipcost.engine import (assembly_cost, assembly_yield, die_cost,
                                 die_yield, test_cost)

    rng = np.random.default_rng(seed)
    lib = ds.system.library

    def first_passing(attempt, n):
        """Cost (of every attempt since the previous pass) and truth of
        the first n passing units, trying in batches sized by the pass
        rate seen so far."""
        costs, goods, passes = [], [], []
        tried = got = 0
        while got < n:
            m = (n if not tried
                 else max(16, int(1.2 * (n - got) * tried / max(got, 1))))
            c, g, p = attempt(m)
            costs.append(c)
            goods.append(g)
            passes.append(p)
            tried += m
            got += int(np.count_nonzero(p))
        ends = np.flatnonzero(np.concatenate(passes))[:n]
        spent = np.cumsum(np.concatenate(costs))[ends]
        return np.diff(spent, prepend=0.0), np.concatenate(goods)[ends]

    def dies(chip, n):
        tp = lib.test_processes[chip.spec.test_self]
        each = die_cost(chip, lib) + test_cost(tp)
        y = die_yield(chip, lib)

        def attempt(m):
            good = rng.random(m) < y
            passed = good | (rng.random(m) >= tp.fault_coverage)
            return np.full(m, each), good, passed

        return first_passing(attempt, n)

    def units(chip, n):
        if not chip.children:
            return dies(chip, n)
        asm = lib.assembly_processes[chip.spec.assembly_process]
        tp = lib.test_processes[chip.spec.test_assembly]
        n_dies = len(chip.children)
        area = sum(c.area for c in chip.children)
        pins = sum(c.n_bonded_pins for c in chip.children)
        y_bond = assembly_yield(asm, pins, n_dies, area)

        def attempt(m):
            cost, die_good = dies(chip, m)
            sound = rng.random(m) < y_bond
            for child in chip.children:
                child_cost, child_good = units(child, m)
                cost = cost + child_cost
                sound &= child_good
            cost = cost + assembly_cost(asm, n_dies, area) + test_cost(tp)
            passed = sound | (rng.random(m) >= tp.fault_coverage)
            return cost, die_good & sound, passed

        return first_passing(attempt, n)

    cost, good = units(ds.root, n)
    return (float(cost.mean()), float(cost.std(ddof=1) / math.sqrt(n)),
            float(good.mean()))


def report_dict(report) -> dict:
    """The eval JSON document as a plain dict, one record per node, with
    non-finite numbers as None: json.dumps(indent=2, sort_keys=True,
    allow_nan=False) of it, plus a newline, are the bytes
    `report_to_json` must write."""
    def num(value):
        return value if math.isfinite(value) else None

    def record(node):
        out = {}
        for name in node._fields:
            if name == "children":
                continue
            key = {"area": "area_mm2", "power": "power_w"}.get(name, name)
            value = getattr(node, name)
            out[key] = num(value) if isinstance(value, float) else value
        return out

    return {
        "schema_version": 1,
        "cost_total": num(report.cost_total),
        "cost_re": num(report.cost_re),
        "cost_nre": num(report.cost_nre),
        "breakdown": {k: num(v) for k, v in report.breakdown.items()},
        "yield_chip": num(report.root.yield_chip),
        "quality_shipped": num(report.root.quality_shipped),
        "area_mm2": num(report.root.area),
        "power_w": num(report.root.power),
        "infeasible": report.infeasible,
        "infeasible_paths": list(report.infeasible_paths),
        "nodes": [record(n) for n in report.nodes],
    }


def evaluate_exact(ds) -> dict:
    """evaluate's figures for a derived system in exact arithmetic.

    Every float input (the derived figures, the library fields, math.pi)
    is taken as the exact rational it stores, and each formula of the
    engine runs in fractions.Fraction; only pow, and so the negative
    binomial, goes through mpmath at 50 digits. The wafer counts
    (dies_per_wafer) are integers and are taken from the library code.
    Returns {path: {NodeCosts field: Fraction, or None where the float
    figure is infinite}} for every node, and under "" the report's
    totals and breakdown, by the same names as CostReport's.
    """
    from fractions import Fraction as F

    import mpmath

    from chipcost.wafer import dies_per_wafer

    lib = ds.system.library

    def power(base, exponent):
        """base ** exponent to 50 digits, as the Fraction mpmath holds."""
        def mpf(q):
            q = F(q)
            return mpmath.mpf(q.numerator) / q.denominator

        with mpmath.workdps(50):
            man, exp = mpmath.power(mpf(base), mpf(exponent)).man_exp
        return F(man) * F(2) ** exp

    def tested(coverage, y):
        return y + (1 - F(coverage)) * (1 - y)

    def test_cost(tp):
        return (F(tp.cost_per_second) * tp.patterns * tp.scan_chain_length
                * F(tp.clock_period))

    def die(chip):
        """cost_die (None if no wafer holds the die) and yield_die."""
        spec, fit = chip.spec, chip.fit
        wp = lib.wafer_processes[spec.wafer_process]
        dpw = dies_per_wafer(wp, chip.dim_x, chip.dim_y)
        r = F(wp.wafer_diameter) / 2 - F(wp.edge_exclusion)
        cost, y = (F(0) if dpw > 0 else None), F(1)
        for name in spec.layers:
            layer = lib.layers[name]
            if cost is not None:
                lf = F(layer.litho_fraction)
                cost += (F(chip.area) * F(layer.cost_per_mm2) * F(math.pi)
                         * r * r / (dpw * F(chip.dim_x) * F(chip.dim_y))
                         * (1 - lf + lf / F(fit.utilization)))
            critical = ((F(chip.area_core) + F(chip.area_io))
                        * F(layer.critical_area_fraction))
            alpha = F(layer.clustering_factor)
            y *= power(1 + F(layer.defect_density) * critical / alpha,
                       -alpha)
            if fit.k_stitch > 0:
                y *= power(F(layer.stitch_yield), fit.k_stitch)
        return cost, y

    def nre_self(spec):
        wp = lib.wafer_processes[spec.wafer_process]
        shares = [(F(getattr(wp, f"nre_{end}_{kind}"))
                   * F(getattr(spec, f"{kind}_fraction")))
                  for end in ("fe", "be")
                  for kind in ("logic", "memory", "analog")]
        masks = sum(F(lib.layers[name].mask_cost) for name in spec.layers)
        return ((F(spec.core_area) * sum(shares)
                 + F(spec.reticle_share) * masks) / spec.quantity)

    def plus(*terms):
        return None if None in terms else sum(terms)

    out = {}

    def node(chip, path):
        spec = chip.spec
        path = f"{path}/{spec.name}" if path else spec.name
        kids = [node(c, path) for c in chip.children]
        c_die, y_die = die(chip)
        tp = lib.test_processes[spec.test_self]
        c_test_self = test_cost(tp)
        y_tested_self = tested(tp.fault_coverage, y_die)
        c_re_self = (None if c_die is None
                     else (c_die + c_test_self) / y_tested_self)
        c_nre_self = nre_self(spec)
        c_nre = c_nre_self + sum(k["cost_nre"] for k in kids)
        q_self = y_die / y_tested_self
        if kids:
            asm = lib.assembly_processes[spec.assembly_process]
            tp_asm = lib.test_processes[spec.test_assembly]
            n_dies = len(kids)
            area = sum(F(c.area) for c in chip.children)
            pins = sum(c.n_bonded_pins for c in chip.children)
            c_asm = (F(asm.pick_place_rate) * -(-n_dies // asm.pick_place_group)
                     * F(asm.pick_place_time)
                     + F(asm.bond_rate) * -(-n_dies // asm.bond_group)
                     * F(asm.bond_time)
                     + F(asm.material_cost_per_mm2) * area)
            c_test_asm = test_cost(tp_asm)
            y_asm = (power(F(asm.bond_yield), pins)
                     * power(F(asm.alignment_yield), n_dies)
                     / (1 + F(asm.dielectric_defect_density) * area))
            y_child_q = F(1)
            for k in kids:
                y_child_q *= k["quality_shipped"]
            y_true_asm = y_asm * y_child_q
            y_tested_asm = tested(tp_asm.fault_coverage, y_true_asm)
            c_re_children = plus(*(k["cost_re"] for k in kids))
            upstream = plus(c_asm, c_test_asm, c_re_self, c_re_children)
            c_re = None if upstream is None else upstream / y_tested_asm
            q_shipped = q_self * y_true_asm / y_tested_asm
            y_chip = y_die * y_asm * y_child_q
            scrap = (None if c_re is None else c_re - (
                c_die + c_test_self + c_asm + c_test_asm) - c_re_children)
        else:
            c_asm = c_test_asm = F(0)
            y_asm = y_tested_asm = y_child_q = F(1)
            c_re = c_re_self
            q_shipped = q_self
            y_chip = y_die
            scrap = None if c_re is None else c_re - (c_die + c_test_self)
        figures = {
            "area": F(chip.area), "power": F(chip.power_total),
            "cost_die": c_die, "cost_test_self": c_test_self,
            "cost_test_assembly": c_test_asm, "cost_assembly": c_asm,
            "cost_re_self": c_re_self, "cost_re": c_re,
            "cost_nre_self": c_nre_self, "cost_nre": c_nre,
            "cost_scrap": scrap, "yield_die": y_die,
            "yield_tested_self": y_tested_self, "quality_self": q_self,
            "yield_assembly": y_asm, "yield_child_quality": y_child_q,
            "yield_tested_assembly": y_tested_asm, "yield_chip": y_chip,
            "quality_shipped": q_shipped}
        out[path] = figures
        return figures

    root = node(ds.root, "")
    nodes = [v for k, v in out.items() if k]

    def total(*names):
        return plus(*(n[name] for n in nodes for name in names))

    out[""] = {
        "cost_total": plus(root["cost_re"], root["cost_nre"]),
        "cost_re": root["cost_re"], "cost_nre": root["cost_nre"],
        "silicon": total("cost_die"), "assembly": total("cost_assembly"),
        "test": total("cost_test_self", "cost_test_assembly"),
        "scrap": total("cost_scrap"), "nre": root["cost_nre"]}
    return out

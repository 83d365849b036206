"""Wafer geometry: dies per wafer and reticle fit.

Two dicing models. Grid dicing cuts the whole wafer on shared lines, so
every die sits on one rectangular grid; the grid phase is seeded by
placing the first column of h dies flush against the usable circle and
the best h wins. Free dicing (laser or plasma) lets each row slide
independently, so every row packs the full chord at its worse edge.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .model import WaferProcessDef

# Boundary tolerance: a corner exactly on the usable circle counts as inside.
_EPS = 1e-9


def _row_count(r2: float, pitch_x: float, pitch_y: float, x0: float,
               y_bot: float) -> int:
    """Cells of one grid row (bottom edge y_bot, column origin x0) fully
    inside the circle of squared radius r2."""
    y_worst = max(abs(y_bot), abs(y_bot + pitch_y))
    rem = r2 - y_worst * y_worst
    if rem < -_EPS * r2:
        return 0
    half = math.sqrt(max(0.0, rem))
    j_lo = math.ceil((-half - x0) / pitch_x - _EPS)
    j_hi = math.floor((half - x0) / pitch_x + _EPS) - 1
    return max(0, j_hi - j_lo + 1)


class _RowSteps:
    """The rows of every grid seeded by an h of one parity, as step
    functions of the column phase phi = frac(-x0 / pitch_x).

    The first column of h dies spans |y| <= h * pitch_y / 2, so the row
    bottoms sit at (t - parity / 2) * pitch_y for whole t: the rows depend
    on h only through its parity. A row whose half-chord is a = q + g
    pitches (q whole, 0 <= g < 1) holds 2q + [phi >= lo] - [phi > hi]
    dies, lo = 1 - g - eps and hi = g + eps, so a grid's count is two
    bisections over the sorted breakpoints. Rows with a breakpoint within
    `tie` of phi are recounted with the grid's own arithmetic, which keeps
    the count exact where float rounding could tip a die in or out. The
    check is cyclic (breakpoints also at lo +- 1, hi +- 1): the formula is
    one die short when phi >= 1 + lo or phi <= hi - 1, which takes a
    breakpoint within eps of 0 or 1.
    """

    def __init__(self, r: float, pitch_x: float, pitch_y: float,
                 parity: int, tie: float):
        self.tie = tie
        self.rows = []          # (t, q, lo, hi)
        self.base = 0
        n = int(r / pitch_y) + 2
        for t in range(-n, n + 1):
            y_bot = (t - parity / 2.0) * pitch_y
            y_worst = max(abs(y_bot), abs(y_bot + pitch_y))
            rem = r * r - y_worst * y_worst
            a = math.sqrt(rem) / pitch_x if rem > 0.0 else 0.0
            q = int(a)
            lo, hi = 1.0 - (a - q) - _EPS, (a - q) + _EPS
            if q > 0 or lo <= hi + 2.0 * tie:   # else never holds a die
                self.base += 2 * q
                self.rows.append((t, q, lo, hi))
        self.los = sorted(row[2] for row in self.rows)
        self.his = sorted(row[3] for row in self.rows)
        ties = sorted((b + k, idx) for idx, row in enumerate(self.rows)
                      for b in row[2:] for k in (-1.0, 0.0, 1.0)
                      if -tie <= b + k <= 1.0 + tie)
        self.tie_keys = [key for key, _ in ties]
        self.tie_rows = [idx for _, idx in ties]

    def count(self, r2: float, pitch_x: float, pitch_y: float, h: int,
              x0: float, y0: float) -> int:
        c = -x0 / pitch_x
        phi = c - math.floor(c)
        n = (self.base + bisect_right(self.los, phi)
             - bisect_left(self.his, phi))
        i0 = bisect_left(self.tie_keys, phi - self.tie)
        i1 = bisect_right(self.tie_keys, phi + self.tie)
        for idx in set(self.tie_rows[i0:i1]):
            t, q, lo, hi = self.rows[idx]
            n += _row_count(r2, pitch_x, pitch_y, x0,
                            y0 + (t + h // 2) * pitch_y) \
                - (2 * q + (phi >= lo) - (phi > hi))
        return n


@lru_cache(maxsize=65536)
def grid_packing(die_x: float, die_y: float, wafer_diameter: float,
                 edge_exclusion: float, scribe_x: float,
                 scribe_y: float) -> int:
    """Best packing over first-column heights h = 1, 2, ...

    For each h the leftmost column of h dies is pushed flush against the
    circle (its left corners on the boundary), which fixes the grid phase;
    all grid cells fully inside then count, partial columns included.
    O((R + H) log R) for R rows and H heights.
    """
    r = wafer_diameter / 2.0 - edge_exclusion
    pitch_x = die_x + scribe_x
    pitch_y = die_y + scribe_y
    if min(r, pitch_x, pitch_y, die_x, die_y) <= 0.0:
        return 0
    # a breakpoint's float error is at most about 3e-15 (r / pitch_x)^2,
    # from the square root of its chord; a wider window costs only a few
    # more exact recounts
    tie = 1e-7 + 1e-13 * (r / pitch_x) ** 2
    steps = [_RowSteps(r, pitch_x, pitch_y, parity, tie)
             for parity in (0, 1)]
    r2 = r * r
    best = 0
    for h in range(1, int(2.0 * r / pitch_y + _EPS) + 1):
        half_height = h * pitch_y / 2.0
        if half_height > r * (1.0 + _EPS):
            break
        x0 = -math.sqrt(max(0.0, r2 - half_height * half_height))
        best = max(best, steps[h % 2].count(r2, pitch_x, pitch_y, h, x0,
                                            -half_height))
    return best


def _row_capacity(r: float, pitch_x: float, y_worst: float) -> int:
    """Dies of width pitch_x that fit in the chord at height y_worst."""
    rem = r * r - y_worst * y_worst
    if rem < 0.0:
        return 0
    width = 2.0 * math.sqrt(rem)
    return int(math.floor(width / pitch_x + _EPS))


@lru_cache(maxsize=65536)
def free_packing(die_x: float, die_y: float, wafer_diameter: float,
                 edge_exclusion: float, scribe_x: float,
                 scribe_y: float) -> int:
    """Row-by-row packing, each row at its maximal chord width.

    Two seedings: rows starting on the horizontal diameter (mirrored
    below), or a first row centered on it. The better one wins.
    """
    r = wafer_diameter / 2.0 - edge_exclusion
    pitch_x = die_x + scribe_x
    pitch_y = die_y + scribe_y
    if min(r, pitch_x, pitch_y, die_x, die_y) <= 0.0:
        return 0

    def stack(offset: float) -> int:
        """Dies in the rows with worse edges at offset + k * pitch_y,
        k = 1, 2, ..., up to the first row that holds none."""
        total, k = 0, 1
        while (cap := _row_capacity(r, pitch_x, offset + k * pitch_y)) > 0:
            total += cap
            k += 1
        return total

    center = _row_capacity(r, pitch_x, pitch_y / 2.0)
    centered = center + 2 * stack(pitch_y / 2.0) if center > 0 else 0
    return max(2 * stack(0.0), centered)


def dies_per_wafer(wp: WaferProcessDef, die_x: float, die_y: float) -> int:
    """Dispatch on the process dicing style."""
    fn = grid_packing if wp.dicing == "grid" else free_packing
    return fn(die_x, die_y, wp.wafer_diameter, wp.edge_exclusion,
              wp.scribe_x, wp.scribe_y)


@dataclass(frozen=True)
class ReticleFit:
    """How a die area maps onto the exposure field."""

    n_reticles: int       # exposures stitched into one die
    k_reticle: int        # dies per exposure when the die fits in one
    utilization: float    # used share of the exposed field area
    k_stitch: int         # stitch boundaries inside a super-reticle die


def reticle_fit(area: float, reticle_x: float, reticle_y: float) -> ReticleFit:
    """Field fit for a die of the given area.

    Sub-reticle dies pack k = floor(field/area) per exposure. Super-reticle
    dies stitch n = ceil(area/field) exposures, laid out as the largest
    square block plus remainder runs along its boundary; k_stitch counts
    the shared internal edges of that arrangement.
    """
    if area <= 0.0:
        raise ValueError("reticle_fit needs a positive area")
    field = reticle_x * reticle_y
    if area <= field * (1.0 + _EPS):
        k = int(math.floor(field / area + _EPS))
        return ReticleFit(n_reticles=1, k_reticle=k,
                          utilization=k * area / field, k_stitch=0)
    n = int(math.ceil(area / field - _EPS))
    side = int(math.floor(math.sqrt(n) + _EPS))
    square = side * side
    rest = n - square
    k_stitch = 2 * side * (side - 1) + 2 * rest - int(math.ceil(rest / side))
    return ReticleFit(n_reticles=n, k_reticle=0,
                      utilization=area / (n * field), k_stitch=k_stitch)

"""Wafer geometry: dies per wafer and reticle fit.

Two dicing models. Grid dicing cuts the whole wafer on shared lines, so
every die sits on one rectangular grid; the grid phase is seeded by
placing the first column of h dies flush against the usable circle and
the best h wins. One table of half-chords at every half row pitch gives
each h its phase and each row its breakpoints; each h gets a bisected
count and an upper bound, and only heights whose bound beats the best
are counted exactly. Free dicing (laser or plasma) lets each row slide
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


@lru_cache(maxsize=65536)
def grid_packing(die_x: float, die_y: float, wafer_diameter: float,
                 edge_exclusion: float, scribe_x: float,
                 scribe_y: float) -> int:
    """Best packing over first-column heights h = 1, 2, ...

    For each h the leftmost column of h dies is pushed flush against the
    circle (its left corners on the boundary), which fixes the grid phase;
    all grid cells fully inside then count, partial columns included.

    Chord table: a[j] is the half-chord at height j * pitch_y / 2, in
    pitches. The column of h dies has -x0 / pitch_x == a[h], so its phase
    is phi = frac(a[h]), and its grid's rows are mirrored pairs with worse
    edges at each j of h's parity (j = 1 is a single row): each pair is
    built once and weighted 2. A row of a[j] = q + g holds
    2q + [phi >= lo] - [phi > hi] dies, lo = 1 - g - eps, hi = g + eps,
    so a grid's count n(h) is two bisections over its parity's sorted
    breakpoints. A row with a breakpoint within `tie` of phi (cyclically:
    the formula is one die short when phi >= 1 + lo or phi <= hi - 1) may
    be tipped by float rounding, so it is recounted with the grid's own
    arithmetic. Bound: the formula gives a row at least 2q - 1 dies, and
    a chord under 2q + 2 pitches holds at most 2q + 2 (eps included), so
    n(h) + 3 per weighted tied row bounds h's count. Heights are counted
    exactly in falling bound order until no bound beats the best.
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
    r2 = r * r
    h_max = int(2.0 * r / pitch_y + _EPS)
    half = [j * pitch_y / 2.0 for j in range(h_max + 2)]
    a = [math.sqrt(max(0.0, r2 - y * y)) / pitch_x for y in half]
    rows = {}       # j -> (q, lo, hi) of the row pair at height j
    heights = []    # (bound, h, n(h), phi, tied rows j)
    for parity in (0, 1):
        base, los, his, ties = 0, [], [], []
        for j in range(2 - parity, h_max + 2, 2):
            q = int(a[j])
            lo, hi = 1.0 - (a[j] - q) - _EPS, (a[j] - q) + _EPS
            if q > 0 or lo <= hi + 2.0 * tie:   # else never holds a die
                w = 1 if j == 1 else 2
                rows[j] = (q, lo, hi)
                base += 2 * w * q
                los += (lo,) * w
                his += (hi,) * w
                ties += ((lo, j), (hi, j))
        ties += ([(b - 1.0, j) for b, j in ties if b - 1.0 >= -tie]
                 + [(b + 1.0, j) for b, j in ties if b + 1.0 <= 1.0 + tie])
        los.sort()
        his.sort()
        ties.sort()
        keys = [key for key, _ in ties]
        for h in range(2 - parity, h_max + 1, 2):
            if half[h] > r * (1.0 + _EPS):
                break
            phi = a[h] - math.floor(a[h])
            n = base + bisect_right(los, phi) - bisect_left(his, phi)
            near = {j for _, j in ties[bisect_left(keys, phi - tie):
                                      bisect_right(keys, phi + tie)]}
            heights.append((n + 3 * (2 * len(near) - (1 in near)), h, n,
                            phi, near))
    heights.sort(reverse=True)
    best = 0
    for bound, h, n, phi, near in heights:
        if bound <= best:
            break
        x0 = -math.sqrt(max(0.0, r2 - half[h] * half[h]))
        for j in near:
            q, lo, hi = rows[j]
            for i in {(h + j) // 2 - 1, (h - j) // 2}:
                n += _row_count(r2, pitch_x, pitch_y, x0,
                                -half[h] + i * pitch_y) \
                    - (2 * q + (phi >= lo) - (phi > hi))
        best = max(best, n)
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


@dataclass(slots=True, unsafe_hash=True)
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

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chipcost as cc
from chipcost.sweep import FieldAxis, apply_field, apply_split
from chipcost.wafer import free_packing, grid_packing, reticle_fit

from conftest import config_path
from oracles import (free_rows_oracle, grid_family_oracle,
                     naive_free_packing, naive_grid_packing,
                     origin_sweep_oracle, stitch_layout_edges)

W300 = dict(wafer_diameter=300.0, edge_exclusion=3.0,
            scribe_x=0.1, scribe_y=0.1)


def grid(x, y, **kw):
    return grid_packing(x, y, **{**W300, **kw})


def free(x, y, **kw):
    return free_packing(x, y, **{**W300, **kw})


class TestGridDicing:
    def test_10mm_reference_count(self):
        # frozen; matches both enumeration oracles below
        assert grid(10.0, 10.0) == 612

    def test_10mm_matches_origin_sweep_enumerator(self):
        assert origin_sweep_oracle(10.0, 10.0, 300.0, 3.0, 0.1, 0.1) == 612

    def test_10mm_matches_family_enumerator(self):
        assert grid_family_oracle(10.0, 10.0, 300.0, 3.0, 0.1, 0.1) == 612

    def test_die_as_large_as_usable_radius(self):
        r = 147.0
        n = grid(r, r)
        assert n == grid_family_oracle(r, r, 300.0, 3.0, 0.1, 0.1)
        assert n == origin_sweep_oracle(r, r, 300.0, 3.0, 0.1, 0.1)
        assert n == 1

    def test_diagonal_larger_than_wafer(self):
        assert grid(290.0, 290.0) == 0

    def test_die_height_spanning_usable_diameter(self):
        assert grid(5.0, 294.0) == 0

    def test_layout_accounts_for_every_die(self):
        n, columns = naive_grid_packing(10.0, 10.0, **W300)
        assert sum(columns) == n == grid(10.0, 10.0) == 612
        assert columns == tuple(reversed(columns))

    def test_family_enumerator_on_random_sizes(self):
        rng = random.Random(710217)
        for _ in range(25):
            x = round(rng.uniform(3.0, 40.0), 3)
            y = round(rng.uniform(3.0, 40.0), 3)
            s = round(rng.uniform(0.0, 0.5), 3)
            e = round(rng.uniform(0.0, 10.0), 3)
            got = grid_packing(x, y, 300.0, e, s, s)
            want = grid_family_oracle(x, y, 300.0, e, s, s)
            assert got == want, (x, y, s, e)


class TestFreeDicing:
    def test_10mm_reference_count(self):
        assert free(10.0, 10.0) == 624

    def test_matches_row_placement_oracle(self):
        rng = random.Random(42)
        for _ in range(25):
            x = round(rng.uniform(3.0, 40.0), 3)
            y = round(rng.uniform(3.0, 40.0), 3)
            s = round(rng.uniform(0.0, 0.5), 3)
            e = round(rng.uniform(0.0, 10.0), 3)
            got = free_packing(x, y, 300.0, e, s, s)
            assert got == free_rows_oracle(x, y, 300.0, e, s, s), (x, y, s, e)

    def test_full_height_die_fits_nowhere(self):
        # one row of height 2r: the centered seeding is the only candidate
        # and its chord is a single point
        assert free(5.0, 294.0) == 0

    def test_layout_accounts_for_every_die(self):
        n, rows = naive_free_packing(10.0, 10.0, **W300)
        assert sum(rows) == n == free(10.0, 10.0) == 624


def random_packing_case(rng: random.Random) -> tuple:
    """A die of 0.5-1500 mm2 with aspect ratio up to 4 on a 200, 300 or
    450 mm wafer, edge exclusion 0-5 mm and scribe 0-0.2 mm; a third of
    the cases rounded to 0.1 mm, where grid phases tie most often."""
    area = math.exp(rng.uniform(math.log(0.5), math.log(1500.0)))
    aspect = math.exp(rng.uniform(0.0, math.log(4.0)))
    x = math.sqrt(area * aspect)
    y = area / x
    if rng.random() < 0.5:
        x, y = y, x
    case = (x, y, rng.choice((200.0, 300.0, 450.0)), rng.uniform(0.0, 5.0),
            rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.2))
    if rng.random() < 1.0 / 3.0:
        case = tuple(round(v, 1) for v in case)
    return case


def shipped_dies():
    """(die_x, die_y, waferprocess) of every chip that the shipped configs
    derive, at every point of their sweeps."""
    dies = set()
    for study, sweeps in (("graph_processor", ("chiplet_sweep.xml",
                                               "defect_sweep.xml")),
                          ("coverage_study", ("coverage_sweep.xml",))):
        lib = cc.parse_library(config_path(study, "library.xml"))
        base = cc.parse_system(config_path(study, "system.xml"),
                               config_path(study, "netlist.xml"), lib)
        for sweep in sweeps:
            plan = cc.parse_sweep(config_path(study, sweep))
            for point in itertools.product(*(a.points for a in plan.axes)):
                state = (base.library, base.root, base.nets)
                for axis, value in zip(plan.axes, point):
                    state = (apply_field(*state, axis, value)
                             if isinstance(axis, FieldAxis)
                             else apply_split(*state, axis, value))
                system = cc.validate_system(state[1], state[2], state[0])
                for chip in cc.derive(system).root.walk():
                    wp = system.library.wafer_processes[
                        chip.spec.wafer_process]
                    dies.add((chip.dim_x, chip.dim_y, wp))
    return sorted(dies, key=lambda d: (d[0], d[1], d[2].name))


def assert_matches_naive(case: tuple) -> None:
    assert grid_packing.__wrapped__(*case) == \
        naive_grid_packing(*case)[0], case
    assert free_packing.__wrapped__(*case) == \
        naive_free_packing(*case)[0], case


class TestKernelsMatchNaivePackers:
    """The bisecting grid kernel and the free-row kernel against the
    naive packers, which recount every row: equal counts, exactly."""

    def test_random_cases(self):
        rng = random.Random(20261018)
        for _ in range(50):
            assert_matches_naive(random_packing_case(rng))

    def test_phase_split_case(self):
        # splitting rows by phase without recounting near-tied rows
        # found 30362 dies here
        case = (0.5, 1.5, 200.0, 3.0, 0.1, 0.1)
        assert naive_grid_packing(*case)[0] == 30366
        assert_matches_naive(case)

    def test_radius_on_whole_half_and_quarter_pitches(self):
        # r / pitch_x = k, k + 1/2 or k + 1/4 puts the widest chords on
        # whole, half and quarter pitches, and the Pythagorean radii 5, 20
        # and 100 put other rows and column phases there: ties are densest
        for k, frac, diameter, scribe, aspect in itertools.product(
                (2, 5, 20, 100), (0.0, 0.5, 0.25), (200.0, 300.0, 450.0),
                (0.0, 0.1), (1.0, 2.0)):
            pitch = diameter / 2.0 / (k + frac)
            assert_matches_naive((pitch - scribe, aspect * pitch - scribe,
                                  diameter, 0.0, scribe, scribe))

    def test_small_dies(self):
        for case in ((0.3, 3.0, 200.0, 0.0, 0.1, 0.1),
                     (0.5, 2.0, 300.0, 3.0, 0.1, 0.1),
                     (3.0, 0.8, 200.0, 2.0, 0.0, 0.0),
                     (1.0, 1.0, 200.0, 0.0, 0.0, 0.0),
                     (1.5, 1.2, 450.0, 5.0, 0.05, 0.05)):
            assert_matches_naive(case)

    def test_every_shipped_die(self):
        dies = shipped_dies()
        assert len(dies) > 10
        for x, y, wp in dies:
            assert_matches_naive((x, y, wp.wafer_diameter, wp.edge_exclusion,
                                  wp.scribe_x, wp.scribe_y))


class TestDominanceAndMonotonicity:
    @given(x=st.floats(3.0, 60.0), y=st.floats(3.0, 60.0),
           s=st.floats(0.0, 1.0), e=st.floats(0.0, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_free_at_least_grid(self, x, y, s, e):
        x, y, s, e = (round(v, 3) for v in (x, y, s, e))
        assert (free_packing(x, y, 300.0, e, s, s)
                >= grid_packing(x, y, 300.0, e, s, s))

    @given(x=st.floats(3.0, 60.0), y=st.floats(3.0, 60.0))
    @settings(max_examples=100, deadline=None)
    def test_area_bound(self, x, y):
        r = 147.0
        for fn in (grid_packing, free_packing):
            n = fn(x, y, 300.0, 3.0, 0.1, 0.1)
            assert n * x * y <= math.pi * r * r + 1e-6

    def test_shrinking_die_never_loses_dies(self):
        sizes = [40.0, 30.0, 20.0, 15.0, 10.0, 5.0]
        for fn in (grid_packing, free_packing):
            counts = [fn(s, s, 300.0, 3.0, 0.1, 0.1) for s in sizes]
            assert counts == sorted(counts)

    def test_growing_exclusion_never_gains_dies(self):
        for fn in (grid_packing, free_packing):
            counts = [fn(12.0, 9.0, 300.0, e, 0.1, 0.1)
                      for e in (0.0, 1.0, 3.0, 6.0, 12.0)]
            assert counts == sorted(counts, reverse=True)


class TestReticleFit:
    FIELD_X, FIELD_Y = 33.0, 26.0   # 858 mm2 exposure field

    def test_exact_fit(self):
        r = reticle_fit(858.0, self.FIELD_X, self.FIELD_Y)
        assert (r.n_reticles, r.k_reticle, r.k_stitch) == (1, 1, 0)
        assert r.utilization == pytest.approx(1.0)

    def test_four_per_field(self):
        r = reticle_fit(200.0, self.FIELD_X, self.FIELD_Y)
        assert r.k_reticle == 4
        assert r.utilization == pytest.approx(800.0 / 858.0)
        assert r.n_reticles == 1 and r.k_stitch == 0

    def test_stitch_counts_reference(self):
        for n, want in ((2, 1), (4, 4), (9, 12)):
            r = reticle_fit(858.0 * n - 1.0, self.FIELD_X, self.FIELD_Y)
            assert r.n_reticles == n
            assert r.k_stitch == want

    def test_stitch_matches_layout_oracle_1_through_36(self):
        for n in range(1, 37):
            area = 858.0 * (n - 0.5)
            r = reticle_fit(area, self.FIELD_X, self.FIELD_Y)
            assert r.n_reticles == n
            assert r.k_stitch == stitch_layout_edges(n), n

    def test_perfect_square_stitches(self):
        for s in range(2, 7):
            r = reticle_fit(858.0 * (s * s - 0.5), self.FIELD_X, self.FIELD_Y)
            assert r.k_stitch == 2 * s * (s - 1)

    def test_no_stitches_iff_single_exposure(self):
        for area in (1.0, 400.0, 858.0, 900.0, 5000.0):
            r = reticle_fit(area, self.FIELD_X, self.FIELD_Y)
            assert (r.k_stitch == 0) == (r.n_reticles == 1)

    @given(st.floats(0.5, 860.0))
    @settings(max_examples=200, deadline=None)
    def test_sub_reticle_utilization_in_unit_interval(self, area):
        r = reticle_fit(area, self.FIELD_X, self.FIELD_Y)
        assert 0.0 < r.utilization <= 1.0 + 1e-12

    def test_divisor_area_uses_whole_field(self):
        # 858 / 6 = 143 exactly
        r = reticle_fit(143.0, self.FIELD_X, self.FIELD_Y)
        assert r.k_reticle == 6
        assert r.utilization == pytest.approx(1.0)

    def test_rejects_nonpositive_area(self):
        with pytest.raises(ValueError):
            reticle_fit(0.0, self.FIELD_X, self.FIELD_Y)

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chipcost.engine import (assembly_yield, defect_yield, litho_multiplier,
                             quality)
from chipcost.engine import tested_yield as yield_after_test
from chipcost.sweep import FieldAxis, SweepPlan, run_sweep, _parse_range
from gensys import check_invariants, make_system

import chipcost as cc


class TestYieldKernelProperties:
    @given(d=st.floats(0.0, 1.0), a=st.floats(0.0, 100.0),
           alpha=st.floats(0.2, 100.0))
    def test_defect_yield_in_unit_interval(self, d, a, alpha):
        y = defect_yield(d, a, alpha)
        assert 0.0 < y <= 1.0
        if d * a == 0.0:
            assert y == 1.0
        elif d * a / alpha > 1e-12:   # large enough to register in floats
            assert y < 1.0

    @given(d=st.floats(0.01, 1.0), a=st.floats(1.0, 100.0),
           alpha=st.floats(0.2, 100.0), grow=st.floats(1.1, 4.0))
    def test_defect_yield_monotone_in_area(self, d, a, alpha, grow):
        assert defect_yield(d, a * grow, alpha) < defect_yield(d, a, alpha)

    @given(y=st.floats(0.01, 1.0), cov=st.floats(0.0, 1.0))
    @example(y=0.013004176556059703, cov=1.0)
    def test_test_chain(self, y, cov):
        yt = yield_after_test(cov, y)
        assert y <= yt <= 1.0
        q = quality(y, yt)
        assert 0.0 < q <= 1.0
        if cov == 1.0 or y == 1.0:
            assert q == pytest.approx(1.0, rel=1e-12)
        elif cov < 1.0 - 1e-12 and y < 1.0 - 1e-12:
            assert q < 1.0

    @given(p=st.floats(0.0, 1.0), u=st.floats(0.01, 1.0))
    def test_litho_multiplier_charges_waste(self, p, u):
        m = litho_multiplier(p, u)
        assert m >= 1.0 - 1e-12
        if p == 0.0 or u == 1.0:
            assert m == pytest.approx(1.0, rel=1e-12)

    @given(yb=st.floats(0.999, 1.0), ya=st.floats(0.99, 1.0),
           pins=st.integers(0, 10**4), dies=st.integers(0, 16),
           dh=st.floats(0.0, 1e-4), area=st.floats(0.0, 2000.0))
    def test_assembly_yield_in_unit_interval(self, yb, ya, pins, dies, dh,
                                             area):
        asm = cc.AssemblyProcessDef(
            name="a", pick_place_time=1.0, pick_place_group=1,
            pick_place_rate=0.01, bond_time=1.0, bond_group=1,
            bond_rate=0.01, material_cost_per_mm2=0.0, die_separation=0.1,
            edge_exclusion=0.0, bonding_pitch=0.1, max_current_density=250.0,
            bond_yield=yb, alignment_yield=ya, dielectric_defect_density=dh)
        y = assembly_yield(asm, pins, dies, area)
        assert 0.0 < y <= 1.0


class TestRangeGrammar:
    @given(start=st.integers(-5, 5), step=st.integers(1, 4),
           n=st.integers(0, 20))
    def test_range_hits_both_endpoints(self, start, step, n):
        stop = start + n * step
        values = _parse_range(f"{start}:{stop}:{step}")
        assert len(values) == n + 1
        assert values[0] == start
        assert values[-1] == pytest.approx(stop)


@pytest.mark.parametrize("seed", range(150))
def test_random_system_invariants(seed):
    check_invariants(make_system(seed))


@pytest.mark.parametrize("seed", range(0, 150, 10))
def test_parallel_sweep_matches_serial(seed):
    system = make_system(seed)
    plan = SweepPlan(axes=(FieldAxis(
        target="library.layer[l0].defect_density",
        values=(0.0, 0.005, 0.02)),))
    assert (run_sweep(system, plan, jobs=3)
            == run_sweep(system, plan, jobs=1))

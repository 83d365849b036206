import dataclasses
import math

import pytest

import chipcost as cc
from chipcost.derive import derive
from chipcost.engine import (assembly_cost, assembly_yield, defect_yield,
                             die_yield, evaluate, layer_cost,
                             litho_multiplier, nre_cost_self, quality)
from chipcost.engine import die_cost as raw_die_cost
from chipcost.engine import tested_yield as yield_after_test
from chipcost.engine import test_cost as insertion_cost
from chipcost.wafer import dies_per_wafer, reticle_fit
from chipcost.sweep import FieldAxis, apply_field
from conftest import OVERFLOWS, config_path
from gensys import at_edge, make_system
from oracles import simulate_rollup

LAYER = cc.LayerDef(name="m", cost_per_mm2=0.1, defect_density=0.0,
                    clustering_factor=2.0, critical_area_fraction=0.5,
                    litho_fraction=0.0, mask_cost=0.0)
WAFER = cc.WaferProcessDef(name="w", wafer_diameter=300.0, edge_exclusion=3.0,
                           scribe_x=0.1, scribe_y=0.1,
                           reticle_x=33.0, reticle_y=26.0)
ASM = cc.AssemblyProcessDef(name="a", pick_place_time=2.0, pick_place_group=1,
                            pick_place_rate=0.01, bond_time=5.0, bond_group=1,
                            bond_rate=0.01, material_cost_per_mm2=0.0,
                            die_separation=0.1, edge_exclusion=0.0,
                            bonding_pitch=0.1, max_current_density=250.0,
                            bond_yield=1.0, alignment_yield=1.0)
SCAN = cc.TestProcessDef(name="t", cost_per_second=0.1, patterns=100000,
                         scan_chain_length=1000, clock_period=1e-8,
                         fault_coverage=0.9, scan_chains=4,
                         ios_per_scan_chain=2, test_io_offset=2)


def lib(layer=LAYER, wafer=WAFER, asm=ASM, test=SCAN):
    return cc.Library(ios={}, layers={layer.name: layer},
                      wafer_processes={wafer.name: wafer},
                      assembly_processes={asm.name: asm},
                      test_processes={test.name: test})


def die(name="d", core=100.0, quantity=10**6, **kw):
    return cc.ChipSpec(name=name, core_area=core, core_power=0.0,
                       core_voltage=1.0, quantity=quantity, layers=("m",),
                       wafer_process="w", test_self="t",
                       assembly_process="a", **kw)


def report(chip, library, nets=()):
    return evaluate(derive(cc.validate_system(chip, nets, library)))


class TestUncomputableDies:
    """Dies whose wafer figures cannot be computed are configuration
    errors naming the chip, not a hang or an overflow."""

    def test_too_many_dies_across_the_wafer(self):
        huge = dataclasses.replace(WAFER, wafer_diameter=1e20)
        with pytest.raises(cc.ValidationError,
                           match="chip 'd'.*fit across waferprocess 'w'"):
            report(die(), lib(wafer=huge))

    def test_exposure_count_past_float_range(self):
        tiny = dataclasses.replace(WAFER, reticle_x=1e-300, reticle_y=1e-7)
        with pytest.raises(cc.ValidationError,
                           match="chip 'd': exposure counts"):
            report(die(), lib(wafer=tiny))

    def test_dies_per_exposure_past_float_range(self):
        with pytest.raises(cc.ValidationError,
                           match="chip 'd': exposure counts"):
            report(die(black_box_area=1e-320), lib())

    @pytest.mark.parametrize("across", [19_999, 20_001])
    def test_limit_on_dies_across(self, across):
        # free dicing, no scribe: 294 mm of usable diameter over the side
        free = dataclasses.replace(WAFER, scribe_x=0.0, scribe_y=0.0,
                                   dicing="free")
        area = (294.0 / across) ** 2
        chip = die(core=area, black_box_area=area)
        if across <= 20_000:
            assert not report(chip, lib(wafer=free)).infeasible
        else:
            with pytest.raises(cc.ValidationError, match="fit across"):
                report(chip, lib(wafer=free))


class TestDefectYield:
    def test_zero_density_is_perfect(self):
        for area in (1.0, 1e4):
            assert defect_yield(0.0, area, 2.0) == 1.0

    def test_alpha_one_closed_form(self):
        # 1/(1 + 0.005*100) = 2/3
        assert defect_yield(0.005, 100.0, 1.0) == pytest.approx(2.0 / 3.0,
                                                                rel=1e-15)

    def test_poisson_limit(self):
        # the relative gap closes like x**2/(2*alpha), so only the small
        # arguments hold a relative tolerance; 1e-5 absolute covers all
        for da in (0.1, 1.0, 10.0):
            got = defect_yield(1.0, da, 1e6)
            assert got == pytest.approx(math.exp(-da), abs=1e-5)
        assert defect_yield(1.0, 1.0, 1e6) == pytest.approx(math.exp(-1.0),
                                                            rel=1e-5)

    def test_clustering_softens_loss(self):
        # clustered defects concentrate in fewer dies
        assert defect_yield(0.01, 100.0, 0.5) > defect_yield(0.01, 100.0, 5.0)


class TestLithoMultiplier:
    def test_no_litho_share(self):
        assert litho_multiplier(0.0, 0.3) == 1.0

    def test_full_field(self):
        assert litho_multiplier(0.7, 1.0) == pytest.approx(1.0)

    def test_half_field(self):
        assert litho_multiplier(0.4, 0.5) == pytest.approx(1.4)


class TestLayerCost:
    def test_charges_wasted_silicon_and_field(self):
        layer = dataclasses.replace(LAYER, litho_fraction=0.3)
        utilization = reticle_fit(25.0, 33.0, 26.0).utilization
        got = layer_cost(layer, 25.0, 5.0, 5.0, WAFER, utilization)
        dpw = dies_per_wafer(WAFER, 5.0, 5.0)
        r = WAFER.usable_radius
        effective = 0.1 * math.pi * r * r / (dpw * 25.0)
        mult = litho_multiplier(0.3, utilization)
        assert got == pytest.approx(25.0 * effective * mult, rel=1e-12)

    def test_effective_rate_exceeds_baseline(self):
        assert layer_cost(LAYER, 25.0, 5.0, 5.0, WAFER, 1.0) >= 25.0 * 0.1

    def test_impossible_die_is_infinite(self):
        assert math.isinf(layer_cost(LAYER, 160000.0, 400.0, 400.0, WAFER,
                                     1.0))

    def test_advanced_node_baseline_rate(self, gp_library):
        # 100 mm2 of leading-edge silicon before waste charging
        layer = gp_library.layers["cmos_3nm"]
        assert layer.cost_per_mm2 * 100.0 == pytest.approx(29.0)


class TestTestEconomics:
    def test_insertion_cost(self):
        tp = dataclasses.replace(SCAN, cost_per_second=0.01, patterns=10**4,
                                 scan_chain_length=500, clock_period=1e-8)
        assert insertion_cost(tp) == pytest.approx(5e-4, rel=1e-12)

    def test_tested_yield_endpoints(self):
        assert yield_after_test(1.0, 0.7) == pytest.approx(0.7)
        assert yield_after_test(0.0, 0.7) == 1.0

    def test_tested_yield_counts_escapes(self):
        assert yield_after_test(0.95, 0.8) == pytest.approx(0.81)

    def test_quality_of_escaping_lot(self):
        assert quality(0.8, 0.81) == pytest.approx(0.9876543209876543)

    def test_perfect_test_ships_perfect(self):
        assert quality(0.8, yield_after_test(1.0, 0.8)) == pytest.approx(1.0)

    def test_untested_ships_everything(self):
        assert quality(0.8, yield_after_test(0.0, 0.8)) == pytest.approx(0.8)


class TestAssemblyEconomics:
    def test_no_dies_no_cost(self):
        assert assembly_cost(ASM, 0, 0.0) == 0.0

    def test_per_die_cycles(self):
        assert assembly_cost(ASM, 16, 0.0) == pytest.approx(1.12)

    def test_simultaneous_bonding_is_cheaper(self):
        batch = dataclasses.replace(ASM, bond_group=16)
        got = assembly_cost(batch, 16, 0.0)
        assert got == pytest.approx(16 * 2.0 * 0.01 + 1 * 5.0 * 0.01)
        assert got < assembly_cost(ASM, 16, 0.0)

    def test_material_term(self):
        asm = dataclasses.replace(ASM, material_cost_per_mm2=0.001)
        assert (assembly_cost(asm, 16, 100.0)
                == pytest.approx(1.12 + 0.1, rel=1e-12))

    def test_perfect_processes(self):
        assert assembly_yield(ASM, 10**4, 4, 800.0) == 1.0

    def test_pin_and_alignment_losses(self):
        asm = dataclasses.replace(ASM, bond_yield=0.999999,
                                  alignment_yield=0.999)
        got = assembly_yield(asm, 10**4, 4, 0.0)
        assert got == pytest.approx(0.98609, rel=1e-4)
        assert got == pytest.approx(0.999999 ** 10**4 * 0.999 ** 4, rel=1e-12)

    def test_hybrid_interface_defects(self):
        asm = dataclasses.replace(ASM, dielectric_defect_density=1e-4)
        assert assembly_yield(asm, 0, 0, 800.0) == pytest.approx(1.0 / 1.08)

    def test_losses_compose_multiplicatively(self):
        asm = dataclasses.replace(ASM, bond_yield=0.9999,
                                  alignment_yield=0.995,
                                  dielectric_defect_density=1e-5)
        want = 0.9999 ** 500 * 0.995 ** 3 / (1.0 + 1e-5 * 300.0)
        assert assembly_yield(asm, 500, 3, 300.0) == pytest.approx(want,
                                                                   rel=1e-12)


class TestNre:
    def node(self, library, **kw):
        return derive(cc.validate_system(die(**kw), (), library)).root

    def test_mask_only(self):
        library = lib(layer=dataclasses.replace(LAYER, mask_cost=1e6))
        chip = self.node(library, core=0.0, quantity=10**4)
        assert nre_cost_self(chip, library) == pytest.approx(100.0)

    def test_shared_reticle_scales_mask_share(self):
        library = lib(layer=dataclasses.replace(LAYER, mask_cost=1e6))
        chip = self.node(library, core=0.0, quantity=10**4,
                         reticle_share=0.25)
        assert nre_cost_self(chip, library) == pytest.approx(25.0)

    def test_volume_amortizes_away(self):
        library = lib(layer=dataclasses.replace(LAYER, mask_cost=1e6))
        chip = self.node(library, core=0.0, quantity=10**12)
        assert nre_cost_self(chip, library) == pytest.approx(1e-6)

    def test_design_effort_rates(self):
        wafer = dataclasses.replace(WAFER, nre_fe_logic=4000.0,
                                    nre_fe_memory=2000.0, nre_fe_analog=8000.0,
                                    nre_be_logic=1500.0, nre_be_memory=800.0,
                                    nre_be_analog=3000.0)
        library = lib(wafer=wafer)
        chip = self.node(library, core=10.0, quantity=1,
                         logic_fraction=0.5, memory_fraction=0.3,
                         analog_fraction=0.2)
        # 10*(0.5*4000 + 0.3*2000 + 0.2*8000) + 10*(0.5*1500 + 0.3*800 + 0.2*3000)
        assert nre_cost_self(chip, library) == pytest.approx(57900.0)


class TestEvaluate:
    def test_single_perfect_die_collapses(self):
        library = lib(layer=dataclasses.replace(LAYER, mask_cost=1e6))
        rep = report(die(), library)
        n = rep.root
        assert n.yield_die == 1.0 and n.quality_shipped == 1.0
        assert rep.cost_total == pytest.approx(
            n.cost_die + n.cost_test_self + n.cost_nre, rel=1e-12)
        assert rep.breakdown["scrap"] == pytest.approx(0.0, abs=1e-12)

    def test_two_level_regression(self, handcheck_system):
        rep = evaluate(derive(handcheck_system))
        assert rep.cost_total == pytest.approx(23.595519804773186, rel=1e-12)
        assert rep.cost_re == pytest.approx(21.310019804773187, rel=1e-12)
        assert rep.cost_nre == pytest.approx(2.2855, rel=1e-12)
        want = {"silicon": 18.800747727303673, "assembly": 1.0512,
                "test": 0.401, "scrap": 1.0570720774695177, "nre": 2.2855}
        for key, value in want.items():
            assert rep.breakdown[key] == pytest.approx(value, rel=1e-9)
        cpu = rep.root.children[0]
        assert cpu.yield_die == pytest.approx(0.9514430651141756, rel=1e-12)
        assert cpu.cost_re == pytest.approx(11.891040693039816, rel=1e-12)
        assert rep.root.quality_shipped == pytest.approx(0.9950973067711096,
                                                         rel=1e-12)

    def test_field_sized_die_golden(self, gp_library):
        # a die filling the exposure field exactly: one reticle, no stitching
        chip = cc.ChipSpec(name="bigdie", core_area=858.0, core_power=0.0,
                           core_voltage=0.8, quantity=10**6,
                           layers=("cmos_3nm",), wafer_process="hvm_300mm",
                           test_self="tile_scan",
                           assembly_process="hybrid_25d",
                           black_box_area=858.0)
        ds = derive(cc.validate_system(chip, (), gp_library))
        assert reticle_fit(858.0, 33.0, 26.0).k_stitch == 0
        y = die_yield(ds.root, gp_library)
        assert y == pytest.approx((1.0 + 0.005 * 858.0 * 0.7 / 2.0) ** -2,
                                  rel=1e-12)
        assert y == pytest.approx(0.1598081726618636, rel=1e-12)
        assert raw_die_cost(ds.root, gp_library) == pytest.approx(
            322.73993342479235, rel=1e-12)
        rep = evaluate(ds)
        assert rep.cost_total == pytest.approx(1625.1228840641795, rel=1e-12)
        assert not rep.infeasible

    def test_scrap_identity(self, handcheck_system):
        rep = evaluate(derive(handcheck_system))
        for n in rep.nodes:
            upstream = (n.cost_assembly + n.cost_test_assembly
                        + n.cost_re_self
                        + sum(c.cost_re for c in n.children))
            assert n.cost_re * n.yield_tested_assembly == pytest.approx(
                upstream, rel=1e-12)
        total = sum(rep.breakdown.values())
        assert total == pytest.approx(rep.cost_total, rel=1e-9)

    def test_scrap_never_rounds_below_zero(self):
        # at fault coverage 0 every part passes and nothing is scrapped;
        # c_re's other summing order once left this scrap at -2.8e-14
        report = evaluate(derive(at_edge(make_system(7), "coverage_0")))
        assert "c9/c4,scrap,0" in cc.report_to_csv(report).splitlines()
        assert min(n.cost_scrap for n in report.nodes) >= 0.0

    def test_infeasible_tagged_not_raised(self):
        child = die(name="c", core=10**6)
        parent = die(name="p", core=0.0,
                     test_assembly="t", children=(child,))
        rep = report(parent, lib())
        assert rep.infeasible
        assert math.isinf(rep.cost_total)
        assert rep.infeasible_paths == ("p/c",)
        assert math.isfinite(rep.cost_nre)

    @pytest.mark.parametrize("kind, name, attr, path", OVERFLOWS)
    def test_a_cost_past_double_range_is_infeasible(self, gp_system, kind,
                                                    name, attr, path):
        axis = FieldAxis(f"library.{kind}[{name}].{attr}", (1e308,))
        lib, root, nets = apply_field(gp_system.library, gp_system.root,
                                      gp_system.nets, axis, 1e308)
        rep = evaluate(derive(cc.validate_system(root, nets, lib)))
        assert math.isinf(rep.cost_total)
        assert rep.infeasible
        assert rep.infeasible_paths == (path,)

    def test_nre_ignores_defects(self, handcheck_library, handcheck_system):
        dirty = dataclasses.replace(
            handcheck_library.layers["die_metal"], defect_density=0.01)
        library = dataclasses.replace(
            handcheck_library,
            layers={**handcheck_library.layers, "die_metal": dirty})
        base = evaluate(derive(handcheck_system))
        worse = evaluate(derive(cc.validate_system(
            handcheck_system.root, handcheck_system.nets, library)))
        assert worse.cost_nre == base.cost_nre
        assert worse.cost_re > base.cost_re

    def test_perfect_world_additivity(self):
        # all yields one: nothing scrapped, cost is silicon + work
        library = lib()
        d1 = die(name="d1")
        d2 = die(name="d2", core=50.0)
        top = die(name="top", core=0.0, test_assembly="t",
                  children=(d1, d2))
        rep = report(top, library)
        assert rep.breakdown["scrap"] == pytest.approx(0.0, abs=1e-12)
        assert rep.breakdown["nre"] == 0.0
        want = (rep.breakdown["silicon"] + rep.breakdown["assembly"]
                + rep.breakdown["test"])
        assert rep.cost_total == pytest.approx(want, rel=1e-12)

    def test_cost_rises_with_bond_losses(self, handcheck_library,
                                         handcheck_system):
        leaky = dataclasses.replace(
            handcheck_library.assembly_processes["bond25"], bond_yield=0.99)
        library = dataclasses.replace(
            handcheck_library,
            assembly_processes={"bond25": leaky})
        base = evaluate(derive(handcheck_system))
        worse = evaluate(derive(cc.validate_system(
            handcheck_system.root, handcheck_system.nets, library)))
        assert worse.cost_re > base.cost_re
        assert worse.cost_nre == base.cost_nre

    def test_quality_follows_coverage(self):
        layer = dataclasses.replace(LAYER, defect_density=0.01)
        perfect = dataclasses.replace(SCAN, fault_coverage=1.0)
        blind = dataclasses.replace(SCAN, fault_coverage=0.0)
        partial = report(die(), lib(layer=layer)).root
        assert 0.0 < partial.quality_self < 1.0
        full = report(die(), lib(layer=layer, test=perfect)).root
        assert full.quality_self == pytest.approx(1.0, rel=1e-15)
        untested = report(die(), lib(layer=layer, test=blind)).root
        assert untested.yield_tested_self == 1.0
        assert untested.quality_self == pytest.approx(untested.yield_die)


class TestNodeCostsRecord:
    """Per-node costs are an immutable record, walked pre-order."""

    def test_fields_cannot_be_assigned(self, handcheck_system):
        node = evaluate(derive(handcheck_system)).root
        for name in ("cost_die", "children", "brand_new"):
            with pytest.raises(AttributeError):
                setattr(node, name, 0.0)
        assert not hasattr(node, "__dict__")

    @pytest.mark.parametrize("seed", range(0, 40, 4))
    def test_walk_and_nodes_are_pre_order(self, seed):
        system = make_system(seed)
        rep = evaluate(derive(system))

        def pre_order(chip):
            return [chip.name, *(n for c in chip.children
                                 for n in pre_order(c))]

        want = pre_order(system.root)
        assert [n.name for n in rep.root.walk()] == want
        assert [n.name for n in rep.nodes] == want
        assert [n.path.rsplit("/", 1)[-1] for n in rep.nodes] == want


@pytest.mark.parametrize("source",
                         ("graph_processor", "coverage_study", *range(20)))
def test_rollup_matches_a_monte_carlo_of_the_process_flow(source):
    if isinstance(source, int):
        system = make_system(source)
    else:
        system = cc.parse_system(
            config_path(source, "system.xml"),
            config_path(source, "netlist.xml"),
            cc.parse_library(config_path(source, "library.xml")))
    ds = derive(system)
    root = evaluate(ds).root
    assert not root.infeasible
    n = 20_000
    cost, stderr, good = simulate_rollup(ds, n, seed=1)
    # 5 sigma, plus rounding room where every unit costs the same
    assert abs(cost - root.cost_re) <= 5.0 * stderr + 1e-9 * root.cost_re
    q = root.quality_shipped
    assert abs(good - q) <= 5.0 * math.sqrt(q * (1.0 - q) / n) + 1e-12

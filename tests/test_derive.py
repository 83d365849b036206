import ast
import dataclasses
import math
from pathlib import Path

import pytest

import chipcost as cc
from chipcost.derive import (derive, derive_chip, net_instances,
                             place_pads, power_pad_count, stack_area,
                             tally_nets, _band_area)
from chipcost.derive import test_io_count as scan_io_count
from chipcost.model import _field_checks
from chipcost.wafer import reticle_fit
from conftest import split_tiles, zero_area_system
from gensys import make_layers, make_system, make_twins
from oracles import (derive_without_memo, derived_differences,
                     evaluate_in_full, naive_net_tally)
from test_model import MODELS

IO4 = cc.IODefinition(name="io4", tx_area=0.1, rx_area=0.2, bandwidth=4.0,
                      reach=2.0, wires_per_instance=4, energy_per_bit=1.0)
BIDI = cc.IODefinition(name="bidi", tx_area=0.05, rx_area=0.05, bandwidth=4.0,
                       reach=2.0, wires_per_instance=2, energy_per_bit=0.5,
                       bidirectional=True)
ASM = cc.AssemblyProcessDef(name="a", pick_place_time=10.0,
                            pick_place_group=1, pick_place_rate=0.01,
                            bond_time=20.0, bond_group=1, bond_rate=0.01,
                            material_cost_per_mm2=0.0, die_separation=0.1,
                            edge_exclusion=0.0, bonding_pitch=0.1,
                            max_current_density=250.0, bond_yield=0.999,
                            alignment_yield=0.999)


def tiny_library(**ios):
    return cc.Library(ios=ios or {"io4": IO4}, layers={}, wafer_processes={},
                      assembly_processes={"a": ASM}, test_processes={})


def net(src, dst, io="io4", **kw):
    return cc.NetSpec(source=src, dest=dst, io_type=io, **kw)


def chip(name, *children):
    return cc.ChipSpec(name=name, core_area=1.0, core_power=0.0,
                       core_voltage=1.0, quantity=1, layers=("m",),
                       wafer_process="w", test_self="t", children=children)


def flat_tally(names, nets, lib):
    """Tally of the nets over leaf chips `names` under one package root."""
    root = chip("pkg", *(chip(n) for n in names))
    return tally_nets(root, nets, lib)


class TestInstances:
    def test_bandwidth_rounds_up(self):
        assert net_instances(net("a", "b", bandwidth=8.0), IO4) == 2

    def test_exact_fit(self):
        assert net_instances(net("a", "b", bandwidth=4.0), IO4) == 1

    def test_zero_request_needs_no_instances(self):
        assert net_instances(net("a", "b", bandwidth=0.0), IO4) == 0

    def test_explicit_count_bypasses_bandwidth(self):
        assert net_instances(net("a", "b", count=7), IO4) == 7

    def test_fractional_demand(self):
        assert net_instances(net("a", "b", bandwidth=9.0), IO4) == 3


class TestMatrices:
    def test_entries_keyed_by_direction(self):
        t = flat_tally("ab", (net("a", "b", bandwidth=8.0),
                              net("b", "a", bandwidth=4.0)), tiny_library())
        entries = t.matrices["io4"]
        assert entries == {("a", "b"): 2, ("b", "a"): 1}
        assert sum(n for (s, _), n in entries.items() if s == "a") == 2
        assert sum(n for (_, d), n in entries.items() if d == "a") == 1

    def test_parallel_nets_accumulate(self):
        t = flat_tally("ab", (net("a", "b", bandwidth=8.0),
                              net("a", "b", count=3)), tiny_library())
        assert t.matrices["io4"][("a", "b")] == 5

    def test_external_net_stays_out_of_matrix(self):
        t = flat_tally("ab", (net("a", "elsewhere", bandwidth=8.0),),
                       tiny_library())
        assert t.matrices == {}
        # 2 instances of tx cells, and 1 pJ/bit x 8 Gbit/s, on "a" alone
        assert t.area_io == {"pkg": 0.0, "a": pytest.approx(0.2), "b": 0.0}
        assert t.power_io == {"pkg": 0.0, "a": pytest.approx(8e-3),
                              "b": 0.0}


class TestIOArea:
    def test_tx_only(self):
        t = flat_tally("ab", (net("a", "b", count=2),), tiny_library())
        assert t.area_io["a"] == pytest.approx(0.2)
        assert t.area_io["b"] == pytest.approx(0.4)

    def test_untouched_chip_has_none(self):
        t = flat_tally("abc", (net("a", "b", count=2),), tiny_library())
        assert t.area_io["c"] == 0.0

    def test_bidirectional_charges_both_functions_per_side(self):
        lib = tiny_library(bidi=BIDI)
        nets = (net("a", "b", io="bidi", count=3),)
        t = flat_tally("ab", nets, lib)
        # one matrix entry, but each side holds 3 transceivers
        assert t.matrices["bidi"] == {("a", "b"): 3}
        assert t.area_io["a"] == pytest.approx(0.3)
        assert t.area_io["b"] == pytest.approx(0.3)

    def test_external_net_charges_resolving_side_only(self):
        t = flat_tally("a", (net("a", "host", count=2),), tiny_library())
        assert t.area_io["a"] == pytest.approx(0.2)   # tx side

    def test_external_receive(self):
        t = flat_tally("a", (net("host", "a", count=2),), tiny_library())
        assert t.area_io["a"] == pytest.approx(0.4)   # rx side


class TestIOPower:
    def test_both_terminals_pay_for_internal_net(self):
        t = flat_tally("ab", (net("a", "b", bandwidth=8.0, utilization=0.5),),
                       tiny_library())
        # 1 pJ/bit * 8 Gbit/s * 0.5 = 4 mW
        assert t.power_io["a"] == pytest.approx(4e-3)
        assert t.power_io["b"] == pytest.approx(4e-3)

    def test_external_net_charges_resolver_only(self):
        t = flat_tally("a", (net("a", "host", bandwidth=8.0),),
                       tiny_library())
        assert t.power_io["a"] == pytest.approx(8e-3)
        assert "host" not in t.power_io

    def test_count_net_uses_io_bandwidth_as_proxy(self):
        t = flat_tally("ab", (net("a", "b", count=3),), tiny_library())
        # 3 instances x 4 Gbit/s each at utilization 1
        assert t.power_io["a"] == pytest.approx(12e-3)


def assert_tally_matches_scans(root, nets, lib):
    """tally_nets equals naive_net_tally, and lists the entries of each
    chip's pad tables and of each matrix in the same order: derive's leaf
    memo key reads the pad tables' order, and cell area sums the
    matrices in theirs."""
    got, want = tally_nets(root, nets, lib), naive_net_tally(root, nets, lib)
    assert got == want
    for field in ("crossing_pads", "external_pads"):
        for name, table in getattr(want, field).items():
            assert (list(getattr(got, field)[name].items())
                    == list(table.items())), (field, name)
    assert ([(io, list(m.items())) for io, m in got.matrices.items()]
            == [(io, list(m.items())) for io, m in want.matrices.items()])


class TestNetTally:
    def test_pads_cross_every_subtree_below_the_common_ancestor(self):
        # pkg holds x and y; x holds a, y holds b and c
        root = chip("pkg", chip("x", chip("a")), chip("y", chip("b"),
                                                      chip("c")))
        lib = tiny_library()
        nets = (net("a", "b", count=1), net("b", "c", count=2),
                net("c", "host", count=3))
        t = tally_nets(root, nets, lib)
        # 4 wires per instance; a->b leaves a, x, b and y; b->c only b, c
        assert t.crossing_pads == {"pkg": {}, "x": {"io4": 4},
                                   "a": {"io4": 4}, "y": {"io4": 4},
                                   "b": {"io4": 12}, "c": {"io4": 8}}
        assert t.external_pads["c"] == {"io4": 12}
        assert t.external_pads["y"] == {}

    @pytest.mark.parametrize("seed", range(0, 1000, 100))
    def test_matches_per_chip_scans_on_random_systems(self, seed):
        for s in range(seed, seed + 100):
            system = make_system(s)
            assert_tally_matches_scans(system.root, system.nets,
                                       system.library)

    @pytest.mark.parametrize("make", (make_layers, make_twins))
    @pytest.mark.parametrize("seed", range(0, 200, 50))
    def test_matches_per_chip_scans_on_layered_and_twin_systems(self, make,
                                                               seed):
        for s in range(seed, seed + 50):
            system = make(s)
            assert_tally_matches_scans(system.root, system.nets,
                                       system.library)

    @pytest.mark.parametrize("n", (1, 16, 64, 256, 1024))
    def test_matches_per_chip_scans_on_tile_splits(self, gp_system, n):
        system = split_tiles(gp_system, n)
        assert_tally_matches_scans(system.root, system.nets, system.library)

    def test_sibling_nets_two_levels_down_cross_just_their_ends(self):
        # pkg holds x and y; x holds a and b, y holds c and d. a->b and
        # d->c join siblings, x->y joins the two parents
        root = chip("pkg", chip("x", chip("a"), chip("b")),
                    chip("y", chip("c"), chip("d")))
        lib = tiny_library(io4=IO4, bidi=BIDI)
        nets = (net("a", "b", count=1), net("d", "c", "bidi", count=2),
                net("b", "a", "bidi", count=1), net("x", "y", count=3))
        t = tally_nets(root, nets, lib)
        assert t.crossing_pads == {
            "pkg": {}, "x": {"io4": 12}, "y": {"io4": 12},
            "a": {"io4": 4, "bidi": 2}, "b": {"io4": 4, "bidi": 2},
            "c": {"bidi": 4}, "d": {"bidi": 4}}
        assert_tally_matches_scans(root, nets, lib)

    def test_a_net_to_the_own_parent_crosses_the_child_alone(self):
        # pkg holds x, x holds a: a->x leaves a only, x->pkg x only, and
        # a->pkg leaves a and x
        root = chip("pkg", chip("x", chip("a")))
        lib = tiny_library()
        nets = (net("a", "x", count=1), net("x", "pkg", count=2),
                net("a", "pkg", count=3))
        t = tally_nets(root, nets, lib)
        assert t.crossing_pads == {"pkg": {}, "x": {"io4": 20},
                                   "a": {"io4": 16}}
        assert t.matrices == {"io4": {("a", "x"): 1, ("x", "pkg"): 2,
                                      ("a", "pkg"): 3}}
        assert_tally_matches_scans(root, nets, lib)

    def test_a_root_leaf_tallies_its_external_nets(self):
        root = chip("solo")
        lib = tiny_library(io4=IO4, bidi=BIDI)
        nets = (net("solo", "host", count=1), net("host", "solo", "bidi",
                                                  count=2))
        t = tally_nets(root, nets, lib)
        assert t.crossing_pads == {"solo": {}}
        assert t.external_pads == {"solo": {"io4": 4, "bidi": 4}}
        assert t.matrices == {}
        assert_tally_matches_scans(root, nets, lib)


    # nets of one class (io type, bandwidth, count, utilization) share
    # their figures; the sums and every dict's order must stay a net-by-
    # net scan's
    CLASSES = {
        "internal_and_external": (
            net("a", "b", bandwidth=8.0, utilization=0.5),
            net("b", "host", bandwidth=8.0, utilization=0.5),
            net("host", "c", bandwidth=8.0, utilization=0.5),
            net("c", "a", bandwidth=8.0, utilization=0.5),
            net("a", "b", bandwidth=8.0, utilization=0.5)),
        "two_io_types_interleaved": (
            net("a", "b", bandwidth=6.0), net("b", "c", "bidi", bandwidth=6.0),
            net("c", "a", bandwidth=6.0), net("a", "host", "bidi",
                                               bandwidth=6.0),
            net("host", "b", bandwidth=6.0), net("c", "b", "bidi",
                                                  bandwidth=6.0)),
        "signed_zero_utilization": (
            net("a", "b", count=2, utilization=0.0),
            net("b", "c", count=2, utilization=-0.0),
            net("c", "host", count=2, utilization=-0.0),
            net("host", "a", count=2, utilization=0.0),
            net("b", "a", bandwidth=4.0, utilization=-0.0),
            net("c", "a", bandwidth=4.0, utilization=0.0)),
        # each net of a class follows one apart from it in one field only
        "apart_in_bandwidth": (net("a", "b", bandwidth=8.0),
                               net("b", "c", bandwidth=12.0),
                               net("c", "host", bandwidth=8.0)),
        "apart_in_count": (net("a", "b", count=2), net("b", "c", count=3),
                           net("c", "host", count=2)),
        "apart_in_utilization": (
            net("a", "b", bandwidth=8.0, utilization=0.5),
            net("b", "c", bandwidth=8.0),
            net("c", "host", bandwidth=8.0, utilization=0.5)),
    }

    @pytest.mark.parametrize("case", CLASSES)
    def test_nets_of_one_class_match_per_chip_scans(self, case):
        root = chip("pkg", chip("x", chip("a"), chip("b")), chip("c"))
        lib = tiny_library(io4=IO4, bidi=BIDI)
        got = tally_nets(root, self.CLASSES[case], lib)
        want = naive_net_tally(root, self.CLASSES[case], lib)

        def pinned(table):
            # keys and values in order, floats by repr (their sign too)
            return [(k, pinned(v) if isinstance(v, dict) else repr(v))
                    for k, v in table.items()]

        for field in dataclasses.fields(got):
            g = pinned(getattr(got, field.name))
            w = pinned(getattr(want, field.name))
            if field.name != "matrices":
                # the outer tables are keyed by chip, which the oracle
                # lists in pre-order and the tally by depth
                g, w = sorted(g), sorted(w)
            assert g == w, field.name


class TestStackArea:
    def leaf(self, area, buried=False):
        spec = cc.ChipSpec(name=f"leaf{area}", core_area=area,
                           core_power=0.0, core_voltage=1.0, quantity=1,
                           layers=("m",), wafer_process="w", test_self="t",
                           buried=buried)
        side = math.sqrt(area)
        return cc.DerivedChip(spec=spec, children=(), area_core=area,
                              area_io=0.0, area_stack=0.0, area_pads=0.0,
                              area=area, dim_x=side, dim_y=side,
                              power_io=0.0, power_total=0.0,
                              n_signal_pads=0, n_power_pads=0, n_test_ios=0,
                              n_bonded_pins=0, grown_for_pads=False,
                              fit=reticle_fit(area, 33.0, 26.0))

    def test_no_children(self):
        assert stack_area((), ASM) == 0.0

    def test_single_child_with_separation(self):
        assert stack_area((self.leaf(100.0),), ASM) == pytest.approx(102.01)

    def test_four_children_sum(self):
        kids = tuple(self.leaf(100.0) for _ in range(4))
        assert stack_area(kids, ASM) == pytest.approx(408.04)

    def test_edge_exclusion_ring(self):
        import dataclasses
        asm = dataclasses.replace(ASM, edge_exclusion=0.5)
        want = (math.sqrt(408.04) + 1.0) ** 2
        kids = tuple(self.leaf(100.0) for _ in range(4))
        assert stack_area(kids, asm) == pytest.approx(want)

    def test_buried_child_takes_no_footprint(self):
        kids = (self.leaf(100.0), self.leaf(25.0, buried=True))
        assert stack_area(kids, ASM) == pytest.approx(102.01)

    def test_placed_children_need_an_assembly_process(self):
        assert stack_area((self.leaf(25.0, buried=True),), None) == 0.0
        with pytest.raises(cc.ValidationError) as info:
            stack_area((self.leaf(100.0),), None)
        assert str(info.value) == ("stack_area: children present but no "
                                   "assembly process")


class TestPads:
    def test_power_pad_reference_case(self):
        # 0.8 V, 250 A/mm2, 0.1 mm pitch: one pad carries ~0.3927 W
        assert power_pad_count(100.0, 0.8, ASM, "x") == 510

    def test_zero_power_needs_no_pads(self):
        assert power_pad_count(0.0, 0.8, ASM, "x") == 0

    def test_power_without_voltage_is_an_error(self):
        with pytest.raises(cc.ValidationError, match="core_voltage"):
            power_pad_count(1.0, 0.0, ASM, "x")

    def test_band_width_follows_reach_minus_separation(self):
        # reach 2, separation 0.1: the placement ring is 0.95 mm deep
        width = (IO4.reach - ASM.die_separation) / 2.0
        assert width == pytest.approx(0.95)
        assert _band_area(10.0, width) == pytest.approx(100.0 - 8.1 ** 2)

    def test_band_area_does_not_cancel_on_a_large_side(self):
        # side^2 - (side - 2w)^2 loses the low digits of the band here
        side, width = 2.6e12, 0.95
        assert _band_area(side, width) == 4.0 * width * (side - width)

    def test_huge_pad_count_grows_without_creeping(self):
        # with a cancelling band the growth loop crept one pitch at a time
        side, grown = place_pads(1.0, {"io4": 10 ** 14}, 10 ** 14, ASM,
                                 tiny_library(), "x")
        assert grown
        assert _band_area(side, 0.95) >= 10 ** 14 * 0.01 * (1 - 1e-12)

    def test_test_io_count(self):
        tp = cc.TestProcessDef(name="t", cost_per_second=0.1, patterns=1,
                               scan_chain_length=1, clock_period=1e-9,
                               fault_coverage=0.9, scan_chains=4,
                               ios_per_scan_chain=2, test_io_offset=2)
        assert scan_io_count(tp) == 10

    def test_no_growth_when_everything_fits(self):
        lib = tiny_library()
        # 100 signal, 50 power and 10 test pads
        assert place_pads(10.0, {"io4": 100}, 160, ASM, lib, "x") \
            == (10.0, False)

    def test_growth_is_pitch_quantized(self):
        lib = tiny_library()
        side, grown = place_pads(1.0, {"io4": 500}, 500, ASM, lib, "x")
        assert grown
        # side grew in whole 0.1 mm steps from 1.0
        steps = (side - 1.0) / ASM.bonding_pitch
        assert steps == pytest.approx(round(steps))
        assert _band_area(side, 0.95) >= 500 * 0.1 * 0.1 - 1e-9

    def test_interior_growth_for_power_pads(self):
        lib = tiny_library()
        side, grown = place_pads(1.0, {}, 400, ASM, lib, "x")
        # 400 pads at 0.01 mm2 each need 4 mm2 > 1 mm2
        assert grown and side ** 2 >= 4.0 - 1e-9

    def test_short_reach_is_a_configuration_error(self):
        import dataclasses
        tight = dataclasses.replace(IO4, reach=0.1)
        lib = tiny_library(io4=tight)
        with pytest.raises(cc.ValidationError, match="reach"):
            place_pads(10.0, {"io4": 1}, 1, ASM, lib, "x")

    def test_shortest_reach_places_first(self):
        import dataclasses
        near = dataclasses.replace(IO4, name="near", reach=0.4)
        far = dataclasses.replace(IO4, name="far", reach=4.0)
        lib = tiny_library(near=near, far=far)
        # near band is 0.15 deep; 600 near pads force growth even though
        # the far band alone could hold everything
        side, grown = place_pads(5.0, {"near": 600, "far": 10}, 610, ASM,
                                 lib, "x")
        assert grown
        assert _band_area(side, 0.15) >= 600 * 0.01 - 1e-9


class TestOverflowIsAConfigurationError:
    """A derived power, pad count or area that overflows is reported as a
    ValidationError naming the element, never reaches an int()."""

    def replace_tile(self, system, **kw):
        import dataclasses
        tile = dataclasses.replace(system.root.children[0], **kw)
        root = dataclasses.replace(system.root, children=(tile,))
        return cc.validate_system(root, system.nets, system.library)

    def test_power_pad_count(self):
        with pytest.raises(cc.ValidationError,
                           match="chip 'x': power pad count overflows"):
            power_pad_count(1e308, 0.8, ASM, "chip 'x'")

    def test_core_power(self, gp_system):
        system = self.replace_tile(gp_system, core_power=1e308)
        with pytest.raises(cc.ValidationError, match="chip 'tile'"):
            derive(system)

    def test_net_bandwidth(self, gp_system):
        import dataclasses
        nets = tuple(dataclasses.replace(n, bandwidth=1e308)
                     for n in gp_system.nets)
        system = cc.validate_system(gp_system.root, nets, gp_system.library)
        with pytest.raises(cc.ValidationError,
                           match="chip 'tile': area overflows"):
            derive(system)

    def test_instance_count(self):
        import dataclasses
        slow = dataclasses.replace(IO4, bandwidth=1e-10)
        with pytest.raises(cc.ValidationError,
                           match="net 'a' -> 'b': instance count overflows"):
            net_instances(net("a", "b", bandwidth=1e308), slow)

    def test_pad_count_past_float_range(self, gp_system):
        import dataclasses
        lib = gp_system.library
        wide = dataclasses.replace(lib.ios["mesh_link"],
                                   wires_per_instance=10 ** 307)
        lib = dataclasses.replace(lib, ios={"mesh_link": wide})
        system = cc.validate_system(gp_system.root, gp_system.nets, lib)
        with pytest.raises(cc.ValidationError,
                           match="chip 'tile': pad count overflows"):
            derive(system)


class TestDeriveTree:
    def test_handcheck_reference_values(self, handcheck_system):
        ds = derive(handcheck_system)
        by_name = {n.spec.name: n for n in ds.root.walk()}
        base, cpu, mem = by_name["base"], by_name["cpu"], by_name["mem"]

        assert cpu.area == pytest.approx(100.8, rel=1e-12)
        assert cpu.area_io == pytest.approx(0.8, rel=1e-12)
        assert mem.area == pytest.approx(50.4, rel=1e-12)
        expect_stack = (math.sqrt((math.sqrt(100.8) + 0.1) ** 2
                                  + (math.sqrt(50.4) + 0.1) ** 2) + 1.0) ** 2
        assert base.area_stack == pytest.approx(expect_stack, rel=1e-12)
        assert base.area == base.area_stack

        assert cpu.power_total == pytest.approx(10.075, rel=1e-12)
        assert mem.power_total == pytest.approx(5.035, rel=1e-12)
        assert base.power_total == pytest.approx(15.11, rel=1e-12)

        assert (cpu.n_signal_pads, cpu.n_power_pads, cpu.n_test_ios,
                cpu.n_bonded_pins) == (32, 42, 10, 84)
        assert (mem.n_signal_pads, mem.n_power_pads, mem.n_test_ios,
                mem.n_bonded_pins) == (16, 22, 10, 48)
        assert (base.n_signal_pads, base.n_power_pads, base.n_test_ios,
                base.n_bonded_pins) == (32, 62, 6, 68)

    def test_parent_bumps_cover_child_faces(self, handcheck_system):
        # internal-net pads on a child's bonded face land on the parent's
        # surface too; pads for nets that leave the system stay on the
        # chip that resolves them and never reach the parent
        ds = derive(handcheck_system)
        base = ds.root
        # cpu->mem: ceil(25/10)=3 inst, mem->cpu: 1 inst, 4 wires each.
        # both faces of each internal net sit on base: (3+1)*4*2 = 32
        assert base.n_signal_pads == 32
        # cpu's own face adds its external pads: cpu->host 4 inst * 4 wires
        cpu = next(c for c in base.children if c.spec.name == "cpu")
        mem = next(c for c in base.children if c.spec.name == "mem")
        cpu_face = cpu.n_bonded_pins - cpu.n_power_pads - cpu.n_test_ios
        mem_face = mem.n_bonded_pins - mem.n_power_pads - mem.n_test_ios
        assert cpu_face == 16 + 16   # internal crossings + external
        assert mem_face == 16        # internal crossings only
        assert base.n_signal_pads == cpu_face + mem_face - 16

    def test_power_conservation(self, handcheck_system):
        ds = derive(handcheck_system)
        total = sum(n.spec.core_power + n.power_io for n in ds.root.walk())
        assert ds.root.power_total == pytest.approx(total, rel=1e-12)

    def test_area_law(self, handcheck_system):
        ds = derive(handcheck_system)
        for n in ds.root.walk():
            terms = (n.area_core + n.area_io, n.area_stack, n.area_pads)
            assert n.area >= max(terms) - 1e-12
            assert any(math.isclose(n.area, t, rel_tol=1e-9) for t in terms)

    def test_adding_a_net_never_shrinks_area(self, handcheck_system):
        ds0 = derive(handcheck_system)
        extra = cc.NetSpec(source="cpu", dest="mem", io_type="link",
                           bandwidth=100.0)
        sys2 = cc.validate_system(handcheck_system.root,
                                  handcheck_system.nets + (extra,),
                                  handcheck_system.library)
        ds1 = derive(sys2)
        for a, b in zip(ds0.root.walk(), ds1.root.walk()):
            assert b.area >= a.area - 1e-12

    def test_black_box_overrides_area_and_power(self, handcheck_system):
        import dataclasses
        root = handcheck_system.root
        cpu = next(c for c in root.children if c.name == "cpu")
        boxed = dataclasses.replace(cpu, black_box_area=120.0,
                                    black_box_power=7.0)
        kids = tuple(boxed if c.name == "cpu" else c for c in root.children)
        sys2 = cc.validate_system(dataclasses.replace(root, children=kids),
                                  handcheck_system.nets,
                                  handcheck_system.library)
        ds = derive(sys2)
        cpu_d = next(n for n in ds.root.walk() if n.spec.name == "cpu")
        assert cpu_d.area == 120.0
        assert cpu_d.power_total == 7.0
        assert ds.root.power_total == pytest.approx(7.0 + 5.035, rel=1e-12)

    def test_child_larger_than_parent_rejected(self, handcheck_library):
        big = cc.ChipSpec(name="big", core_area=500.0, core_power=0.0,
                          core_voltage=1.0, quantity=1, layers=("die_metal",),
                          wafer_process="wf300", test_self="t_die")
        small_top = cc.ChipSpec(
            name="top", core_area=0.0, core_power=0.0, core_voltage=1.0,
            quantity=1, layers=("itp_base",), wafer_process="wf300",
            test_self="t_itp", assembly_process="bond25",
            test_assembly="t_asm", logic_fraction=0.0, memory_fraction=0.0,
            analog_fraction=1.0, black_box_area=100.0, children=(big,))
        sys_ = cc.validate_system(small_top, (), handcheck_library)
        with pytest.raises(cc.ValidationError, match="exceeds parent"):
            derive(sys_)

    def test_a_chip_with_nothing_to_hold_is_refused(self, gp_system):
        with pytest.raises(cc.ValidationError, match="chip 'tile': chip "
                           "resolves to zero area"):
            derive(zero_area_system(gp_system))

    def test_a_black_box_keeps_its_area_when_its_pads_overflow(
            self, gp_system):
        # 40 nets of 50 instances x 8 wires: 16,000 signal pads need 160
        # mm2 at a 0.1 mm pitch, and no band of a 1 mm2 box holds them
        boxed = dataclasses.replace(gp_system.root.children[0],
                                    black_box_area=1.0, black_box_power=0.1)
        nets = tuple(cc.NetSpec(source="tile", dest=f"edge{k}",
                                io_type="mesh_link", bandwidth=1600.0)
                     for k in range(40))
        system = cc.validate_system(
            dataclasses.replace(gp_system.root, children=(boxed,)), nets,
            gp_system.library)
        tile = derive(system).root.children[0]
        assert tile.area == 1.0 and tile.dim_x == 1.0
        assert not tile.grown_for_pads
        assert tile.n_signal_pads == 16000
        # (16,000 signal + 2 power + 20 test pads) x 0.01 mm2, not side^2
        assert tile.area_pads == pytest.approx(160.22, rel=1e-12)

    def test_diagonal_never_appears(self, handcheck_system):
        ds = derive(handcheck_system)
        for m in ds.matrices.values():
            assert all(s != d for (s, d) in m)


# ChipSpec's float fields whose check admits 0, and so -0.0
_TYPES = {f.name: f.type for f in dataclasses.fields(cc.ChipSpec)}
ZERO_FLOATS = [name for name, _, ok in _field_checks(cc.ChipSpec)
               if _TYPES[name].startswith("float") and ok(-0.0)]
# what else a tile needs to stay valid with that field at zero
_BESIDE = {"core_voltage": {"black_box_power": 0.0},
           "logic_fraction": {"memory_fraction": 1.0, "analog_fraction": 0.0},
           "memory_fraction": {"logic_fraction": 1.0, "analog_fraction": 0.0},
           "analog_fraction": {"logic_fraction": 1.0, "memory_fraction": 0.0}}


def split_with(system, n, tile):
    """A validated n-tile split of graph_processor, whose root holds the
    tiles alone, with its k-th tile made tile(spec, k)."""
    split = split_tiles(system, n)
    children = tuple(tile(c, k) for k, c in enumerate(split.root.children))
    return cc.validate_system(
        dataclasses.replace(split.root, children=children), split.nets,
        split.library)


def with_chip(root, name, edit):
    """The tree with the chip of that name made edit(chip): that chip
    and its ancestors are new objects, every other chip the same."""
    if root.name == name:
        return edit(root)
    children = tuple(with_chip(c, name, edit) for c in root.children)
    if all(a is b for a, b in zip(children, root.children)):
        return root
    return dataclasses.replace(root, children=children)


def first_matching_leaves(system) -> dict[str, str]:
    """Each non-root leaf's name mapped to the name of the first non-root
    leaf in pre-order whose inputs and tally match its own (its own name
    if no leaf before it matches). Inputs match by == on every field but
    the name, and by the sign of a zero core_area or black_box_power; the
    tallies by their figures and their pad tables in order; and the
    parents by their assembly process."""
    tally = naive_net_tally(system.root, system.nets, system.library)
    first, out = {}, {}

    def visit(chip):
        for c in chip.children:
            if c.children:
                visit(c)
                continue
            name = c.name
            key = (dataclasses.replace(c, name=""),
                   *(repr(v) if v == 0.0 else None
                     for v in (c.core_area, c.black_box_power)),
                   tally.area_io[name], tally.power_io[name],
                   tuple(tally.crossing_pads[name].items()),
                   tuple(tally.external_pads[name].items()),
                   chip.assembly_process)
            out[name] = first.setdefault(key, name)

    visit(system.root)
    return out


class TestLeafMemo:
    """derive derives each distinct leaf once; the copies must be what
    deriving every leaf in full gives, bit for bit."""

    @staticmethod
    def assert_twins_are_first_matches(system):
        ds = derive(system)
        derived = {c.spec.name: c for c in ds.root.walk()}
        assert ds.root.twin is None
        for name, first in first_matching_leaves(system).items():
            want = None if first == name else derived[first]
            assert derived[name].twin is want, (name, first)

    @pytest.mark.parametrize("n", (1, 16, 64, 256, 1024))
    def test_each_twin_of_a_split_is_the_first_matching_leaf(self, gp_system,
                                                            n):
        self.assert_twins_are_first_matches(split_tiles(gp_system, n))

    @pytest.mark.parametrize("first", range(0, 200, 50))
    def test_each_twin_of_a_random_system_is_the_first_matching_leaf(
            self, first):
        for seed in range(first, first + 50):
            self.assert_twins_are_first_matches(make_twins(seed))

    def test_a_root_leaf_has_no_class_and_is_derived_in_full(self,
                                                            gp_system):
        tile = gp_system.root.children[0]
        solo = dataclasses.replace(
            tile, assembly_process=gp_system.root.assembly_process)
        system = cc.validate_system(
            solo, (cc.NetSpec(source=tile.name, dest="host",
                              io_type="mesh_link", count=4),),
            gp_system.library)
        assert system.leaf_classes == {tile.name: (solo, None)}
        assert system.leaf_classes[tile.name][0] is system.root
        ds = derive(system)
        assert ds.root.twin is None
        assert derived_differences(ds.root,
                                   derive_without_memo(system).root) == []

    def test_the_zero_float_fields_are_found(self):
        assert {"core_area", "black_box_power"} <= set(ZERO_FLOATS)

    @pytest.mark.parametrize("field", ZERO_FLOATS)
    def test_the_sign_of_a_zero_survives(self, gp_system, field):
        # 0.0 == -0.0, so a key compared with == alone would copy one
        # tile's zero into the next
        system = split_with(gp_system, 16, lambda c, k: dataclasses.replace(
            c, **{field: -0.0 if k % 2 else 0.0}, **_BESIDE.get(field, {})))
        memo, full = derive(system), derive_without_memo(system)
        assert derived_differences(memo.root, full.root) == []
        assert (cc.report_to_json(cc.evaluate(memo))
                == cc.report_to_json(cc.evaluate(full)))

    def test_the_sign_of_a_zero_fraction_never_reaches_the_costs(
            self, gp_system):
        # the key takes -0.0 for 0.0 in the content fractions, so tiles
        # apart only in that sign share a twin and its costs. With the
        # memory NRE rates and the mask cost at -0.0, a tile's fe + be is
        # -0.0 or 0.0 by that sign; adding the mask share must erase it
        lib = gp_system.library
        tile = gp_system.root.children[0]
        lib = dataclasses.replace(
            lib,
            wafer_processes={**lib.wafer_processes,
                             tile.wafer_process: dataclasses.replace(
                                 lib.wafer_processes[tile.wafer_process],
                                 nre_fe_memory=-0.0, nre_be_memory=-0.0)},
            layers={**lib.layers, **{
                name: dataclasses.replace(lib.layers[name], mask_cost=-0.0)
                for name in tile.layers}})
        system = split_with(
            dataclasses.replace(gp_system, library=lib), 16,
            lambda c, k: dataclasses.replace(
                c, logic_fraction=-0.0 if k % 2 else 0.0,
                memory_fraction=1.0, analog_fraction=-0.0 if k % 2 else 0.0))
        ds = derive(system)
        assert any(c.twin is not None and repr(c.spec.logic_fraction)
                   != repr(c.twin.spec.logic_fraction)
                   for c in ds.root.children)
        assert (cc.report_to_json(cc.evaluate(ds))
                == cc.report_to_json(evaluate_in_full(system)))

    def test_the_first_failing_tile_is_named(self, gp_system):
        # every tile draws power with no voltage; each fails derive_chip
        system = split_with(gp_system, 64, lambda c, k: dataclasses.replace(
            c, core_voltage=0.0))
        first = system.root.children[0]
        with pytest.raises(cc.ValidationError) as memo:
            derive(system)
        with pytest.raises(cc.ValidationError) as full:
            derive_without_memo(system)
        assert memo.value.context == f"chip '{first.name}'"
        assert str(memo.value) == str(full.value)

    @pytest.mark.parametrize("links", [
        (("a", "host", "x"), ("b", "host", "y")),
        (("a", "b", "x"), ("c", "d", "y"))], ids=["external", "crossing"])
    def test_leaves_apart_only_in_pads_are_derived_apart(self, gp_system,
                                                         links):
        # x and y differ only in wires per instance: the first leaf of
        # each link gets the same cell area and power, not the same pads
        split = split_tiles(gp_system, 4)
        mesh = split.library.ios["mesh_link"]
        lib = dataclasses.replace(split.library, ios={
            **split.library.ios, "x": dataclasses.replace(mesh, name="x"),
            "y": dataclasses.replace(mesh, name="y", wires_per_instance=2
                                     * mesh.wires_per_instance)})
        tile = split.root.children[0]
        root = dataclasses.replace(split.root, children=tuple(
            dataclasses.replace(tile, name=n) for n in "abcd"))
        nets = tuple(cc.NetSpec(source=a, dest=b, io_type=io, count=4)
                     for a, b, io in links)
        system = cc.validate_system(root, nets, lib)
        ds = derive(system)
        assert derived_differences(ds.root,
                                   derive_without_memo(system).root) == []
        pads = {c.spec.name: c.n_signal_pads for c in ds.root.children}
        assert pads["a"] != pads[links[1][0]]

    @pytest.mark.parametrize("field, values, figure", [
        ("core_power", (10.0, 20.0, 30.0), "power_total"),
        ("core_voltage", (0.8, 1.6), "n_power_pads"),
        ("black_box_area", (100.0, 101.0), "area"),
        ("test_self", ("tile_scan", "package_scan"), "n_test_ios")])
    def test_leaves_apart_in_one_field_are_derived_apart(
            self, gp_system, field, values, figure):
        system = split_with(gp_system, 16, lambda c, k: dataclasses.replace(
            c, **{field: values[k % len(values)]}))
        ds = derive(system)
        assert derived_differences(ds.root,
                                   derive_without_memo(system).root) == []
        assert len({getattr(c, figure) for c in ds.root.children}) > 1

    def test_leaves_under_other_assembly_are_derived_apart(self, gp_system):
        # equal leaves whose parents bond them at different pitches
        lib = gp_system.library
        asm = lib.assembly_processes["hybrid_25d"]
        lib = dataclasses.replace(lib, assembly_processes={
            "hybrid_25d": asm, "coarse": dataclasses.replace(
                asm, name="coarse", bonding_pitch=2 * asm.bonding_pitch)})
        root = gp_system.root
        leaf = dataclasses.replace(root.children[0], core_area=50.0,
                                   core_power=10.0)
        root = dataclasses.replace(root, children=tuple(
            dataclasses.replace(root, name=f"mid_{a}", assembly_process=a,
                                children=(dataclasses.replace(
                                    leaf, name=f"leaf_{a}"),))
            for a in ("hybrid_25d", "coarse")))
        system = cc.validate_system(root, (), lib)
        ds = derive(system)
        assert derived_differences(ds.root,
                                   derive_without_memo(system).root) == []
        a, b = (mid.children[0] for mid in ds.root.children)
        assert a.n_power_pads != b.n_power_pads

    @pytest.mark.parametrize("first", range(0, 200, 50))
    def test_twin_leaves_of_random_systems_match_the_oracles(
            self, first, checked_chips):
        # make_twins copies leaves of a random system under new names:
        # validation checks each copy only for its name, derive copies
        # the figures of those whose nets tally alike, and evaluate costs
        # each copied leaf's twin once
        skipped = copied = 0
        for seed in range(first, first + 50):
            system = make_twins(seed)
            checked_chips.clear()
            cc.validate_system(system.root, system.nets, system.library)
            skipped += (sum(1 for _ in system.root.walk())
                        - len(checked_chips))
            ds = derive(system)
            assert derived_differences(
                ds.root, derive_without_memo(system).root) == [], seed
            report, full = cc.evaluate(ds), evaluate_in_full(system)
            assert cc.report_to_json(report) == cc.report_to_json(full), seed
            assert cc.report_to_csv(report) == cc.report_to_csv(full), seed
            copied += sum(c.twin is not None for c in ds.root.walk())
        assert skipped > 0 and copied > 0

    # A system's leaf classes answer only for the chip objects
    # validate_system classed: a chip of a tree swapped in around them is
    # derived in full, so such a system costs what validating it gives

    def test_an_edited_tile_of_a_swapped_tree_is_derived_in_full(
            self, gp_system):
        # the 16 tiles share one class; tile_1_2 is no longer one of them
        v16 = split_tiles(gp_system, 16)
        root = with_chip(v16.root, "tile_1_2", lambda c: dataclasses.replace(
            c, core_area=2 * c.core_area))
        swapped = dataclasses.replace(v16, root=root)
        checked = cc.validate_system(root, v16.nets, v16.library)
        ds, want = derive(swapped), derive(checked)
        assert ds.root.children[6].twin is None
        assert ([c.twin is None for c in ds.root.walk()]
                == [c.twin is None for c in want.root.walk()])
        report = cc.evaluate(ds)
        assert report.cost_total == 442.67026461346387
        assert report.cost_total == cc.evaluate(want).cost_total
        assert (cc.report_to_json(report)
                == cc.report_to_json(evaluate_in_full(checked)))

    def test_a_tree_with_names_the_classes_lack_is_derived_in_full(
            self, gp_system):
        # the unsplit system's classes know no tile_r_c
        v4 = split_tiles(gp_system, 4)
        swapped = dataclasses.replace(gp_system, root=v4.root, nets=v4.nets)
        checked = cc.validate_system(v4.root, v4.nets, gp_system.library)
        ds = derive(swapped)
        assert all(c.twin is None for c in ds.root.walk())
        report = cc.evaluate(ds)
        assert report.cost_total == 604.009594191216
        assert (cc.report_to_json(report)
                == cc.report_to_json(cc.evaluate(derive(checked))))

    @pytest.mark.parametrize("first", range(0, 200, 50))
    def test_an_edited_twin_of_a_random_system_is_derived_in_full(
            self, first):
        # the first copied leaf of each system gets one more unit of
        # quantity (its own NRE share) in a tree swapped in around the
        # old classes
        edited = 0
        for seed in range(first, first + 50):
            system = make_twins(seed)
            copy = next((c.spec.name for c in derive(system).root.walk()
                         if c.twin is not None), None)
            if copy is None:
                continue
            edited += 1
            root = with_chip(system.root, copy, lambda c: dataclasses.replace(
                c, quantity=c.quantity + 1))
            swapped = dataclasses.replace(system, root=root)
            checked = cc.validate_system(root, system.nets, system.library)
            got = cc.report_to_json(cc.evaluate(derive(swapped)))
            assert got == cc.report_to_json(cc.evaluate(derive(checked))), seed
            assert got == cc.report_to_json(evaluate_in_full(checked)), seed
        assert edited > 0

    def test_an_empty_class_map_copies_no_leaf(self, gp_system):
        system = split_tiles(gp_system, 16)
        tally = tally_nets(system.root, system.nets, system.library)
        root = derive_chip(system.root, tally, system.library, None, {}, {})
        assert all(c.twin is None for c in root.walk())
        assert derived_differences(root, derive(system).root) == []


class TestDerivedChipRecord:
    def test_keyword_construction(self):
        leaf = TestStackArea().leaf(4.0)
        assert (leaf.area, leaf.dim_x, leaf.spec.name) == (4.0, 2.0,
                                                           "leaf4.0")

    def test_has_no_instance_dict(self, gp_system):
        root = derive(split_tiles(gp_system, 4)).root
        assert not hasattr(root, "__dict__")
        assert not hasattr(root.children[0], "__dict__")

    def test_walk_is_pre_order(self, gp_system):
        system = split_tiles(gp_system, 16)
        assert ([c.spec.name for c in derive(system).root.walk()]
                == [c.name for c in system.root.walk()])

    def test_no_module_assigns_a_derived_chip_attribute(self):
        # DerivedChip and the model records are not frozen (building and
        # copying them stays cheap), so they are kept immutable by never
        # assigning to a field of one
        names = {f.name for cls in (cc.DerivedChip, *MODELS)
                 for f in dataclasses.fields(cls)}
        src = Path(cc.__file__).parent
        found = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute)
                        and not isinstance(node.ctx, ast.Load)
                        and node.attr in names):
                    found.append(f"{path.name}:{node.lineno}")
                elif (isinstance(node, ast.Call)
                      and ast.unparse(node.func).endswith(
                          ("setattr", "__setattr__", "__delattr__"))):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

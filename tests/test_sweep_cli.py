import csv
import dataclasses
import io
import math
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import chipcost as cc
from chipcost.cli import main
from chipcost.errors import ValidationError, XmlError
from chipcost.sweep import (FieldAxis, SplitAxis, SweepPlan, apply_field,
                            apply_split, parse_sweep, run_sweep,
                            sweep_columns, sweep_to_csv)
from conftest import OVERFLOWS, config_path, data_path, zero_area_system


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def sweep_xml(tmp_path, body, name="sweep.xml"):
    return write(tmp_path / name, f"<sweep>{body}</sweep>")


def rows_of(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


class TestParseSweep:
    def test_values_list(self, tmp_path):
        path = sweep_xml(tmp_path, '<param target="library.layer[m].'
                                   'defect_density" values="0.001, 0.01"/>')
        plan = parse_sweep(path)
        assert plan.axes == (FieldAxis(
            target="library.layer[m].defect_density", values=(0.001, 0.01)),)

    def test_range_is_inclusive(self, tmp_path):
        path = sweep_xml(tmp_path, '<param target="system.chip[x].core_area"'
                                   ' range="1:2:0.5"/>')
        assert parse_sweep(path).axes[0].values == (1.0, 1.5, 2.0)

    def test_empty_values_rejected(self, tmp_path):
        path = sweep_xml(tmp_path, '<param target="library.layer[m].'
                                   'defect_density" values=" , "/>')
        with pytest.raises(ValidationError, match="empty"):
            parse_sweep(path)

    def test_bad_target_rejected(self, tmp_path):
        path = sweep_xml(tmp_path, '<param target="library.nothing[m].x"'
                                   ' values="1"/>')
        with pytest.raises(ValidationError, match="bad target"):
            parse_sweep(path)

    def test_values_and_range_conflict(self, tmp_path):
        path = sweep_xml(tmp_path, '<param target="system.chip[x].core_area"'
                                   ' values="1" range="1:2:1"/>')
        with pytest.raises(ValidationError, match="exactly one"):
            parse_sweep(path)

    def test_split_defaults(self, tmp_path):
        path = sweep_xml(tmp_path, '<split chip="tile" counts="1,4"'
                                   ' side_bandwidth="64" io="mesh_link"/>')
        axis = parse_sweep(path).axes[0]
        assert axis == SplitAxis(chip="tile", counts=(1, 4),
                                 side_bandwidth=64.0, io_type="mesh_link",
                                 external_prefix="edge", utilization=1.0)

    def test_split_counts_must_be_squares(self, tmp_path):
        path = sweep_xml(tmp_path, '<split chip="tile" counts="1,8"'
                                   ' side_bandwidth="64" io="mesh_link"/>')
        with pytest.raises(ValidationError, match="perfect square"):
            parse_sweep(path)

    def test_unknown_element_rejected(self, tmp_path):
        path = sweep_xml(tmp_path, '<plot x="n"/>')
        with pytest.raises(ValidationError, match="unknown sweep element"):
            parse_sweep(path)

    def test_no_axes_rejected(self, tmp_path):
        path = sweep_xml(tmp_path, "")
        with pytest.raises(ValidationError, match="no axes"):
            parse_sweep(path)

    def test_malformed_xml(self, tmp_path):
        path = write(tmp_path / "bad.xml", "<sweep><param</sweep>")
        with pytest.raises(XmlError):
            parse_sweep(path)


class TestApplyField:
    def test_library_replacement_is_a_copy(self, handcheck_library,
                                           handcheck_system):
        lib, root, nets = apply_field(
            handcheck_library, handcheck_system.root, handcheck_system.nets,
            FieldAxis("library.layer[die_metal].defect_density", (0.5,)), 0.5)
        assert lib.layers["die_metal"].defect_density == 0.5
        assert handcheck_library.layers["die_metal"].defect_density == 0.001
        assert root is handcheck_system.root

    def test_integer_field_coerced(self, handcheck_library, handcheck_system):
        lib, _, _ = apply_field(
            handcheck_library, handcheck_system.root, handcheck_system.nets,
            FieldAxis("library.test[t_die].patterns", (2e5,)), 2e5)
        assert lib.test_processes["t_die"].patterns == 200000

    def test_fractional_integer_rejected(self, handcheck_library,
                                         handcheck_system):
        with pytest.raises(ValidationError, match="integral"):
            apply_field(handcheck_library, handcheck_system.root,
                        handcheck_system.nets,
                        FieldAxis("library.test[t_die].patterns", (2.5,)), 2.5)

    def test_non_numeric_field_rejected(self, handcheck_library,
                                        handcheck_system):
        with pytest.raises(ValidationError, match="not numeric"):
            apply_field(handcheck_library, handcheck_system.root,
                        handcheck_system.nets,
                        FieldAxis("library.io[link].bidirectional", (1.0,)),
                        1.0)

    def test_chip_field_by_name(self, handcheck_library, handcheck_system):
        _, root, _ = apply_field(
            handcheck_library, handcheck_system.root, handcheck_system.nets,
            FieldAxis("system.chip[mem].core_area", (64.0,)), 64.0)
        mem = next(c for c in root.walk() if c.name == "mem")
        assert mem.core_area == 64.0

    def test_chip_wildcard_hits_all(self, handcheck_library, handcheck_system):
        _, root, _ = apply_field(
            handcheck_library, handcheck_system.root, handcheck_system.nets,
            FieldAxis("system.chip[*].quantity", (5000.0,)), 5000.0)
        assert all(c.quantity == 5000 for c in root.walk())

    def test_unknown_chip_rejected(self, handcheck_library, handcheck_system):
        with pytest.raises(ValidationError, match="no chip named"):
            apply_field(handcheck_library, handcheck_system.root,
                        handcheck_system.nets,
                        FieldAxis("system.chip[gpu].core_area", (1.0,)), 1.0)

    def test_unknown_library_entry_rejected(self, handcheck_library,
                                            handcheck_system):
        with pytest.raises(ValidationError, match="no layer named"):
            apply_field(handcheck_library, handcheck_system.root,
                        handcheck_system.nets,
                        FieldAxis("library.layer[nope].defect_density",
                                  (1.0,)), 1.0)


class TestApplySplit:
    AXIS = SplitAxis(chip="tile", counts=(1, 4, 9), side_bandwidth=1024.0,
                     io_type="mesh_link", external_prefix="edge",
                     utilization=1.0)

    def split(self, system, n):
        return apply_split(system.library, system.root, system.nets,
                           self.AXIS, n)

    def test_mesh_shares_everything(self, gp_system):
        _, root, nets = self.split(gp_system, 9)
        tiles = [c for c in root.walk() if c.name.startswith("tile_")]
        assert sorted(t.name for t in tiles) == sorted(
            f"tile_{r}_{c}" for r in range(3) for c in range(3))
        template = next(c for c in gp_system.root.walk() if c.name == "tile")
        for t in tiles:
            assert t.core_area == pytest.approx(template.core_area / 9)
            assert t.core_power == pytest.approx(template.core_power / 9)
            assert t.quantity == template.quantity * 9
        # 2*m*(m-1) mesh links + 4*m boundary stubs, all at B/m
        links = [x for x in nets if x.source.startswith("tile_")]
        assert len(links) == 2 * 3 * 2 + 4 * 3
        assert all(x.bandwidth == pytest.approx(1024.0 / 3) for x in links)

    # (n, tile names in tree order, (source, dest) of each net in order):
    # row links, then column links, then the edge stubs west, east,
    # north and south of each row or column index
    LAYOUTS = (
        (1, ["tile_0_0"],
         [("tile_0_0", "edge_w0"), ("tile_0_0", "edge_e0"),
          ("tile_0_0", "edge_n0"), ("tile_0_0", "edge_s0")]),
        (4, ["tile_0_0", "tile_0_1", "tile_1_0", "tile_1_1"],
         [("tile_0_0", "tile_0_1"), ("tile_1_0", "tile_1_1"),
          ("tile_0_0", "tile_1_0"), ("tile_0_1", "tile_1_1"),
          ("tile_0_0", "edge_w0"), ("tile_0_1", "edge_e0"),
          ("tile_0_0", "edge_n0"), ("tile_1_0", "edge_s0"),
          ("tile_1_0", "edge_w1"), ("tile_1_1", "edge_e1"),
          ("tile_0_1", "edge_n1"), ("tile_1_1", "edge_s1")]),
        (9, ["tile_0_0", "tile_0_1", "tile_0_2", "tile_1_0", "tile_1_1",
             "tile_1_2", "tile_2_0", "tile_2_1", "tile_2_2"],
         [("tile_0_0", "tile_0_1"), ("tile_0_1", "tile_0_2"),
          ("tile_1_0", "tile_1_1"), ("tile_1_1", "tile_1_2"),
          ("tile_2_0", "tile_2_1"), ("tile_2_1", "tile_2_2"),
          ("tile_0_0", "tile_1_0"), ("tile_1_0", "tile_2_0"),
          ("tile_0_1", "tile_1_1"), ("tile_1_1", "tile_2_1"),
          ("tile_0_2", "tile_1_2"), ("tile_1_2", "tile_2_2"),
          ("tile_0_0", "edge_w0"), ("tile_0_2", "edge_e0"),
          ("tile_0_0", "edge_n0"), ("tile_2_0", "edge_s0"),
          ("tile_1_0", "edge_w1"), ("tile_1_2", "edge_e1"),
          ("tile_0_1", "edge_n1"), ("tile_2_1", "edge_s1"),
          ("tile_2_0", "edge_w2"), ("tile_2_2", "edge_e2"),
          ("tile_0_2", "edge_n2"), ("tile_2_2", "edge_s2")]),
    )

    @pytest.mark.parametrize("n, names, links", LAYOUTS)
    def test_tile_names_and_net_order_are_pinned(self, gp_system, n, names,
                                                 links):
        _, root, nets = self.split(gp_system, n)
        assert [c.name for c in root.children] == names
        # graph_processor's own nets all touch the template, so every net
        # left is a link of the mesh
        assert [(x.source, x.dest) for x in nets] == links

    def test_a_black_box_is_shared_among_the_tiles(self, gp_system):
        root = dataclasses.replace(gp_system.root, children=tuple(
            dataclasses.replace(c, black_box_area=800.0,
                                black_box_power=300.0)
            for c in gp_system.root.children))
        axis = dataclasses.replace(self.AXIS, counts=(1, 4, 16))
        for n in axis.counts:
            lib, split, nets = apply_split(gp_system.library, root,
                                           gp_system.nets, axis, n)
            ds = cc.derive(cc.validate_system(split, nets, lib))
            assert len(ds.root.children) == n
            assert sum(t.area for t in ds.root.children) == 800.0
            assert sum(t.power_total for t in ds.root.children) == 300.0

    def test_tiles_and_links_are_what_keyword_builds_give(self, gp_system):
        # each tile is built positionally from one divided template, each
        # link positionally too: they must be the records that
        # dataclasses.replace and keyword construction give, every field
        # carried (a black box, buried, fractions and share off default)
        template = dataclasses.replace(
            gp_system.root.children[0], black_box_area=800.0,
            black_box_power=300.0, buried=True, logic_fraction=0.5,
            memory_fraction=0.3, analog_fraction=0.2, reticle_share=0.5)
        root = dataclasses.replace(gp_system.root, children=(template,))
        axis = dataclasses.replace(self.AXIS, counts=(1, 4, 16, 1024),
                                   utilization=0.5)
        for n in axis.counts:
            m = math.isqrt(n)
            _, split, nets = apply_split(gp_system.library, root,
                                         gp_system.nets, axis, n)
            want = [dataclasses.replace(
                template, name=f"tile_{r}_{c}",
                core_area=template.core_area / n,
                core_power=template.core_power / n,
                black_box_area=template.black_box_area / n,
                black_box_power=template.black_box_power / n,
                quantity=template.quantity * n)
                for r in range(m) for c in range(m)]
            links = [x for x in nets if x.source.startswith("tile_")]
            assert len(links) == 2 * m * (m - 1) + 4 * m
            want_links = [cc.NetSpec(source=x.source, dest=x.dest,
                                     io_type="mesh_link",
                                     bandwidth=1024.0 / m, utilization=0.5)
                          for x in links]
            for got, expect in ((list(split.children), want),
                                (links, want_links)):
                assert got == expect, n
                assert list(map(repr, got)) == list(map(repr, expect)), n
                assert list(map(type, got)) == list(map(type, expect)), n

    def test_boundary_bandwidth_is_conserved(self, gp_system):
        for n in (1, 4, 9):
            _, _, nets = self.split(gp_system, n)
            external = [x for x in nets if x.dest.startswith("edge_")]
            m = math.isqrt(n)
            assert len(external) == 4 * m
            assert sum(x.bandwidth for x in external) == pytest.approx(4096.0)

    def test_template_nets_replaced(self, gp_system):
        _, _, nets = self.split(gp_system, 4)
        assert not any(x.source == "tile" or x.dest == "tile" for x in nets)

    def test_single_tile_keeps_four_stubs(self, gp_system):
        _, root, nets = self.split(gp_system, 1)
        assert any(c.name == "tile_0_0" for c in root.walk())
        assert len(nets) == 4

    def test_rejects_missing_template(self, handcheck_system):
        with pytest.raises(ValidationError, match="to split"):
            apply_split(handcheck_system.library, handcheck_system.root,
                        handcheck_system.nets, self.AXIS, 4)

    def test_rejects_non_leaf_template(self, handcheck_system):
        axis = SplitAxis(chip="base", counts=(4,), side_bandwidth=1.0,
                         io_type="link", external_prefix="edge",
                         utilization=1.0)
        with pytest.raises(ValidationError, match="leaf"):
            apply_split(handcheck_system.library, handcheck_system.root,
                        handcheck_system.nets, axis, 4)

    def test_rejects_root_template(self, handcheck_library):
        solo = cc.ChipSpec(name="die", core_area=10.0, core_power=0.0,
                           core_voltage=1.0, quantity=1000,
                           layers=("die_metal",), wafer_process="wf300",
                           test_self="t_die", assembly_process="bond25")
        system = cc.validate_system(solo, (), handcheck_library)
        axis = SplitAxis(chip="die", counts=(4,), side_bandwidth=1.0,
                         io_type="link", external_prefix="edge",
                         utilization=1.0)
        with pytest.raises(ValidationError, match="root"):
            apply_split(system.library, system.root, system.nets, axis, 4)

    def test_non_leaf_template_is_named_before_the_io_type(
            self, handcheck_system):
        axis = SplitAxis(chip="base", counts=(4,), side_bandwidth=1.0,
                         io_type="absent", external_prefix="edge",
                         utilization=1.0)
        with pytest.raises(ValidationError, match="leaf"):
            apply_split(handcheck_system.library, handcheck_system.root,
                        handcheck_system.nets, axis, 4)

    def test_rejects_an_edge_stub_named_like_a_chip(self, gp_system):
        # the stub would join the sibling by an internal net, and charge
        # it IO cells, though edge stubs are external endpoints
        sibling = dataclasses.replace(gp_system.root.children[0],
                                      name="edge_w0", core_area=10.0)
        root = dataclasses.replace(
            gp_system.root, children=(*gp_system.root.children, sibling))
        with pytest.raises(ValidationError) as err:
            apply_split(gp_system.library, root, gp_system.nets, self.AXIS,
                        4)
        assert str(err.value) == ("<split tile>: external endpoint "
                                  "'edge_w0' is a chip in the system")

    def test_a_template_named_like_its_stub_is_split(self, gp_system):
        template = dataclasses.replace(gp_system.root.children[0],
                                       name="edge_w0")
        root = dataclasses.replace(gp_system.root, children=(template,))
        axis = dataclasses.replace(self.AXIS, chip="edge_w0")
        _, split, nets = apply_split(gp_system.library, root, (), axis, 4)
        assert [c.name for c in split.children] == [
            "edge_w0_0_0", "edge_w0_0_1", "edge_w0_1_0", "edge_w0_1_1"]
        assert ("edge_w0_0_0", "edge_w0") in [(x.source, x.dest)
                                             for x in nets]

    def test_io_type_is_named_before_the_root(self, handcheck_library):
        solo = cc.ChipSpec(name="die", core_area=10.0, core_power=0.0,
                           core_voltage=1.0, quantity=1000,
                           layers=("die_metal",), wafer_process="wf300",
                           test_self="t_die", assembly_process="bond25")
        system = cc.validate_system(solo, (), handcheck_library)
        axis = SplitAxis(chip="die", counts=(4,), side_bandwidth=1.0,
                         io_type="absent", external_prefix="edge",
                         utilization=1.0)
        with pytest.raises(ValidationError, match="unknown io type"):
            apply_split(system.library, system.root, system.nets, axis, 4)

    def test_split_systems_evaluate(self, gp_system):
        lib, root, nets = self.split(gp_system, 4)
        report = cc.evaluate(cc.derive(cc.validate_system(root, nets, lib)))
        assert not report.infeasible
        assert report.cost_total > 0


class TestSweepExecution:
    PLAN_BODY = ('<param target="library.layer[die_metal].defect_density"'
                 ' values="0.001,0.01"/>'
                 '<param target="library.test[t_die].fault_coverage"'
                 ' values="0.5,0.9"/>')

    def plan(self, tmp_path):
        return parse_sweep(sweep_xml(tmp_path, self.PLAN_BODY))

    def test_a_product_past_the_point_cap_names_the_axis(
            self, handcheck_system):
        plan = SweepPlan(axes=(
            FieldAxis("library.layer[die_metal].defect_density",
                      tuple(k * 1e-3 for k in range(1000))),
            FieldAxis("library.test[t_die].fault_coverage", (0.9,) * 1001)))
        with pytest.raises(ValidationError) as info:
            run_sweep(handcheck_system, plan)
        assert str(info.value) == (
            "sweep: more than 1000000 points once axis "
            "'library.test[t_die].fault_coverage' joins the product")

    def test_rows_in_declaration_order(self, tmp_path, handcheck_system):
        rows = run_sweep(handcheck_system, self.plan(tmp_path))
        # first axis is the slow index of the cartesian product
        assert [(r[0], r[1]) for r in rows] == [
            (0.001, 0.5), (0.001, 0.9), (0.01, 0.5), (0.01, 0.9)]

    def test_parallel_equals_serial(self, tmp_path, handcheck_system):
        plan = self.plan(tmp_path)
        assert (run_sweep(handcheck_system, plan, jobs=4)
                == run_sweep(handcheck_system, plan, jobs=1))

    def test_csv_is_byte_deterministic(self, tmp_path, handcheck_system):
        plan = self.plan(tmp_path)
        a = sweep_to_csv(plan, run_sweep(handcheck_system, plan, jobs=1))
        b = sweep_to_csv(plan, run_sweep(handcheck_system, plan, jobs=4))
        assert a == b
        assert a.startswith("# schema: chipcost-sweep-1\n")

    def test_breakdown_sums_per_row(self, tmp_path, handcheck_system):
        plan = self.plan(tmp_path)
        text = sweep_to_csv(plan, run_sweep(handcheck_system, plan))
        for row in rows_of(text):
            parts = (float(row["cost_silicon"]) + float(row["cost_assembly"])
                     + float(row["cost_test"]) + float(row["cost_scrap"])
                     + float(row["cost_nre"]))
            assert parts == pytest.approx(float(row["cost_total"]), rel=1e-6)

    def test_area_each_follows_an_earlier_area_axis(self, tmp_path,
                                                    gp_system):
        plan = parse_sweep(sweep_xml(
            tmp_path, '<param target="system.chip[tile].core_area"'
                      ' values="400,800"/><split chip="tile" counts="1,4"'
                      ' side_bandwidth="64" io="mesh_link"/>'))
        assert [row[:3] for row in run_sweep(gp_system, plan)] == [
            (400.0, 1, 400.0), (400.0, 4, 100.0),
            (800.0, 1, 800.0), (800.0, 4, 200.0)]

    def test_a_later_axis_on_the_same_field_sets_every_row(self, tmp_path,
                                                           capsys):
        density = "library.layer[cmos_3nm].defect_density"
        sweep = sweep_xml(tmp_path,
                          f'<param target="{density}" values="0.001,0.002"/>'
                          f'<param target="{density}" values="0.004"/>')
        gp = "graph_processor"
        code = main(["sweep",
                     "--library", config_path(gp, "library.xml"),
                     "--system", config_path(gp, "system.xml"),
                     "--netlist", config_path(gp, "netlist.xml"),
                     "--sweep", sweep])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()[2:]
        assert [ln.split(",")[:3] for ln in lines] == [
            ["0.001", "0.004", "1361.00168"], ["0.002", "0.004", "1361.00168"]]

    def test_split_column_layout(self, tmp_path):
        path = sweep_xml(tmp_path, '<split chip="tile" counts="1,4"'
                                   ' side_bandwidth="64" io="mesh_link"/>')
        plan = parse_sweep(path)
        cols = sweep_columns(plan)
        assert cols[0] == "split.tile"
        assert cols[1] == "tile.core_area_each"


class TestCli:
    def eval_args(self, out, fmt="json"):
        return ["eval",
                "--library", data_path("handcheck", "library.xml"),
                "--system", data_path("handcheck", "system.xml"),
                "--netlist", data_path("handcheck", "netlist.xml"),
                "--format", fmt, "--out", str(out)]

    def test_eval_json_smoke(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(self.eval_args(out)) == 0
        import json
        doc = json.loads(out.read_text())
        assert doc["cost_total"] > 0
        assert doc["schema_version"] == 1

    def test_eval_csv_smoke(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(self.eval_args(out, fmt="csv")) == 0
        assert out.read_text().startswith("# schema: chipcost-report-1\n")

    def test_eval_output_is_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(self.eval_args(a))
        main(self.eval_args(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_io_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "netlist.xml"
        src = Path(data_path("handcheck", "netlist.xml")).read_text()
        write(bad, src.replace('io="link"', 'io="absent"', 1))
        code = main(["eval",
                     "--library", data_path("handcheck", "library.xml"),
                     "--system", data_path("handcheck", "system.xml"),
                     "--netlist", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "absent" in err and "cpu" in err

    def test_a_zero_area_chip_exits_2(self, gp_system, tmp_path, capsys):
        system = zero_area_system(gp_system)
        code = main([
            "eval",
            "--library", write(tmp_path / "library.xml",
                               cc.serialize_library(system.library)),
            "--system", write(tmp_path / "system.xml",
                              cc.serialize_system(system.root)),
            "--netlist", write(tmp_path / "netlist.xml",
                               cc.serialize_netlist(system.nets)),
            "--out", str(tmp_path / "report.json")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: chip 'tile': chip resolves to zero area (no core, "
            "stack, or pads)"]

    def test_an_assembly_process_named_empty_governs_pads(self, tmp_path):
        """Validation and derive read an assembly reference the same way:
        a chip names one when it gives the attribute, even as ""."""
        gp = Path(config_path("graph_processor"))
        reports = []
        for name in ("hybrid_25d", ""):
            for f in ("library", "system"):
                text = (gp / f"{f}.xml").read_text()
                assert '"hybrid_25d"' in text
                write(tmp_path / f"{f}.xml",
                      text.replace('"hybrid_25d"', f'"{name}"'))
            out = tmp_path / "report.json"
            assert main(["eval", "--library", str(tmp_path / "library.xml"),
                         "--system", str(tmp_path / "system.xml"),
                         "--netlist", str(gp / "netlist.xml"),
                         "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_infeasible_exits_3_but_writes(self, tmp_path):
        # a defect density big enough to underflow the die yield to zero,
        # and full coverage so the tested yield follows it down
        lib = tmp_path / "library.xml"
        src = Path(data_path("handcheck", "library.xml")).read_text()
        src = src.replace('defect_density="0.001"', 'defect_density="1e300"')
        src = src.replace('fault_coverage="0.9"', 'fault_coverage="1.0"')
        write(lib, src)
        out = tmp_path / "report.json"
        code = main(["eval", "--library", str(lib),
                     "--system", data_path("handcheck", "system.xml"),
                     "--netlist", data_path("handcheck", "netlist.xml"),
                     "--out", str(out)])
        assert code == 3
        import json
        doc = json.loads(out.read_text())
        assert doc["infeasible"] is True

    def test_infeasible_rows_carry_inf_scrap(self, tmp_path):
        # a tile no wafer holds: its die cost, and every cost above it, is
        # inf, and so is its scrap (inf - inf would print nan)
        gp = Path(config_path("graph_processor"))
        args = ["--library", str(gp / "library.xml"),
                "--netlist", str(gp / "netlist.xml")]
        system = tmp_path / "system.xml"
        write(system, (gp / "system.xml").read_text().replace(
            'name="tile" core_area="800.0"', 'name="tile" core_area="100000"'))
        out = tmp_path / "report.csv"
        assert main(["eval", *args, "--system", str(system),
                     "--format", "csv", "--out", str(out)]) == 3
        scrap = [line for line in out.read_text().splitlines()
                 if ",scrap," in line]
        assert scrap == ["substrate,scrap,inf", "substrate/tile,scrap,inf"]
        sweep = sweep_xml(tmp_path, '<param target="system.chip[tile].'
                                    'core_area" values="800,100000"/>')
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *args, "--system", str(gp / "system.xml"),
                     "--sweep", sweep, "--out", str(out)]) == 3
        feasible, infeasible = rows_of(out.read_text())
        assert math.isfinite(float(feasible["cost_scrap"]))
        assert infeasible["infeasible"] == "1"
        assert infeasible["cost_total"] == infeasible["cost_scrap"] == "inf"

    @pytest.mark.parametrize("kind, name, attr, path", OVERFLOWS)
    def test_a_cost_past_double_range_exits_3(self, tmp_path, kind, name,
                                              attr, path):
        gp = Path(config_path("graph_processor"))
        tree = ET.parse(gp / "library.xml")
        tree.getroot().find(f"{kind}[@name='{name}']").set(attr, "1e308")
        tree.write(tmp_path / "library.xml")
        args = ["--library", str(tmp_path / "library.xml"),
                "--system", str(gp / "system.xml"),
                "--netlist", str(gp / "netlist.xml")]
        out = tmp_path / "report.json"
        assert main(["eval", *args, "--out", str(out)]) == 3
        import json
        doc = json.loads(out.read_text())
        assert doc["cost_total"] is None
        assert doc["infeasible"] is True
        assert doc["infeasible_paths"] == [path]
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *args, "--sweep", str(gp / "chiplet_sweep.xml"),
                     "--out", str(out)]) == 3
        rows = rows_of(out.read_text())
        assert [row["infeasible"] for row in rows] == ["1"] * len(rows)
        assert {row["cost_total"] for row in rows} == {"inf"}

    def test_sweep_bad_target_exits_2(self, tmp_path, capsys):
        sweep = sweep_xml(tmp_path, '<param target="library.layer[nope].'
                                    'defect_density" values="1"/>')
        code = main(["sweep",
                     "--library", data_path("handcheck", "library.xml"),
                     "--system", data_path("handcheck", "system.xml"),
                     "--netlist", data_path("handcheck", "netlist.xml"),
                     "--sweep", sweep])
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_sweep_empty_values_exits_2(self, tmp_path, capsys):
        sweep = sweep_xml(tmp_path, '<param target="library.layer[die_metal].'
                                    'defect_density" values=""/>')
        code = main(["sweep",
                     "--library", data_path("handcheck", "library.xml"),
                     "--system", data_path("handcheck", "system.xml"),
                     "--netlist", data_path("handcheck", "netlist.xml"),
                     "--sweep", sweep])
        assert code == 2
        assert "empty" in capsys.readouterr().err


class TestBadInputExits2:
    """Bad sweep files and flags exit 2, name the culprit on stderr and
    print no traceback; run as a separate process, as a user would."""

    SPLIT = ('<split chip="tile" counts="{}" side_bandwidth="{}"'
             ' io="mesh_link"/>')

    def run_cli(self, sweep, *extra, config="graph_processor",
                command="sweep", stdout=subprocess.PIPE):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        return subprocess.run(
            [sys.executable, "-m", "chipcost.cli", command,
             "--library", config_path(config, "library.xml"),
             "--system", config_path(config, "system.xml"),
             "--netlist", config_path(config, "netlist.xml"),
             *(("--sweep", sweep) if sweep else ()), *extra],
            stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src))

    def assert_exits_2(self, proc, named):
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert named in proc.stderr

    @pytest.mark.parametrize("body, named", [
        (SPLIT.format("abc", "1024"), "'abc'"),
        (SPLIT.format("4.5", "1024"), "4.5"),
        (SPLIT.format("4", "x"), "side_bandwidth"),
        ('<param target="system.chip[tile].core_area" values="inf"/>',
         "system.chip[tile].core_area"),
        ('<param target="system.chip[tile].core_area" range="1:nan:1"/>',
         "nan"),
        # integer fields hold only whole numbers a double holds exactly
        ('<param target="library.test[tile_scan].scan_chains"'
         ' values="1e308"/>', "field 'scan_chains'"),
        ('<param target="system.chip[tile].quantity"'
         ' values="9007199254740992"/>', "field 'quantity'"),
        # <split> attributes are checked like the model's
        ('<split chip="tile" counts="4" side_bandwidth="1024"'
         ' io="mesh_link" utilisation="0.5"/>', "utilisation"),
        ('<split chip="tile" counts="4" io="mesh_link"/>',
         "missing attribute 'side_bandwidth'"),
        # and their ranges, before the first point builds a net from them
        (SPLIT.format("4", "-5"),
         "<split tile>: side_bandwidth must be > 0"),
        (SPLIT.format("4", "0"),
         "<split tile>: side_bandwidth must be > 0"),
        ('<split chip="tile" counts="4" side_bandwidth="1024"'
         ' io="mesh_link" utilization="2"/>',
         "<split tile>: utilization must be [0, 1]"),
        ('<split chip="tile" counts="4" side_bandwidth="1024"'
         ' io="mesh_link" utilization="-1"/>',
         "<split tile>: utilization must be [0, 1]"),
        # so are those of <param> and of the <sweep> root
        ('<param target="system.chip[tile].core_area" values="100,200"'
         ' step="5"/>', "step"),
        ('<sweep foo="1"><param target="system.chip[tile].core_area"'
         ' values="100,200"/></sweep>', "foo"),
        ('<sweep/>', "sweep.xml: sweep defines no axes"),
        # a property or method is not a field
        ('<param target="library.waferprocess[hvm_300mm].usable_radius"'
         ' values="100"/>', "no field 'usable_radius'"),
        ('<param target="system.chip[tile].walk" values="1"/>',
         "no field 'walk'"),
        # a value no point can apply names its axis
        ('<param target="system.chip[gpu].core_area" values="1"/>',
         "<param system.chip[gpu].core_area>: no chip named 'gpu'"),
        ('<split chip="tile" counts="4" side_bandwidth="1024" io="nope"/>',
         "<split tile>: unknown io type 'nope'"),
        ('<split chip="gpu" counts="4" side_bandwidth="1024"'
         ' io="mesh_link"/>', "<split gpu>: no chip named 'gpu' to split"),
        ('<param target="library.io[mesh_link].wires_per_instance"'
         ' values="1.5"/>', "field 'wires_per_instance'"),
        # size caps, checked before any point is built
        ('<param target="system.chip[tile].core_area" range="0:1:1e-12"/>',
         "system.chip[tile].core_area"),
        (SPLIT.format("1,16900", "1024"), "16900"),
        ('<param target="system.chip[tile].core_area" range="1:1001:1"/>'
         '<param target="library.layer[cmos_3nm].defect_density"'
         ' range="0:1:0.001"/>', "library.layer[cmos_3nm].defect_density"),
    ])
    def test_bad_sweep_file(self, tmp_path, body, named):
        path = (write(tmp_path / "sweep.xml", body)
                if body.startswith("<sweep") else sweep_xml(tmp_path, body))
        self.assert_exits_2(self.run_cli(path), named)

    @pytest.mark.parametrize("body, named", [
        # a library axis: only the library is validated again
        ('<param target="library.test[tile_scan].fault_coverage"'
         ' values="0.5,1.5"/>',
         "test 'tile_scan': fault_coverage must be [0, 1], got 1.5"),
        # a chip axis: the whole system is
        ('<param target="system.chip[tile_0_0].core_area"'
         ' values="10,-1"/>',
         "chip 'tile_0_0': core_area must be >= 0, got -1.0"),
    ])
    def test_bad_value_mid_sweep(self, tmp_path, body, named):
        proc = self.run_cli(sweep_xml(tmp_path, body),
                            "--out", str(tmp_path / "rows.csv"),
                            config="coverage_study")
        self.assert_exits_2(proc, named)

    @pytest.mark.parametrize("field, values, named", [
        ("core_area", "100,-5",
         "chip 'tile': core_area must be >= 0, got -5.0"),
        ("quantity", "100,200.5", "<param system.chip[tile].quantity>"),
    ])
    def test_the_first_failing_point_in_declaration_order_is_named(
            self, tmp_path, field, values, named):
        # the chip axis is visited outermost, where the layer's -1 fails
        # first; in declaration order the chip axis's second value does
        body = ('<param target="library.layer[cmos_3nm].defect_density"'
                ' values="0.01,-1"/>'
                f'<param target="system.chip[tile].{field}"'
                f' values="{values}"/>')
        proc = self.run_cli(sweep_xml(tmp_path, body),
                            "--out", str(tmp_path / "rows.csv"))
        self.assert_exits_2(proc, named)
        assert "layer 'cmos_3nm'" not in proc.stderr

    @pytest.mark.parametrize("target", [
        "library.layer[cmos_3nm].nosuch",
        # a flag is a field, but not one a sweep can set to a number
        "system.chip[tile].buried",
    ])
    def test_bad_field_is_refused_at_parse(self, tmp_path, target):
        path = sweep_xml(tmp_path, f'<param target="{target}" values="1"/>')
        out = tmp_path / "rows.csv"
        proc = self.run_cli(path, "--out", str(out))
        self.assert_exits_2(proc, f"{path}: <param {target}>")
        assert not out.exists()

    def test_missing_sweep_file(self, tmp_path):
        missing = str(tmp_path / "missing.xml")
        self.assert_exits_2(self.run_cli(missing), "missing.xml")

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize("out", ["", "missing/rows.csv"])
    def test_unwritable_out(self, tmp_path, command, out):
        # a directory, or a path whose parent directory does not exist
        out = str(tmp_path / out)
        sweep = (sweep_xml(tmp_path, self.SPLIT.format("1,4", "1024"))
                 if command == "sweep" else None)
        proc = self.run_cli(sweep, "--out", out, command=command)
        self.assert_exits_2(proc, f"{out}: cannot write")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_full_stdout(self, tmp_path, monkeypatch, command, unbuffered):
        # every write to /dev/full fails with ENOSPC; buffered stdout
        # still holds the bytes when it is flushed again at exit
        if unbuffered:
            monkeypatch.setenv("PYTHONUNBUFFERED", "1")
        else:
            monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        sweep = (sweep_xml(tmp_path, self.SPLIT.format("1,4", "1024"))
                 if command == "sweep" else None)
        with open("/dev/full", "w") as full:
            proc = self.run_cli(sweep, command=command, stdout=full)
        self.assert_exits_2(proc, "<stdout>: cannot write")

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one(self, tmp_path, jobs):
        sweep = sweep_xml(tmp_path, self.SPLIT.format("1,4", "1024"))
        self.assert_exits_2(self.run_cli(sweep, f"--jobs={jobs}"), "--jobs")


class TestShippedConfigs:
    def gp_args(self, sweep_name, out, jobs=1):
        return ["sweep",
                "--library", config_path("graph_processor", "library.xml"),
                "--system", config_path("graph_processor", "system.xml"),
                "--netlist", config_path("graph_processor", "netlist.xml"),
                "--sweep", config_path("graph_processor", sweep_name),
                "--jobs", str(jobs), "--out", str(out)]

    def test_chiplet_sweep_shape(self, tmp_path):
        out = tmp_path / "chiplets.csv"
        assert main(self.gp_args("chiplet_sweep.xml", out)) == 0
        rows = rows_of(out.read_text())
        assert [int(float(r["split.tile"])) for r in rows] == [
            1, 4, 9, 16, 25, 36, 49, 64]
        for row in rows:
            n = int(float(row["split.tile"]))
            assert float(row["tile.core_area_each"]) == pytest.approx(800.0 / n)
            assert row["infeasible"] == "0"

    def test_jobs_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.gp_args("chiplet_sweep.xml", a, jobs=1)) == 0
        assert main(self.gp_args("chiplet_sweep.xml", b, jobs=8)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_coverage_study_parses(self, tmp_path):
        out = tmp_path / "cov.csv"
        code = main([
            "sweep",
            "--library", config_path("coverage_study", "library.xml"),
            "--system", config_path("coverage_study", "system.xml"),
            "--netlist", config_path("coverage_study", "netlist.xml"),
            "--sweep", config_path("coverage_study", "coverage_sweep.xml"),
            "--out", str(out)])
        assert code == 0
        assert len(rows_of(out.read_text())) == 5

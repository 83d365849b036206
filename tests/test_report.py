"""The eval JSON bytes: `report_to_json` writes each distinct node record
through json's C encoder and must give exactly what json.dumps(indent=2)
of the plain report dict (`oracles.report_dict`) gives. The CSV is held
to rows formatted node by node."""

import dataclasses
import json
from pathlib import Path

import pytest

import chipcost as cc
from chipcost.engine import INF, CostReport, NodeCosts
from chipcost.model import Tree
from chipcost.report import csv_text, format_value
from conftest import config_path, data_path, split_tiles
from gensys import make_system, make_twins
from oracles import report_dict

# quotes, backslashes, non-ASCII, control characters, a record boundary,
# the head's placeholders (now and as they were) and the key a record is
# cut at, each as a whole chip name
HOSTILE = ('"', "\\", "ü", "\t", "},\n      {", '"nodes": null',
           '"breakdown": null', '"infeasible_paths": null', "[]",
           '"power_w"', ',\n      "power_w": ')


def reference(report) -> str:
    return json.dumps(report_dict(report), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def rename(system, names):
    """The system with its first chips, in pre-order, renamed to names,
    and its nets following them."""
    new = dict(zip((c.name for c in system.root.walk()), names))

    def chip(c):
        return dataclasses.replace(c, name=new.get(c.name, c.name),
                                   children=tuple(map(chip, c.children)))

    nets = [dataclasses.replace(n, source=new.get(n.source, n.source),
                                dest=new.get(n.dest, n.dest))
            for n in system.nets]
    return cc.validate_system(chip(system.root), nets, system.library)


def doomed(library):
    """library with every layer's defects high enough to zero the die
    yields, and every test at full coverage: every die is infeasible."""
    return dataclasses.replace(
        library,
        layers={k: dataclasses.replace(v, defect_density=1e300)
                for k, v in library.layers.items()},
        test_processes={k: dataclasses.replace(v, fault_coverage=1.0)
                        for k, v in library.test_processes.items()})


def csv_reference(report) -> str:
    rows = [[n.path, category, format_value(value)]
            for n in report.nodes
            for category, value in (
                ("silicon", n.cost_die), ("assembly", n.cost_assembly),
                ("test", n.cost_test_self + n.cost_test_assembly),
                ("scrap", n.cost_scrap), ("nre", n.cost_nre_self))]
    rows.append(["TOTAL", "total", format_value(report.cost_total)])
    return csv_text("report", ["node", "category", "cost_usd"], rows)


def assert_report_matches_reference(report):
    assert cc.report_to_json(report) == reference(report)
    assert cc.report_to_csv(report) == csv_reference(report)


def assert_matches_reference(system):
    report = cc.evaluate(cc.derive(system))
    assert_report_matches_reference(report)
    return report


@pytest.mark.parametrize("n", [1, 64, 1024])
def test_graph_processor_splits(gp_system, n):
    report = assert_matches_reference(split_tiles(gp_system, n))
    assert len(report.nodes) == n + 1


def test_infeasible_report(tmp_path):
    # as in the CLI's infeasible test: the die yield underflows to zero
    lib = tmp_path / "library.xml"
    src = Path(data_path("handcheck", "library.xml")).read_text()
    lib.write_text(src.replace('defect_density="0.001"',
                               'defect_density="1e300"')
                      .replace('fault_coverage="0.9"',
                               'fault_coverage="1.0"'))
    library = cc.parse_library(str(lib))
    system = cc.parse_system(data_path("handcheck", "system.xml"),
                             data_path("handcheck", "netlist.xml"), library)
    report = assert_matches_reference(system)
    assert report.infeasible and report.infeasible_paths
    assert "null" in cc.report_to_json(report)


@pytest.mark.parametrize("infeasible", [False, True])
def test_hostile_chip_names(gp_system, infeasible):
    system = rename(split_tiles(gp_system, 16), HOSTILE)
    if infeasible:
        system = cc.validate_system(system.root, system.nets,
                                    doomed(system.library))
    report = assert_matches_reference(system)
    assert [n.name for n in report.nodes][:len(HOSTILE)] == list(HOSTILE)
    assert bool(report.infeasible_paths) == infeasible
    if infeasible:
        assert any(n in p for p in report.infeasible_paths for n in HOSTILE)


@pytest.mark.parametrize("seed", range(0, 1000, 20))
def test_generated_systems(seed):
    assert_matches_reference(make_system(seed))


# Hand-made reports whose nodes share float objects: the writers reuse a
# record only for a node whose every figure is the very same object.

def hand_leaf(name: str, **figures) -> NodeCosts:
    """A feasible leaf with fresh figures, then the given ones."""
    leaf = NodeCosts(name, f"pkg/{name}", *(float(f"{i}.25") for i in
                                             range(1, 20)), False, ())
    return leaf._replace(**figures)


def hand_report(*leaves: NodeCosts) -> CostReport:
    root = hand_leaf("pkg")._replace(path="pkg", children=leaves)
    bad = tuple(n.path for n in leaves if n.infeasible)
    return CostReport(root=root, nodes=tuple(root.walk()), cost_total=9.5,
                      cost_re=8.5, cost_nre=1.0,
                      breakdown={"silicon": 1.0, "assembly": 2.0,
                                 "test": 3.0, "scrap": 4.0, "nre": 5.0},
                      infeasible=bool(bad), infeasible_paths=bad)


def test_a_negative_zero_figure_makes_its_own_record():
    a = hand_leaf("a", cost_assembly=0.0, cost_test_assembly=0.0)
    b = a._replace(name="b", path="pkg/b", cost_assembly=-0.0)
    assert a[2:-1] == b[2:-1] and a.cost_re is b.cost_re
    report = hand_report(a, b)
    assert_report_matches_reference(report)
    assert '"cost_assembly": -0.0' in cc.report_to_json(report)
    assert "pkg/b,assembly,-0\n" in cc.report_to_csv(report)


def test_infeasible_leaves_sharing_an_infinite_cost_are_apart():
    a = hand_leaf("a", cost_re=INF, cost_scrap=INF, yield_die=0.0,
                  infeasible=True)
    b = a._replace(name="b", path="pkg/b", yield_die=0.5, cost_die=7.5)
    report = hand_report(a, b, a._replace(name="c", path="pkg/c"))
    assert report.infeasible_paths == ("pkg/a", "pkg/b", "pkg/c")
    assert_report_matches_reference(report)
    assert '"yield_die": 0.5' in cc.report_to_json(report)


def test_a_leaf_sharing_every_figure_keeps_its_own_name_and_path():
    a = hand_leaf("a")
    b = a._replace(name="b", path="pkg/other")
    assert all(x is y for x, y in zip(a[2:], b[2:]))
    report = hand_report(a, b, a._replace(name="c", path="pkg/c"))
    assert_report_matches_reference(report)
    text = cc.report_to_json(report)
    assert '"name": "b",\n      "path": "pkg/other"' in text
    assert text.count('"cost_die": 3.25') == 4


# The report's node list is the pre-order walk evaluate's breakdown fold
# makes; the writers read it and never walk the tree again.

def study(name: str) -> cc.ValidatedSystem:
    library = cc.parse_library(config_path(name, "library.xml"))
    return cc.parse_system(config_path(name, "system.xml"),
                           config_path(name, "netlist.xml"), library)


def assert_nodes_are_the_walk(system):
    report = cc.evaluate(cc.derive(system))
    assert report.nodes == tuple(report.root.walk())


@pytest.mark.parametrize("name", ["coverage_study", "graph_processor"])
def test_node_list_of_each_shipped_config(name):
    assert_nodes_are_the_walk(study(name))


@pytest.mark.parametrize("make", [make_system, make_twins])
def test_node_list_of_generated_systems(make):
    for seed in range(200):
        assert_nodes_are_the_walk(make(seed))


@pytest.mark.parametrize("n", [1, 16, 64, 256, 1024])
def test_node_list_of_graph_processor_splits(gp_system, n):
    assert_nodes_are_the_walk(split_tiles(gp_system, n))


def test_writers_never_walk_the_costed_tree(gp_system, monkeypatch):
    report = cc.evaluate(cc.derive(split_tiles(gp_system, 16)))
    walk = Tree.walk
    walked = []

    def counted(self):
        if isinstance(self, NodeCosts):
            walked.append(self.path)
        return walk(self)

    monkeypatch.setattr(Tree, "walk", counted)
    cc.report_to_json(report)
    cc.report_to_csv(report)
    assert walked == []

"""The eval JSON bytes: `report_to_json` writes the node records through
json's C encoder and must give exactly what json.dumps(indent=2) of the
plain report dict (`oracles.report_dict`) gives."""

import dataclasses
import json
from pathlib import Path

import pytest

import chipcost as cc
from conftest import config_path, data_path, split_tiles
from gensys import make_system
from oracles import report_dict

# quotes, backslashes, non-ASCII, control characters, a record boundary
# and the spliced key, each as a whole chip name
HOSTILE = ('"', "\\", "ü", "\t", "},\n      {", '"nodes": null')


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


def assert_matches_reference(system):
    report = cc.evaluate(cc.derive(system))
    assert cc.report_to_json(report) == reference(report)
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

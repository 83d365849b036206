import dataclasses
import os

import pytest

import chipcost as cc
from chipcost.sweep import SplitAxis, apply_split

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "data")
CONFIGS = os.path.join(os.path.dirname(HERE), "configs")

# (library tag, entry, attribute, the node named infeasible) of each
# graph_processor library attribute whose cost passes double range at
# 1e308: the test cost, the assembly cost and the NRE
OVERFLOWS = (("test", "tile_scan", "clock_period", "substrate/tile"),
             ("assembly", "hybrid_25d", "pick_place_rate", "substrate"),
             ("waferprocess", "hvm_300mm", "nre_fe_logic", "substrate/tile"))


def data_path(*parts: str) -> str:
    return os.path.join(DATA, *parts)


def config_path(*parts: str) -> str:
    return os.path.join(CONFIGS, *parts)


def split_tiles(system, n):
    """The system with its "tile" chip split into n tiles on a mesh."""
    axis = SplitAxis(chip="tile", counts=(1,), side_bandwidth=1024.0,
                     io_type="mesh_link", external_prefix="edge",
                     utilization=1.0)
    lib, root, nets = apply_split(system.library, system.root, system.nets,
                                  axis, n)
    return cc.validate_system(root, nets, lib)


def zero_area_system(gp_system):
    """graph_processor with a tile that has no core, no power, no nets
    and no scan IOs: nothing gives it area."""
    lib = gp_system.library
    no_scan = dataclasses.replace(lib.test_processes["tile_scan"],
                                  name="no_scan", scan_chains=0,
                                  ios_per_scan_chain=0, test_io_offset=0)
    lib = dataclasses.replace(lib, test_processes={
        **lib.test_processes, "no_scan": no_scan})
    tile = dataclasses.replace(gp_system.root.children[0], core_area=0.0,
                               core_power=0.0, test_self="no_scan")
    return cc.validate_system(
        dataclasses.replace(gp_system.root, children=(tile,)), (), lib)


@pytest.fixture
def checked_chips(monkeypatch):
    """The name of each chip validate_system runs its checks on, in
    order, while the test runs."""
    from chipcost import model
    check = model._validate_chip
    names = []

    def counted(chip, library, is_root):
        names.append(chip.name)
        return check(chip, library, is_root)

    monkeypatch.setattr(model, "_validate_chip", counted)
    return names


@pytest.fixture(scope="session")
def handcheck_library():
    return cc.parse_library(data_path("handcheck", "library.xml"))


@pytest.fixture(scope="session")
def handcheck_system(handcheck_library):
    return cc.parse_system(data_path("handcheck", "system.xml"),
                           data_path("handcheck", "netlist.xml"),
                           handcheck_library)


@pytest.fixture(scope="session")
def gp_library():
    return cc.parse_library(config_path("graph_processor", "library.xml"))


@pytest.fixture(scope="session")
def gp_system(gp_library):
    return cc.parse_system(config_path("graph_processor", "system.xml"),
                           config_path("graph_processor", "netlist.xml"),
                           gp_library)

"""Every single-field bound of the XML-backed model classes is enforced.

One case per bounded field: the shipped graph_processor system with that
one field set just outside its range must fail validation, naming the
element that holds the value and the field. The list is written out by
hand, apart from the model, so a bound dropped from the model shows up
here as a case that validates.
"""
import dataclasses
import math
import re

import pytest

import chipcost as cc

# (element kind, element name, field, rule, value just outside the rule)
CASES = [
    ("io", "mesh_link", "tx_area", ">= 0", -1e-9),
    ("io", "mesh_link", "rx_area", ">= 0", -1e-9),
    ("io", "mesh_link", "bandwidth", "> 0", 0.0),
    ("io", "mesh_link", "reach", "> 0", 0.0),
    ("io", "mesh_link", "wires_per_instance", ">= 1", 0),
    ("io", "mesh_link", "energy_per_bit", ">= 0", -1e-9),
    ("layer", "cmos_3nm", "cost_per_mm2", ">= 0", -1e-9),
    ("layer", "cmos_3nm", "defect_density", ">= 0", -1e-9),
    ("layer", "cmos_3nm", "clustering_factor", "> 0", 0.0),
    ("layer", "cmos_3nm", "critical_area_fraction", "[0, 1]", 1 + 1e-9),
    ("layer", "cmos_3nm", "litho_fraction", "[0, 1]", -1e-9),
    ("layer", "cmos_3nm", "mask_cost", ">= 0", -1e-9),
    ("layer", "cmos_3nm", "stitch_yield", "(0, 1]", 0.0),
    ("waferprocess", "hvm_300mm", "wafer_diameter", "> 0", 0.0),
    ("waferprocess", "hvm_300mm", "edge_exclusion", ">= 0", -1e-9),
    ("waferprocess", "hvm_300mm", "scribe_x", ">= 0", -1e-9),
    ("waferprocess", "hvm_300mm", "scribe_y", ">= 0", -1e-9),
    ("waferprocess", "hvm_300mm", "reticle_x", "> 0", 0.0),
    ("waferprocess", "hvm_300mm", "reticle_y", "> 0", 0.0),
    ("waferprocess", "hvm_300mm", "nre_fe_logic", ">= 0", -1e-9),
    ("waferprocess", "hvm_300mm", "nre_fe_memory", ">= 0", -1e-9),
    ("waferprocess", "hvm_300mm", "nre_fe_analog", ">= 0", -1e-9),
    ("waferprocess", "hvm_300mm", "nre_be_logic", ">= 0", -1e-9),
    ("waferprocess", "hvm_300mm", "nre_be_memory", ">= 0", -1e-9),
    ("waferprocess", "hvm_300mm", "nre_be_analog", ">= 0", -1e-9),
    ("assembly", "hybrid_25d", "pick_place_time", ">= 0", -1e-9),
    ("assembly", "hybrid_25d", "pick_place_group", ">= 1", 0),
    ("assembly", "hybrid_25d", "pick_place_rate", ">= 0", -1e-9),
    ("assembly", "hybrid_25d", "bond_time", ">= 0", -1e-9),
    ("assembly", "hybrid_25d", "bond_group", ">= 1", 0),
    ("assembly", "hybrid_25d", "bond_rate", ">= 0", -1e-9),
    ("assembly", "hybrid_25d", "material_cost_per_mm2", ">= 0", -1e-9),
    ("assembly", "hybrid_25d", "die_separation", ">= 0", -1e-9),
    ("assembly", "hybrid_25d", "edge_exclusion", ">= 0", -1e-9),
    ("assembly", "hybrid_25d", "bonding_pitch", "> 0", 0.0),
    ("assembly", "hybrid_25d", "max_current_density", "> 0", 0.0),
    ("assembly", "hybrid_25d", "bond_yield", "(0, 1]", 0.0),
    ("assembly", "hybrid_25d", "alignment_yield", "(0, 1]", 0.0),
    ("assembly", "hybrid_25d", "dielectric_defect_density", ">= 0", -1e-9),
    ("test", "tile_scan", "cost_per_second", ">= 0", -1e-9),
    ("test", "tile_scan", "patterns", ">= 0", -1),
    ("test", "tile_scan", "scan_chain_length", ">= 0", -1),
    ("test", "tile_scan", "clock_period", ">= 0", -1e-9),
    ("test", "tile_scan", "fault_coverage", "[0, 1]", 1 + 1e-9),
    ("test", "tile_scan", "scan_chains", ">= 0", -1),
    ("test", "tile_scan", "ios_per_scan_chain", ">= 0", -1),
    ("test", "tile_scan", "test_io_offset", ">= 0", -1),
    ("chip", "tile", "core_area", ">= 0", -1e-9),
    ("chip", "tile", "core_power", ">= 0", -1e-9),
    ("chip", "tile", "core_voltage", ">= 0", -1e-9),
    ("chip", "tile", "quantity", ">= 1", 0),
    ("chip", "tile", "logic_fraction", "[0, 1]", -1e-9),
    ("chip", "tile", "memory_fraction", "[0, 1]", 1 + 1e-9),
    ("chip", "tile", "analog_fraction", "[0, 1]", -1e-9),
    ("chip", "tile", "reticle_share", "(0, 1]", 0.0),
    ("chip", "tile", "black_box_area", "> 0", 0.0),
    ("chip", "tile", "black_box_power", ">= 0", -1e-9),
    ("net", "0", "bandwidth", "> 0", 0.0),
    ("net", "0", "count", ">= 1", 0),
    ("net", "0", "utilization", "[0, 1]", 1 + 1e-9),
]

# Phrases by which a message covering two fields may name the pair.
# test_value_outside_range_is_refused accepts them so that it also holds
# for a model whose checks share one message between sibling fields;
# test_message_states_field_rule_and_value requires the exact field.
SHARED = {"pick_place_time": "cycle times", "bond_time": "cycle times",
          "pick_place_group": "group sizes", "bond_group": "group sizes",
          "pick_place_rate": "machine rates", "bond_rate": "machine rates",
          "scribe_x": "scribe widths", "scribe_y": "scribe widths",
          "reticle_x": "reticle dimensions",
          "reticle_y": "reticle dimensions"}


def with_value(system, kind, name, field, value):
    """(root, nets, library) of system with one field of one element set."""
    lib, root, nets = system.library, system.root, system.nets
    if kind == "chip":
        root = dataclasses.replace(root, children=tuple(
            dataclasses.replace(c, **{field: value}) if c.name == name
            else c for c in root.children))
    elif kind == "net":
        i = int(name)
        changes = {field: value}
        if field == "count":                # count replaces the bandwidth
            changes["bandwidth"] = None
        nets = (nets[:i] + (dataclasses.replace(nets[i], **changes),)
                + nets[i + 1:])
    else:
        attr = {"io": "ios", "layer": "layers",
                "waferprocess": "wafer_processes",
                "assembly": "assembly_processes",
                "test": "test_processes"}[kind]
        table = dict(getattr(lib, attr))
        table[name] = dataclasses.replace(table[name], **{field: value})
        lib = dataclasses.replace(lib, **{attr: table})
    return root, nets, lib


def test_cases_cover_seven_classes_sixty_fields():
    assert len(CASES) == 60
    assert len({(kind, field) for kind, _, field, _, _ in CASES}) == 60


@pytest.mark.parametrize("kind, name, field, rule, value", CASES,
                         ids=[f"{k}.{f}" for k, _, f, _, _ in CASES])
def test_value_outside_range_is_refused(gp_system, kind, name, field, rule,
                                        value):
    root, nets, lib = with_value(gp_system, kind, name, field, value)
    if kind == "net":
        net = nets[int(name)]
        context = f"net[{name}] {net.source}->{net.dest}"
    else:
        context = f"{kind} '{name}'"
    with pytest.raises(cc.ValidationError) as err:
        cc.validate_system(root, nets, lib)
    assert err.value.context == context
    message = str(err.value).removeprefix(f"{context}: ")
    assert re.search(rf"\b{field}\b|{SHARED.get(field, '$^')}", message), \
        message



@pytest.mark.parametrize("kind, name, field, rule, value", CASES,
                         ids=[f"{k}.{f}" for k, _, f, _, _ in CASES])
def test_message_states_field_rule_and_value(gp_system, kind, name, field,
                                             rule, value):
    with pytest.raises(cc.ValidationError) as err:
        cc.validate_system(*with_value(gp_system, kind, name, field, value))
    assert str(err.value).endswith(f": {field} must be {rule}, got {value}")


@pytest.mark.parametrize("kind, name, field, rule, value", CASES,
                         ids=[f"{k}.{f}" for k, _, f, _, _ in CASES])
def test_nan_is_refused(gp_system, kind, name, field, rule, value):
    with pytest.raises(cc.ValidationError, match=rf"{field} must be"):
        cc.validate_system(*with_value(gp_system, kind, name, field,
                                       math.nan))

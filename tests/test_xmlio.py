import dataclasses

import pytest

import chipcost as cc
from gensys import make_system
from chipcost.sweep import parse_sweep
from chipcost.xmlio import (parse_library, parse_netlist, parse_system,
                            serialize_library, serialize_netlist,
                            serialize_system)

LIB_XML = """
<library>
  <io name="lnk" tx_area="0.1" bandwidth="8" reach="1.5"
      wires_per_instance="4" energy_per_bit="0.7"/>
  <layer name="m1" cost_per_mm2="0.2" defect_density="0.01"
         clustering_factor="2" critical_area_fraction="0.5"/>
  <waferprocess name="w" wafer_diameter="300" edge_exclusion="3"
                scribe_x="0.1" scribe_y="0.1" reticle_x="33" reticle_y="26"/>
  <assembly name="a" pick_place_time="10" pick_place_rate="0.01"
            bond_time="20" bond_rate="0.02" die_separation="0.1"
            bonding_pitch="0.1" max_current_density="250"
            bond_yield="0.999" alignment_yield="0.999"/>
  <test name="t" cost_per_second="0.1" patterns="1000"
        scan_chain_length="100" clock_period="1e-8" fault_coverage="0.9"/>
</library>
"""

SYSTEM_XML = """
<chip name="top" core_area="0" core_power="0" core_voltage="1"
      quantity="1000" layers="m1" wafer_process="w" test_self="t"
      assembly_process="a" test_assembly="t" logic_fraction="0"
      memory_fraction="0" analog_fraction="1">
  <chip name="die" core_area="25" core_power="2" core_voltage="1"
        quantity="1000" layers="m1" wafer_process="w" test_self="t"/>
</chip>
"""

NETLIST_XML = """
<netlist>
  <net from="die" to="host" io="lnk" bandwidth="16"/>
</netlist>
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def libdir(tmp_path):
    d = tmp_path / "lib"
    d.mkdir()
    (d / "main.xml").write_text(LIB_XML)
    return str(d)


class TestLibraryParsing:
    def test_single_file_or_directory(self, tmp_path, libdir):
        from_dir = parse_library(libdir)
        from_file = parse_library(write(tmp_path, "lib.xml", LIB_XML))
        assert from_dir == from_file
        assert from_dir.ios["lnk"].bandwidth == 8.0

    def test_rx_area_defaults_to_tx(self, libdir):
        lib = parse_library(libdir)
        # the omission is kept, so a swept tx_area carries the receiver
        assert lib.ios["lnk"].rx_area is None
        assert lib.ios["lnk"].receiver_area == lib.ios["lnk"].tx_area == 0.1

    def test_merge_is_order_independent(self, tmp_path):
        extra = """
        <library>
          <layer name="m2" cost_per_mm2="0.1" defect_density="0.02"
                 clustering_factor="2" critical_area_fraction="0.4"/>
        </library>
        """
        for names in (("a.xml", "b.xml"), ("b.xml", "a.xml")):
            d = tmp_path / f"lib_{names[0]}"
            d.mkdir()
            (d / names[0]).write_text(LIB_XML)
            (d / names[1]).write_text(extra)
            lib = parse_library(str(d))
            assert set(lib.layers) == {"m1", "m2"}

    def test_duplicate_name_across_files_rejected(self, tmp_path):
        d = tmp_path / "lib"
        d.mkdir()
        (d / "a.xml").write_text(LIB_XML)
        (d / "b.xml").write_text(LIB_XML.replace('name="lnk"', 'name="lnk"'))
        with pytest.raises(cc.DuplicateNameError):
            parse_library(str(d))

    def test_same_name_different_kind_allowed(self, tmp_path):
        text = LIB_XML.replace('name="t"', 'name="a"')
        lib = parse_library(write(tmp_path, "lib.xml", text))
        assert "a" in lib.assembly_processes and "a" in lib.test_processes

    def test_unknown_attribute_rejected(self, tmp_path):
        text = LIB_XML.replace('bandwidth="8"', 'bandwidth="8" wat="1"')
        with pytest.raises(cc.ValidationError, match="unknown attribute"):
            parse_library(write(tmp_path, "lib.xml", text))

    def test_missing_attribute_names_the_element(self, tmp_path):
        text = LIB_XML.replace(' bandwidth="8"', "")
        with pytest.raises(cc.ValidationError, match="io name='lnk'"):
            parse_library(write(tmp_path, "lib.xml", text))

    def test_malformed_xml_reports_position(self, tmp_path):
        with pytest.raises(cc.XmlError, match="line"):
            parse_library(write(tmp_path, "lib.xml", "<library><io></library>"))

    def test_defect_density_unit_conversion(self, tmp_path):
        text = LIB_XML.replace(
            'defect_density="0.01"',
            'defect_density="1.0" defect_density_unit="per_cm2"')
        lib = parse_library(write(tmp_path, "lib.xml", text))
        assert lib.layers["m1"].defect_density == pytest.approx(0.01)

    def test_bad_density_unit_rejected(self, tmp_path):
        text = LIB_XML.replace(
            'defect_density="0.01"',
            'defect_density="1.0" defect_density_unit="per_inch2"')
        with pytest.raises(cc.ValidationError, match="defect_density_unit"):
            parse_library(write(tmp_path, "lib.xml", text))

    def test_non_numeric_attribute_rejected(self, tmp_path):
        text = LIB_XML.replace('bandwidth="8"', 'bandwidth="fast"')
        with pytest.raises(cc.ValidationError, match="not a number"):
            parse_library(write(tmp_path, "lib.xml", text))

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_attribute_rejected(self, tmp_path, raw):
        text = LIB_XML.replace('bandwidth="8"', f'bandwidth="{raw}"')
        with pytest.raises(cc.ValidationError, match="bandwidth.*finite"):
            parse_library(write(tmp_path, "lib.xml", text))

    @pytest.mark.parametrize("raw", ["1e308", "-1e20",
                                     "9007199254740992",
                                     "9007199254740993"])
    def test_integer_beyond_exact_doubles_rejected(self, tmp_path, raw):
        text = LIB_XML.replace('patterns="1000"',
                               f'patterns="1000" scan_chains="{raw}"')
        with pytest.raises(cc.ValidationError,
                           match="attribute 'scan_chains' must be an integer"):
            parse_library(write(tmp_path, "lib.xml", text))

    def test_largest_exact_integer_accepted(self, tmp_path):
        text = LIB_XML.replace('patterns="1000"',
                               'patterns="9007199254740991"')
        lib = parse_library(write(tmp_path, "lib.xml", text))
        assert lib.test_processes["t"].patterns == 2 ** 53 - 1

    def test_missing_path_is_config_error(self, tmp_path):
        with pytest.raises(cc.ConfigError):
            parse_library(str(tmp_path / "absent.xml"))

    def test_empty_directory_rejected(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        with pytest.raises(cc.ValidationError, match="no .xml files"):
            parse_library(str(d))


class TestSystemParsing:
    def test_tree_and_netlist(self, tmp_path, libdir):
        lib = parse_library(libdir)
        sys_ = parse_system(write(tmp_path, "sys.xml", SYSTEM_XML),
                            write(tmp_path, "net.xml", NETLIST_XML), lib)
        assert [c.name for c in sys_.root.walk()] == ["top", "die"]
        assert sys_.nets[0].bandwidth == 16.0
        assert sys_.nets[0].count is None

    def test_netlist_optional(self, tmp_path, libdir):
        lib = parse_library(libdir)
        sys_ = parse_system(write(tmp_path, "sys.xml", SYSTEM_XML), None, lib)
        assert sys_.nets == ()

    def test_layers_split_on_comma(self, tmp_path, libdir):
        lib = parse_library(libdir)
        text = SYSTEM_XML.replace('layers="m1"', 'layers="m1,m1"')
        sys_ = parse_system(write(tmp_path, "sys.xml", text), None, lib)
        assert sys_.root.layers == ("m1", "m1")
        assert sys_.root.children[0].layers == ("m1", "m1")

    def test_net_count_form(self, tmp_path, libdir):
        lib = parse_library(libdir)
        text = NETLIST_XML.replace('bandwidth="16"', 'count="3"')
        sys_ = parse_system(write(tmp_path, "sys.xml", SYSTEM_XML),
                            write(tmp_path, "net.xml", text), lib)
        assert sys_.nets[0].count == 3 and sys_.nets[0].bandwidth is None

    def test_fractional_net_count_rejected(self, tmp_path, libdir):
        lib = parse_library(libdir)
        text = NETLIST_XML.replace('bandwidth="16"', 'count="2.5"')
        with pytest.raises(cc.ValidationError, match="integer"):
            parse_system(write(tmp_path, "sys.xml", SYSTEM_XML),
                         write(tmp_path, "net.xml", text), lib)

    def test_validation_failure_propagates(self, tmp_path, libdir):
        lib = parse_library(libdir)
        text = SYSTEM_XML.replace('test_assembly="t"', 'test_assembly="gone"')
        with pytest.raises(cc.ValidationError, match="gone"):
            parse_system(write(tmp_path, "sys.xml", text), None, lib)


class TestRoundTrip:
    def test_library_survives_serialize_parse(self, tmp_path, libdir):
        lib = parse_library(libdir)
        again = parse_library(write(tmp_path, "out.xml",
                                    serialize_library(lib)))
        assert again == lib

    def test_system_and_netlist_survive(self, tmp_path, libdir):
        lib = parse_library(libdir)
        sys_ = parse_system(write(tmp_path, "sys.xml", SYSTEM_XML),
                            write(tmp_path, "net.xml", NETLIST_XML), lib)
        sys2 = parse_system(
            write(tmp_path, "sys2.xml", serialize_system(sys_.root)),
            write(tmp_path, "net2.xml", serialize_netlist(sys_.nets)), lib)
        assert sys2.root == sys_.root
        assert sys2.nets == sys_.nets

    def test_float_values_round_trip_exactly(self, tmp_path, libdir):
        lib = parse_library(libdir)
        clock = lib.test_processes["t"].clock_period
        again = parse_library(write(tmp_path, "out.xml",
                                    serialize_library(lib)))
        assert again.test_processes["t"].clock_period == clock

    @pytest.mark.parametrize("seed", range(20))
    def test_random_systems_survive_serialize_parse(self, tmp_path, seed):
        """Every field of every element, at generated non-default values."""
        system = make_system(seed)

        def bury_leaves(chip):
            if not chip.children:
                return dataclasses.replace(chip, buried=True,
                                           black_box_area=3.5,
                                           black_box_power=0.25)
            return dataclasses.replace(chip, children=tuple(
                bury_leaves(c) for c in chip.children))

        root = bury_leaves(system.root)
        lib = parse_library(write(tmp_path, "lib.xml",
                                  serialize_library(system.library)))
        again = parse_system(
            write(tmp_path, "sys.xml", serialize_system(root)),
            write(tmp_path, "net.xml", serialize_netlist(system.nets)), lib)
        assert lib == system.library
        assert again.root == root
        assert again.nets == system.nets


SWEEP_PARAM = '<param target="library.layer[m1].defect_density" {}/>'
PARAM_CTX = "<param library.layer[m1].defect_density>"

# (file kind, file text or None for an absent file, the message after
# "<path>: "); "{p}" stands for the file's path
BAD_INPUTS = {
    "bad_boolean": ("library", LIB_XML.replace(
        'reach="1.5"', 'reach="1.5" bidirectional="maybe"'),
        "<io name='lnk'>: attribute 'bidirectional' must be true or "
        "false, got 'maybe'"),
    "bad_density_unit": ("library", LIB_XML.replace(
        'defect_density="0.01"',
        'defect_density="0.01" defect_density_unit="per_inch2"'),
        "<layer name='m1'>: attribute 'defect_density_unit' must be one of "
        "['per_cm2', 'per_mm2'], got 'per_inch2'"),
    "bad_unit_of_absent_density": ("library", LIB_XML.replace(
        'bond_yield="0.999"',
        'bond_yield="0.999" dielectric_defect_density_unit="mm2"'),
        "<assembly name='a'>: attribute 'dielectric_defect_density_unit' "
        "must be one of ['per_cm2', 'per_mm2'], got 'mm2'"),
    "missing_before_unknown": ("library", LIB_XML.replace(
        ' bandwidth="8"', ' wat="1"'),
        "<io name='lnk'>: missing attribute 'bandwidth'"),
    "bad_value_before_unknown": ("library", LIB_XML.replace(
        'bandwidth="8"', 'bandwidth="x" wat="1"'),
        "<io name='lnk'>: attribute 'bandwidth' is not a number: 'x'"),
    "unknown_attributes": ("library", LIB_XML.replace(
        'bandwidth="8"', 'bandwidth="8" zz="1" aa="2"'),
        "<io name='lnk'>: unknown attribute(s): aa, zz"),
    "missing_library": ("library", None,
                        "[Errno 2] No such file or directory: '{p}'"),
    "missing_system": ("system", None,
                       "[Errno 2] No such file or directory: '{p}'"),
    "library_root": ("library", "<lib/>",
                     "expected <library> root, got <lib>"),
    "library_element": ("library", "<library><wafer name='w'/></library>",
                        "unknown library element <wafer>"),
    "system_root": ("system", "<die name='d'/>",
                    "expected <chip> root, got <die>"),
    "nested_element": ("system", SYSTEM_XML.replace("<chip name=\"die\"",
                                                    "<die name=\"die\""),
                       "expected <chip>, got <die>"),
    "netlist_root": ("netlist", "<nets/>",
                     "expected <netlist> root, got <nets>"),
    "netlist_element": ("netlist", "<netlist><link/></netlist>",
                        "unknown netlist element <link>"),
    "sweep_root": ("sweep", "<sweeps/>", "expected <sweep> root, got <sweeps>"),
    "sweep_attribute": ("sweep", "<sweep name='s'/>",
                        "<sweep>: unknown attribute(s): name"),
    "sweep_no_axes": ("sweep", "<sweep/>", "sweep defines no axes"),
    "sweep_element": ("sweep", "<sweep><axis/></sweep>",
                      "unknown sweep element <axis>"),
    "param_no_target": ("sweep", "<sweep><param values='1'/></sweep>",
                        "<param ?>: missing attribute 'target'"),
    "param_attribute": ("sweep", "<sweep>{}</sweep>".format(SWEEP_PARAM.format(
        'values="1" step="2"')),
        f"{PARAM_CTX}: unknown attribute(s): step"),
    "param_both": ("sweep", "<sweep>{}</sweep>".format(SWEEP_PARAM.format(
        'values="1" range="1:2:1"')),
        f"{PARAM_CTX}: <param> needs exactly one of values or range"),
    "range_form": ("sweep", "<sweep>{}</sweep>".format(SWEEP_PARAM.format(
        'range="1:2"')),
        f"{PARAM_CTX}: range must be start:stop:step, got '1:2'"),
    "range_number": ("sweep", "<sweep>{}</sweep>".format(SWEEP_PARAM.format(
        'range="1:x:1"')),
        f"{PARAM_CTX}: range '1:x:1' is not a number: 'x'"),
    "range_step": ("sweep", "<sweep>{}</sweep>".format(SWEEP_PARAM.format(
        'range="1:2:0"')), f"{PARAM_CTX}: range step must be > 0"),
    "param_field": ("sweep", "<sweep><param target='library.layer[m1].nope'"
                    " values='1'/></sweep>",
                    "<param library.layer[m1].nope>: layer 'm1' has no field "
                    "'nope'"),
    "range_size": ("sweep", "<sweep>{}</sweep>".format(SWEEP_PARAM.format(
        'range="0:1e6:1"')),
        f"{PARAM_CTX}: range '0:1e6:1' has more than 1000000 values"),
    "range_empty": ("sweep", "<sweep>{}</sweep>".format(SWEEP_PARAM.format(
        'range="2:1:1"')), f"{PARAM_CTX}: range '2:1:1' produces no values"),
    "split_no_counts": ("sweep", "<sweep><split chip='die' io='lnk' "
                        "side_bandwidth='1'/></sweep>",
                        "<split die>: missing attribute 'counts'"),
    "split_attribute": ("sweep", "<sweep><split chip='die' io='lnk' "
                        "side_bandwidth='1' counts='4' tiles='2'/></sweep>",
                        "<split die>: unknown attribute(s): tiles"),
    "split_count": ("sweep", "<sweep><split chip='die' io='lnk' "
                    "side_bandwidth='1' counts='4,x'/></sweep>",
                    "<split die>: <split> count is not a number: 'x'"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_message(tmp_path, libdir, case):
    """Each refusal names the file and says what is wrong, word for
    word."""
    kind, text, message = BAD_INPUTS[case]
    path = (str(tmp_path / f"{kind}.xml") if text is None
            else write(tmp_path, f"{kind}.xml", text))
    parse = {"library": parse_library, "netlist": parse_netlist,
             "sweep": parse_sweep,
             "system": lambda p: parse_system(p, None, parse_library(libdir))}
    with pytest.raises(cc.ConfigError) as info:
        parse[kind](path)
    assert str(info.value) == f"{path}: " + message.format(p=path)

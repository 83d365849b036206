import ast
import dataclasses
import pickle
from pathlib import Path

import pytest

import chipcost as cc
from chipcost import model
from chipcost.derive import NetTally, tally_nets
from chipcost.model import LIBRARY_KINDS, _field_checks, validate_library
from chipcost.sweep import FieldAxis, SplitAxis
from gensys import make_twins

# every record class chipcost.model defines
MODELS = tuple(v for v in vars(model).values()
               if dataclasses.is_dataclass(v)
               and v.__module__ == model.__name__)

IO = cc.IODefinition(name="io", tx_area=0.1, rx_area=0.2, bandwidth=8.0,
                     reach=1.0, wires_per_instance=4, energy_per_bit=0.5)
LAYER = cc.LayerDef(name="m", cost_per_mm2=0.1, defect_density=0.01,
                    clustering_factor=2.0, critical_area_fraction=0.5,
                    litho_fraction=0.2, mask_cost=1e6)
WAFER = cc.WaferProcessDef(name="w", wafer_diameter=300.0, edge_exclusion=3.0,
                           scribe_x=0.1, scribe_y=0.1, reticle_x=33.0,
                           reticle_y=26.0)
ASM = cc.AssemblyProcessDef(name="a", pick_place_time=10.0,
                            pick_place_group=1, pick_place_rate=0.01,
                            bond_time=20.0, bond_group=1, bond_rate=0.01,
                            material_cost_per_mm2=0.001, die_separation=0.1,
                            edge_exclusion=0.5, bonding_pitch=0.1,
                            max_current_density=250.0, bond_yield=0.999,
                            alignment_yield=0.999)
TEST = cc.TestProcessDef(name="t", cost_per_second=0.1, patterns=1000,
                         scan_chain_length=100, clock_period=1e-8,
                         fault_coverage=0.9)
NET = cc.NetSpec(source="inner", dest="host", io_type="io", bandwidth=1.0)


def lib():
    return cc.Library(ios={"io": IO}, layers={"m": LAYER},
                      wafer_processes={"w": WAFER},
                      assembly_processes={"a": ASM},
                      test_processes={"t": TEST})


def one(entry):
    """A Library holding only entry, in its kind's table."""
    tables = {attr: {} for attr, _, _ in LIBRARY_KINDS.values()}
    attr = next(attr for attr, cls, _ in LIBRARY_KINDS.values()
                if isinstance(entry, cls))
    tables[attr][entry.name] = entry
    return cc.Library(**tables)


def chip(**kw):
    base = dict(name="die", core_area=10.0, core_power=1.0, core_voltage=1.0,
                quantity=1000, layers=("m",), wafer_process="w",
                test_self="t", assembly_process="a")
    base.update(kw)
    return cc.ChipSpec(**base)


def test_valid_system_passes():
    sys_ = cc.validate_system(chip(), (), lib())
    assert sys_.root.name == "die"


def record(cls):
    """A record of the model class cls."""
    inner = chip(name="inner", assembly_process=None)
    system = cc.validate_system(chip(children=(inner,), test_assembly="t"),
                                (NET,), lib())
    made = {type(r): r for r in (IO, LAYER, WAFER, ASM, TEST, NET,
                                 system.root, system.library, system)}
    return made[cls]


# the package's other record classes, each with whether it is slotted
# and whether it hashes (a record holding a dict does not)
OTHER_RECORDS = {cc.ReticleFit: (True, True), cc.DerivedSystem: (True, False),
                 NetTally: (True, False), cc.CostReport: (True, False),
                 cc.SweepPlan: (True, True), FieldAxis: (False, True),
                 SplitAxis: (False, True)}


def other_record(cls):
    """A record of one of the OTHER_RECORDS classes."""
    system = record(cc.ValidatedSystem)
    axis = FieldAxis("library.layer[m].defect_density", (0.0, 0.1))
    made = (cc.reticle_fit(10.0, 33.0, 26.0), cc.derive(system),
            tally_nets(system.root, system.nets, system.library),
            cc.evaluate(cc.derive(system)), cc.SweepPlan(axes=(axis,)), axis,
            SplitAxis(chip="inner", counts=(1, 4), side_bandwidth=8.0,
                      io_type="io"))
    return {type(r): r for r in made}[cls]


class TestRecords:
    def test_there_are_nine_model_classes(self):
        assert len(MODELS) == 9

    def test_no_record_is_frozen_and_no_module_touches_dict(self):
        # one record convention: a dataclass nothing assigns to once it
        # is built, never a frozen one, and no instance dict written
        found = []
        for path in sorted(Path(cc.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.keyword) and node.arg == "frozen"
                        or isinstance(node, ast.Attribute)
                        and node.attr == "__dict__"):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    @pytest.mark.parametrize("cls", OTHER_RECORDS, ids=lambda c: c.__name__)
    def test_other_records_copy_equal_and_hash_as_they_hold(self, cls):
        obj = other_record(cls)
        copy = dataclasses.replace(obj)
        assert copy is not obj and copy == obj
        slotted, hashes = OTHER_RECORDS[cls]
        assert hasattr(obj, "__dict__") != slotted
        if hashes:
            assert hash(copy) == hash(obj)
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(obj)

    @pytest.mark.parametrize("cls", MODELS, ids=lambda c: c.__name__)
    def test_has_no_instance_dict(self, cls):
        obj = record(cls)
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            obj.brand_new = 0.0

    # Library and ValidatedSystem hold dicts, which do not hash
    @pytest.mark.parametrize("cls", [c for c in MODELS if c not in (
        cc.Library, cc.ValidatedSystem)], ids=lambda c: c.__name__)
    def test_equal_records_hash_equal(self, cls):
        obj = record(cls)
        copy = dataclasses.replace(obj)
        assert copy is not obj and copy == obj
        assert hash(copy) == hash(obj)
        assert len({obj, copy}) == 1

    @pytest.mark.parametrize("cls", (cc.Library, cc.ValidatedSystem),
                             ids=lambda c: c.__name__)
    def test_records_holding_dicts_do_not_hash(self, cls):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record(cls))

    @pytest.mark.parametrize("protocol",
                             range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_a_parsed_system_survives_pickling(self, gp_system, protocol):
        copy = pickle.loads(pickle.dumps(gp_system, protocol))
        assert copy is not gp_system and copy == gp_system
        assert (cc.report_to_json(cc.evaluate(cc.derive(copy)))
                == cc.report_to_json(cc.evaluate(cc.derive(gp_system))))


class TestLibraryValidators:
    def test_bidirectional_io_needs_symmetric_areas(self):
        with pytest.raises(cc.ValidationError, match="tx_area == rx_area"):
            validate_library(one(dataclasses.replace(IO, bidirectional=True)))
        validate_library(one(dataclasses.replace(IO, rx_area=0.1,
                                                 bidirectional=True)))

    def test_io_bandwidth_positive(self):
        with pytest.raises(cc.ValidationError, match="bandwidth"):
            validate_library(one(dataclasses.replace(IO, bandwidth=0.0)))

    def test_io_reach_positive(self):
        with pytest.raises(cc.ValidationError, match="reach"):
            validate_library(one(dataclasses.replace(IO, reach=0.0)))

    def test_layer_clustering_positive(self):
        with pytest.raises(cc.ValidationError, match="clustering_factor"):
            validate_library(one(dataclasses.replace(
                LAYER, clustering_factor=0.0)))

    def test_layer_critical_area_fraction_bounded(self):
        with pytest.raises(cc.ValidationError, match="critical_area_fraction"):
            validate_library(one(dataclasses.replace(
                LAYER, critical_area_fraction=1.5)))

    def test_layer_stitch_yield_open_at_zero(self):
        with pytest.raises(cc.ValidationError, match="stitch_yield"):
            validate_library(one(dataclasses.replace(LAYER,
                                                     stitch_yield=0.0)))

    def test_wafer_exclusion_must_leave_usable_area(self):
        with pytest.raises(cc.ValidationError, match="whole wafer"):
            validate_library(one(dataclasses.replace(WAFER,
                                                     edge_exclusion=150.0)))

    @pytest.mark.parametrize("x, y", [(1e308, 26.0), (1e-200, 1e-200)])
    def test_reticle_field_area_must_be_finite_and_positive(self, x, y):
        with pytest.raises(cc.ValidationError, match="reticle field"):
            validate_library(one(dataclasses.replace(WAFER, reticle_x=x,
                                                     reticle_y=y)))

    def test_wafer_dicing_values(self):
        with pytest.raises(cc.ValidationError, match="dicing"):
            validate_library(one(dataclasses.replace(WAFER, dicing="laser")))
        validate_library(one(dataclasses.replace(WAFER, dicing="free")))

    def test_assembly_groups_at_least_one(self):
        with pytest.raises(cc.ValidationError, match="group"):
            validate_library(one(dataclasses.replace(ASM, bond_group=0)))

    def test_assembly_bonding_pitch_positive(self):
        with pytest.raises(cc.ValidationError, match="bonding_pitch"):
            validate_library(one(dataclasses.replace(ASM,
                                                     bonding_pitch=0.0)))

    def test_test_coverage_bounded(self):
        with pytest.raises(cc.ValidationError, match="fault_coverage"):
            validate_library(one(dataclasses.replace(TEST,
                                                     fault_coverage=1.1)))

    def test_validate_library_walks_all_tables(self):
        bad = cc.Library(ios={}, layers={"m": dataclasses.replace(
            LAYER, cost_per_mm2=-1.0)}, wafer_processes={},
            assembly_processes={}, test_processes={})
        with pytest.raises(cc.ValidationError, match="cost_per_mm2"):
            validate_library(bad)


class TestChipValidation:
    def test_fractions_must_sum_to_one(self):
        bad = chip(logic_fraction=0.5, memory_fraction=0.2,
                   analog_fraction=0.2)
        with pytest.raises(cc.ValidationError, match="sum to 1"):
            cc.validate_system(bad, (), lib())

    def test_unknown_layer(self):
        with pytest.raises(cc.ValidationError, match="unknown layer"):
            cc.validate_system(chip(layers=("nope",)), (), lib())

    def test_layers_required(self):
        with pytest.raises(cc.ValidationError, match="at least one layer"):
            cc.validate_system(chip(layers=()), (), lib())

    def test_unknown_wafer_process(self):
        with pytest.raises(cc.ValidationError, match="unknown wafer"):
            cc.validate_system(chip(wafer_process="x"), (), lib())

    def test_root_requires_assembly_process(self):
        with pytest.raises(cc.ValidationError, match="assembly_process"):
            cc.validate_system(chip(assembly_process=None), (), lib())

    def test_parent_requires_test_assembly(self):
        inner = chip(name="inner", assembly_process=None)
        parent = chip(children=(inner,))
        with pytest.raises(cc.ValidationError, match="test_assembly"):
            cc.validate_system(parent, (), lib())

    def test_leaf_needs_no_assembly_process(self):
        inner = chip(name="inner", assembly_process=None)
        parent = chip(children=(inner,), test_assembly="t")
        cc.validate_system(parent, (), lib())

    def test_duplicate_chip_names_rejected(self):
        inner = chip(name="die", assembly_process=None)
        parent = chip(children=(inner,), test_assembly="t")
        with pytest.raises(cc.ValidationError, match="more than once"):
            cc.validate_system(parent, (), lib())

    def test_a_leaf_apart_from_a_passed_one_in_a_bad_field_is_named(self):
        # the checks of "a" pass; "b" is equal to it but for its name and
        # its quantity
        good = chip(name="a", assembly_process=None)
        bad = dataclasses.replace(good, name="b", quantity=0)
        parent = chip(children=(good, bad), test_assembly="t")
        with pytest.raises(cc.ValidationError, match="quantity") as err:
            cc.validate_system(parent, (), lib())
        assert err.value.context == "chip 'b'"

    def test_equal_leaves_sharing_a_name_are_repeated(self):
        leaf = chip(name="x", assembly_process=None)
        parent = chip(children=(leaf, dataclasses.replace(leaf)),
                      test_assembly="t")
        with pytest.raises(cc.ValidationError,
                           match="'x' appears more than once"):
            cc.validate_system(parent, (), lib())

    @pytest.mark.parametrize("seed", range(0, 200, 50))
    def test_leaves_equal_but_for_their_names_share_one_class(self, seed):
        # classes number the distinct non-root leaves in pre-order; the
        # root and every chip with children have none
        copies = 0
        for s in range(seed, seed + 50):
            system = make_twins(s)
            distinct = []
            want = {}
            for c in system.root.walk():
                if c.children or c is system.root:
                    want[c.name] = None
                    continue
                inputs = dataclasses.replace(c, name="")
                if inputs not in distinct:
                    distinct.append(inputs)
                want[c.name] = distinct.index(inputs)
            assert [(name, k) for name, (_, k)
                    in system.leaf_classes.items()] == list(want.items())
            # each entry holds the tree's own chip object
            assert all(system.leaf_classes[c.name][0] is c
                       for c in system.root.walk())
            copies += sum(k is not None for k in want.values()) - len(distinct)
        assert copies > 0

    @pytest.mark.parametrize("field", [name for name, _, _
                                       in _field_checks(cc.ChipSpec)])
    def test_a_leaf_with_a_nan_field_is_checked_in_full(self, field,
                                                        checked_chips):
        # NaN fails every range rule, so the NaN leaf "b" is checked
        # though a leaf equal to it in every other field passed, and no
        # NaN leaf is ever kept as one that passed
        good = chip(name="a", assembly_process=None)
        bad = dataclasses.replace(good, name="b", **{field: float("nan")})
        parent = chip(children=(good, bad), test_assembly="t")
        with pytest.raises(cc.ValidationError, match=field) as err:
            cc.validate_system(parent, (), lib())
        assert err.value.context == "chip 'b'"
        assert checked_chips == ["die", "a", "b"]

    def test_zero_quantity_rejected(self):
        with pytest.raises(cc.ValidationError, match="quantity"):
            cc.validate_system(chip(quantity=0), (), lib())

    def test_black_box_area_positive(self):
        with pytest.raises(cc.ValidationError, match="black_box_area"):
            cc.validate_system(chip(black_box_area=0.0), (), lib())


class TestNetValidation:
    def test_self_loop_rejected(self):
        net = cc.NetSpec(source="die", dest="die", io_type="io", bandwidth=1.0)
        with pytest.raises(cc.ValidationError, match="must differ"):
            cc.validate_system(chip(), (net,), lib())

    def test_unknown_io_type(self):
        net = cc.NetSpec(source="die", dest="x", io_type="nope", bandwidth=1.0)
        with pytest.raises(cc.ValidationError, match="unknown io type"):
            cc.validate_system(chip(), (net,), lib())

    def test_bandwidth_and_count_are_exclusive(self):
        net = cc.NetSpec(source="die", dest="x", io_type="io",
                         bandwidth=1.0, count=2)
        with pytest.raises(cc.ValidationError, match="exactly one"):
            cc.validate_system(chip(), (net,), lib())
        net = cc.NetSpec(source="die", dest="x", io_type="io")
        with pytest.raises(cc.ValidationError, match="exactly one"):
            cc.validate_system(chip(), (net,), lib())

    def test_dangling_net_rejected(self):
        net = cc.NetSpec(source="a", dest="b", io_type="io", bandwidth=1.0)
        with pytest.raises(cc.ValidationError, match="neither endpoint"):
            cc.validate_system(chip(), (net,), lib())

    def test_external_endpoint_allowed(self):
        net = cc.NetSpec(source="die", dest="host", io_type="io",
                         bandwidth=1.0)
        sys_ = cc.validate_system(chip(), (net,), lib())
        assert sys_.nets[0].dest == "host"

    def test_count_must_be_positive(self):
        net = cc.NetSpec(source="die", dest="x", io_type="io", count=0)
        with pytest.raises(cc.ValidationError, match="count"):
            cc.validate_system(chip(), (net,), lib())

    def test_utilization_bounded(self):
        net = cc.NetSpec(source="die", dest="x", io_type="io",
                         bandwidth=1.0, utilization=1.5)
        with pytest.raises(cc.ValidationError, match="utilization"):
            cc.validate_system(chip(), (net,), lib())

    # nets of one class (io type, bandwidth, count, utilization) run their
    # class checks once; each of these nets follows two of a class that
    # passed, and must be named as a lone net would be
    PASSING = cc.NetSpec(source="die", dest="x0", io_type="io",
                         bandwidth=1.0, utilization=0.5)

    def passed_then(self, net):
        return (self.PASSING, dataclasses.replace(self.PASSING, dest="x1"),
                net)

    @pytest.mark.parametrize("source, dest, message", [
        ("die", "die", "net[2] die->die: source and dest must differ"),
        ("a", "b", "net[2] a->b: neither endpoint names a chip in the tree"),
    ])
    def test_bad_endpoints_of_a_passed_class_are_named(self, source, dest,
                                                        message):
        nets = self.passed_then(dataclasses.replace(
            self.PASSING, source=source, dest=dest))
        with pytest.raises(cc.ValidationError) as err:
            cc.validate_system(chip(), nets, lib())
        assert str(err.value) == message

    @pytest.mark.parametrize("field, value, message", [
        ("io_type", "nope", "unknown io type 'nope'"),
        ("bandwidth", -1.0, "bandwidth must be > 0, got -1.0"),
        ("bandwidth", None, "exactly one of bandwidth or count is required"),
        ("count", 2, "exactly one of bandwidth or count is required"),
        ("utilization", 1.5, "utilization must be [0, 1], got 1.5"),
        ("utilization", float("nan"), "utilization must be [0, 1], got nan"),
    ])
    def test_a_net_apart_from_a_passed_class_in_one_field_is_named(
            self, field, value, message):
        nets = self.passed_then(dataclasses.replace(
            self.PASSING, dest="x2", **{field: value}))
        with pytest.raises(cc.ValidationError) as err:
            cc.validate_system(chip(), nets, lib())
        assert str(err.value) == f"net[2] die->x2: {message}"

    def test_class_checks_run_once_per_run_of_a_class(self, monkeypatch):
        # a, a, b, a, then utilization -0.0 and 0.0: the third "a" net
        # follows a net of another class, and the zeros are one class
        check = model.check_fields
        checked = []

        def counted(obj, context):
            checked.append(context)
            return check(obj, context)

        monkeypatch.setattr(model, "check_fields", counted)
        a = cc.NetSpec(source="die", dest="x", io_type="io", bandwidth=1.0)
        b = dataclasses.replace(a, utilization=0.5)
        nets = (a, dataclasses.replace(a, dest="y"), b,
                dataclasses.replace(a, dest="z"),
                dataclasses.replace(a, dest="w", utilization=-0.0),
                dataclasses.replace(a, dest="v", utilization=0.0))
        cc.validate_system(chip(), nets, lib())
        assert [c for c in checked if c.startswith("net")] == [
            "net[0] die->x", "net[2] die->x", "net[3] die->z",
            "net[4] die->w"]

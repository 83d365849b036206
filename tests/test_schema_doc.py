"""SCHEMA.md's attribute tables agree with the model dataclasses.

Each table lists one element's attributes with their types, ranges and
defaults; the dataclass behind the element is the record the parser,
serializer and validator read, so the two must name the same
attributes, agree on which are required, and give the same defaults and
the same valid ranges. The sweep's Execution section lists by hand the
library fields derive reads and the chip fields that name library
entries; the model's "derive" and "ref" metadata must say the same.
"""
import dataclasses
import os
import re

import pytest

from chipcost.model import (LIBRARY_KINDS, ChipSpec, NetSpec, derive_fields,
                            field_kinds, ref_fields)

SCHEMA = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "SCHEMA.md")
SECTIONS = {tag: cls for tag, (_, cls, _) in LIBRARY_KINDS.items()}
SECTIONS.update(chip=ChipSpec, net=NetSpec)


def doc_tables() -> dict[type, dict[str, dict[str, str]]]:
    """Attribute -> {column header: cell} of each element's table in
    SCHEMA.md; a row naming several attributes lists their defaults in
    order, or one default for all."""
    tables: dict[type, dict[str, dict[str, str]]] = {}
    cls = None
    header = None
    with open(SCHEMA, encoding="utf-8") as fh:
        for line in fh:
            heading = re.match(r"#+ (.*)", line)
            if heading:
                title = heading.group(1)
                tag = re.match(r"`<(\w+)>`", title)
                cls = SECTIONS.get(
                    tag.group(1) if tag else
                    {"System": "chip", "Netlist": "net"}.get(title))
                continue
            if cls is None or not line.startswith("|"):
                continue
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if cells[0] == "attribute":
                header = cells
                continue
            names = re.findall(r"`(\w+)`", cells[0])
            if not names:
                continue            # the |---| rule under the header
            row = dict(zip(header, cells))
            defaults = [d.strip() for d in row["default"].split(",")]
            if len(defaults) != len(names):
                defaults = defaults[:1] * len(names)
            tables.setdefault(cls, {}).update(
                (name, {**row, "default": default})
                for name, default in zip(names, defaults))
    return tables


def execution_text() -> str:
    """The sweep's Execution section, its whitespace runs made single
    spaces."""
    with open(SCHEMA, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("### Execution\n", 1)[1].split("\n## ", 1)[0]
    return " ".join(section.split())


TABLES = doc_tables()
EXECUTION = execution_text()
# A range in a type cell: a bound such as ">= 0" or an interval "(0, 1]".
RANGE = re.compile(r"[<>]=? ?-?\d+|[\[(]-?\d+, ?-?\d+[\])]")
CLASSES = sorted(SECTIONS.values(), key=lambda c: c.__name__)


def model_attributes(cls) -> dict[str, dataclasses.Field]:
    return {f.metadata.get("attr", f.name): f
            for f in dataclasses.fields(cls)
            if field_kinds(cls)[f.name] is not None}


def matches(doc: str, f: dataclasses.Field) -> bool:
    default = f.default
    if default is dataclasses.MISSING:
        return doc == "required"
    if f.name == "rx_area":              # the receiver defaults to tx_area
        return default is None and doc == "`tx_area`"
    if default is None:
        return doc in ("none", "-")
    if isinstance(default, bool):
        return doc == str(default).lower()
    if isinstance(default, str):
        return doc == f"`{default}`"
    try:
        return float(doc) == default
    except ValueError:
        return False


def test_every_element_has_a_table():
    assert set(TABLES) == set(SECTIONS.values())


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_table_matches_dataclass(cls):
    doc = {name: row["default"] for name, row in TABLES[cls].items()}
    model = model_attributes(cls)
    for name in [n for n in doc if n.endswith("_unit")]:
        base = model.get(name.removesuffix("_unit"))
        assert base is not None and base.metadata.get("unit"), name
        assert doc.pop(name) == "`per_mm2`"
    assert sorted(doc) == sorted(model)
    wrong = {name: doc[name] for name, f in model.items()
             if not matches(doc[name], f)}
    assert not wrong, f"defaults differ from {cls.__name__}: {wrong}"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_type_column_states_each_range(cls):
    model = model_attributes(cls)
    wrong = {}
    for name, row in TABLES[cls].items():
        f = model.get(name)                 # None for a *_unit row
        want = f.metadata.get("check") if f else None
        found = RANGE.search(row["type"])
        if (found and found.group(0)) != want:
            wrong[name] = (row["type"], want)
    assert not wrong, f"ranges differ from {cls.__name__}: {wrong}"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_every_number_field_declares_a_range(cls):
    kinds = field_kinds(cls)
    unchecked = [f.name for f in dataclasses.fields(cls)
                 if kinds[f.name] in (int, float) and "check" not in f.metadata]
    assert not unchecked


def test_derive_stage_lists_the_fields_derive_reads():
    # "every `<io>` attribute, the `<waferprocess>` geometry (`...`), ..."
    bullet = re.search(r"- `DERIVE`: (.*?); - `COST`", EXECUTION).group(1)
    parts = re.split(r"`<(\w+)>`", bullet)
    doc = {}
    for before, tag, after in zip(parts[0::2], parts[1::2], parts[2::2]):
        attrs = model_attributes(SECTIONS[tag])
        doc[tag] = (set(attrs) - {"name"} if before.endswith("every ")
                    else set(re.findall(r"`(\w+)`", after)))
    model = {tag: {a for a, f in model_attributes(cls).items()
                   if f.name in derive_fields(cls)}
             for tag, (_, cls, _) in LIBRARY_KINDS.items()}
    assert doc == {tag: attrs for tag, attrs in model.items() if attrs}


def test_cost_stage_lists_the_chip_references():
    # "... names: the `layers`, ... of every chip, and the ... of a chip
    # with children"
    found = re.search(r"a re-applied axis names: (.*?) of every chip, and "
                      r"(.*?) of a chip with children", EXECUTION)
    doc = {(name, parent)
           for parent, text in ((False, found.group(1)),
                                (True, found.group(2)))
           for name in re.findall(r"`(\w+)`", text)}
    assert doc == {(name, parent) for name, _, parent in ref_fields(ChipSpec)}

"""XML loading and writing for libraries, systems, and netlists.

Scalars are attributes, hierarchy is nesting. A library directory holds
any number of .xml files whose <library> roots each contribute <io>,
<layer>, <waferprocess>, <assembly>, and <test> definitions; files merge
in sorted order and a name collision of the same kind is an error, so
the result does not depend on listing order. The system file is a single
nested <chip> tree; the netlist file is a flat <netlist> of <net> rows.

Defect densities accept defects/mm2 (default) or defects/cm2 through a
*_unit attribute and are normalized to /mm2 at load time.

See SCHEMA.md at the repository root for the full format reference.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import os
import xml.etree.ElementTree as ET

from .errors import DuplicateNameError, ValidationError, XmlError
from .model import (LIBRARY_KINDS, ChipSpec, Library, NetSpec,
                    ValidatedSystem, field_kinds, validate_library,
                    validate_system)

_DENSITY_UNITS = {"per_mm2": 1.0, "per_cm2": 0.01}
# Largest integer magnitude an attribute or sweep value may hold: every
# whole number up to it is a double exactly, and no text rounds onto it.
MAX_INTEGER = 2 ** 53 - 1


def parse_number(text: str, what: str, context: str) -> float:
    """A finite float, or a ValidationError naming what was bad."""
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"{what} is not a number: '{text}'",
                              context) from None
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got '{text}'", context)
    return value


def to_integer(value: float, what: str, context: str) -> int:
    """A finite number as an int, if it is whole and a double holds it
    exactly; otherwise a ValidationError naming what was bad."""
    if value != int(value) or abs(value) > MAX_INTEGER:
        raise ValidationError(
            f"{what} must be an integer: integral and below 2**53 in "
            f"magnitude, got {value}", context)
    return int(value)


def _integer(text: str, what: str, context: str) -> int:
    return to_integer(parse_number(text, what, context), what, context)


def _flag(text: str, what: str, context: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValidationError(f"{what} must be true or false, got '{text}'",
                          context)


def _names(text: str, what: str, context: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


# An attribute's text as its field kind: reader(text, what, context).
_READERS = {str: lambda text, what, context: text, float: parse_number,
            int: _integer, bool: _flag, tuple: _names}


def _attr(elem: ET.Element, name: str, kind: type, required: bool,
          context: str):
    """elem's attribute `name` read as `kind`; None for an absent
    optional one."""
    raw = elem.get(name)
    if raw is None:
        if required:
            raise ValidationError(f"missing attribute '{name}'", context)
        return None
    return _READERS[kind](raw, f"attribute '{name}'", context)


def _refuse_unknown(elem: ET.Element, allowed: frozenset | tuple,
                    context: str):
    unknown = elem.attrib.keys() - allowed
    if unknown:
        raise ValidationError(
            f"unknown attribute(s): {', '.join(sorted(unknown))}", context)


@functools.cache
def _attributes(cls) -> tuple[tuple, frozenset[str]]:
    """(field, XML attribute, kind, required, unit attribute or None) for
    each attribute field of a model class, in declaration order, and the
    attribute names its element may carry. "attr" metadata of None marks
    a field no attribute sets; a "unit" field also takes <attr>_unit."""
    out = []
    for f in dataclasses.fields(cls):
        kind = field_kinds(cls)[f.name]
        attr = f.metadata.get("attr", f.name)
        if kind is None or attr is None:
            continue
        required = (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING)
        unit = f"{attr}_unit" if f.metadata.get("unit") else None
        out.append((f, attr, kind, required, unit))
    allowed = frozenset(name for _, attr, _, _, unit in out
                        for name in (attr, unit) if name)
    return tuple(out), allowed


def _parse_xml(path: str, tag: str) -> ET.Element:
    """The root element of the XML file at path, which must be <tag>."""
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        line, col = exc.position
        raise XmlError(f"line {line}, column {col}: {exc.msg}", path)
    except OSError as exc:
        raise XmlError(str(exc), path)
    if root.tag != tag:
        raise ValidationError(f"expected <{tag}> root, got <{root.tag}>",
                              path)
    return root


def _parse_fields(cls, elem: ET.Element, context: str, /, **given):
    """An instance of cls from elem's attributes; an absent optional
    attribute takes the field's default, and a defect density is
    normalized to /mm2 by its unit. `given` supplies the nested records,
    and any field the caller reads itself."""
    fields, allowed = _attributes(cls)
    for f, attr, kind, required, unit in fields:
        if f.name in given:
            continue
        value = _attr(elem, attr, kind, required, context)
        if unit is not None:
            scale = elem.get(unit, "per_mm2")
            if scale not in _DENSITY_UNITS:
                raise ValidationError(
                    f"attribute '{unit}' must be one of "
                    f"{sorted(_DENSITY_UNITS)}, got '{scale}'", context)
            if value is not None:
                value *= _DENSITY_UNITS[scale]
        if value is not None:
            given[f.name] = value
    _refuse_unknown(elem, allowed, context)
    return cls(**given)


def parse_library(path: str) -> Library:
    """A single library file, or a directory of them merged in name order."""
    tables: dict[str, dict] = {attr: {} for attr, _, _ in
                               LIBRARY_KINDS.values()}
    paths = [path]
    if os.path.isdir(path):
        paths = [os.path.join(path, n) for n in sorted(os.listdir(path))
                 if n.endswith(".xml")]
        if not paths:
            raise ValidationError("no .xml files found", path)
    for file in paths:
        root = _parse_xml(file, "library")
        for elem in root:
            if elem.tag not in LIBRARY_KINDS:
                raise ValidationError(
                    f"unknown library element <{elem.tag}>", file)
            table_name, cls, _ = LIBRARY_KINDS[elem.tag]
            context = f"{file}: <{elem.tag} name='{elem.get('name', '?')}'>"
            entry = _parse_fields(cls, elem, context)
            table = tables[table_name]
            if entry.name in table:
                raise DuplicateNameError(
                    f"{elem.tag} '{entry.name}' is defined more than once",
                    file)
            table[entry.name] = entry
    return validate_library(Library(**tables))


def _parse_chip(elem: ET.Element, path: str) -> ChipSpec:
    if elem.tag != "chip":
        raise ValidationError(f"expected <chip>, got <{elem.tag}>", path)
    context = f"{path}: <chip name='{elem.get('name', '?')}'>"
    return _parse_fields(ChipSpec, elem, context, children=tuple(
        _parse_chip(child, path) for child in elem))


def parse_netlist(path: str) -> tuple[NetSpec, ...]:
    root = _parse_xml(path, "netlist")
    nets = []
    for i, elem in enumerate(root):
        if elem.tag != "net":
            raise ValidationError(f"unknown netlist element <{elem.tag}>",
                                  path)
        nets.append(_parse_fields(NetSpec, elem, f"{path}: net[{i}]"))
    return tuple(nets)


def parse_system(system_path: str, netlist_path: str | None,
                 library: Library) -> ValidatedSystem:
    root_elem = _parse_xml(system_path, "chip")
    root = _parse_chip(root_elem, system_path)
    nets = parse_netlist(netlist_path) if netlist_path else ()
    return validate_system(root, nets, library)


# --- serialization -------------------------------------------------------

def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(value)
    return str(value)


def _elem(tag: str, obj) -> ET.Element:
    """obj's attribute fields in declaration order, then its nested
    records as child elements of the same tag."""
    e = ET.Element(tag)
    for f, attr, *_ in _attributes(type(obj))[0]:
        value = getattr(obj, f.name)
        if value is None or (f.metadata.get("sparse")
                             and value == f.default):
            continue
        e.set(attr, _text(value))
    for name, kind in field_kinds(type(obj)).items():
        if kind is None:
            e.extend(_elem(tag, child) for child in getattr(obj, name))
    return e


def _to_string(root: ET.Element) -> str:
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"


def serialize_library(lib: Library) -> str:
    root = ET.Element("library")
    for tag, (attr, _, _) in LIBRARY_KINDS.items():
        root.extend(_elem(tag, entry) for entry in getattr(lib, attr).values())
    return _to_string(root)


def serialize_system(root: ChipSpec) -> str:
    return _to_string(_elem("chip", root))


def serialize_netlist(nets: tuple[NetSpec, ...]) -> str:
    root = ET.Element("netlist")
    root.extend(_elem("net", net) for net in nets)
    return _to_string(root)

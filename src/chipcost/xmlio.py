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


class _Attrs:
    """One element's attributes with typed access and typo detection.

    Each reader returns None for an absent optional attribute.
    """

    def __init__(self, elem: ET.Element, context: str):
        self.attrib = elem.attrib
        self.context = context
        self.seen: set[str] = set()

    def text(self, name: str, required: bool):
        self.seen.add(name)
        raw = self.attrib.get(name)
        if raw is None and required:
            raise ValidationError(f"missing attribute '{name}'", self.context)
        return raw

    def number(self, name: str, required: bool):
        raw = self.text(name, required)
        if raw is None:
            return None
        return parse_number(raw, f"attribute '{name}'", self.context)

    def integer(self, name: str, required: bool):
        value = self.number(name, required)
        if value is None:
            return None
        return to_integer(value, f"attribute '{name}'", self.context)

    def flag(self, name: str, required: bool):
        raw = self.text(name, required)
        if raw is None:
            return None
        low = raw.strip().lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValidationError(
            f"attribute '{name}' must be true or false, got '{raw}'",
            self.context)

    def names(self, name: str, required: bool):
        raw = self.text(name, required)
        if raw is None:
            return None
        return tuple(s.strip() for s in raw.split(",") if s.strip())

    def density(self, name: str, required: bool):
        """A defect density normalized to /mm2 via its unit attribute."""
        value = self.number(name, required)
        unit = self.text(f"{name}_unit", False)
        if unit is None:
            unit = "per_mm2"
        if unit not in _DENSITY_UNITS:
            raise ValidationError(
                f"attribute '{name}_unit' must be one of "
                f"{sorted(_DENSITY_UNITS)}, got '{unit}'", self.context)
        return None if value is None else value * _DENSITY_UNITS[unit]

    def finish(self):
        unknown = set(self.attrib) - self.seen
        if unknown:
            raise ValidationError(
                f"unknown attribute(s): {', '.join(sorted(unknown))}",
                self.context)


_READERS = {str: _Attrs.text, float: _Attrs.number, int: _Attrs.integer,
            bool: _Attrs.flag, tuple: _Attrs.names}


@functools.cache
def _attributes(cls) -> tuple:
    """(field, XML attribute, reader, required) for each attribute field
    of a model class, in declaration order; "attr" metadata of None marks
    a field no attribute sets."""
    out = []
    for f in dataclasses.fields(cls):
        kind = field_kinds(cls)[f.name]
        attr = f.metadata.get("attr", f.name)
        if kind is None or attr is None:
            continue
        reader = _Attrs.density if f.metadata.get("unit") else _READERS[kind]
        required = (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING)
        out.append((f, attr, reader, required))
    return tuple(out)


def _parse_xml(path: str) -> ET.Element:
    try:
        return ET.parse(path).getroot()
    except ET.ParseError as exc:
        line, col = exc.position
        raise XmlError(f"line {line}, column {col}: {exc.msg}", path)
    except OSError as exc:
        raise XmlError(str(exc), path)


def _parse_fields(cls, elem: ET.Element, context: str, /, **given):
    """An instance of cls from elem's attributes; an absent optional
    attribute takes the field's default. `given` supplies the nested
    records, and any field the caller reads itself."""
    a = _Attrs(elem, context)
    for f, attr, read, required in _attributes(cls):
        value = read(a, attr, required)
        if value is not None:
            given.setdefault(f.name, value)
    a.finish()
    return cls(**given)


def parse_library_file(path: str, into: dict[str, dict]) -> None:
    root = _parse_xml(path)
    if root.tag != "library":
        raise ValidationError(f"expected <library> root, got <{root.tag}>",
                              path)
    for elem in root:
        if elem.tag not in LIBRARY_KINDS:
            raise ValidationError(f"unknown library element <{elem.tag}>",
                                  path)
        table_name, cls, _ = LIBRARY_KINDS[elem.tag]
        context = f"{path}: <{elem.tag} name='{elem.get('name', '?')}'>"
        entry = _parse_fields(cls, elem, context)
        table = into[table_name]
        if entry.name in table:
            raise DuplicateNameError(
                f"{elem.tag} '{entry.name}' is defined more than once", path)
        table[entry.name] = entry


def parse_library(path: str) -> Library:
    """A single library file, or a directory of them merged in name order."""
    tables: dict[str, dict] = {attr: {} for attr, _, _ in
                               LIBRARY_KINDS.values()}
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.endswith(".xml"))
        if not names:
            raise ValidationError("no .xml files found", path)
        for name in names:
            parse_library_file(os.path.join(path, name), tables)
    elif os.path.exists(path):
        parse_library_file(path, tables)
    else:
        raise XmlError("no such file or directory", path)
    return validate_library(Library(**tables))


def _parse_chip(elem: ET.Element, path: str) -> ChipSpec:
    if elem.tag != "chip":
        raise ValidationError(f"expected <chip>, got <{elem.tag}>", path)
    context = f"{path}: <chip name='{elem.get('name', '?')}'>"
    return _parse_fields(ChipSpec, elem, context, children=tuple(
        _parse_chip(child, path) for child in elem))


def parse_netlist(path: str) -> tuple[NetSpec, ...]:
    root = _parse_xml(path)
    if root.tag != "netlist":
        raise ValidationError(f"expected <netlist> root, got <{root.tag}>",
                              path)
    nets = []
    for i, elem in enumerate(root):
        if elem.tag != "net":
            raise ValidationError(f"unknown netlist element <{elem.tag}>",
                                  path)
        nets.append(_parse_fields(NetSpec, elem, f"{path}: net[{i}]"))
    return tuple(nets)


def parse_system(system_path: str, netlist_path: str | None,
                 library: Library) -> ValidatedSystem:
    root_elem = _parse_xml(system_path)
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
    for f, attr, _, _ in _attributes(type(obj)):
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

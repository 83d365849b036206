"""Report serialization: canonical JSON and CSV breakdown rows, both
over the report's node list, so neither walks the tree.

Output is byte-deterministic for identical inputs: keys are sorted,
floats go through repr (JSON) or 9 significant digits (CSV), and
infinite costs are tagged rather than emitted as non-standard JSON.
Nodes whose figures are the very same objects (a copied tile and its
twin) share one encoded record and one set of CSV cells, and json's C
encoder writes the head as well as the records, with the two nested
values and the node list spliced in where the head holds [].
"""
from __future__ import annotations

import csv
import io
import json
import math
from operator import is_

from .engine import CostReport, NodeCosts

SCHEMA_VERSION = 1


def _num(value: float):
    return value if math.isfinite(value) else None


# NodeCosts fields as JSON keys, in key order: the unit goes into two of
# the names, and children are listed flat in "nodes" instead of nested.
# "name" and "path", the only str fields, sort between "infeasible" and
# "power_w", so a record without them is written once and each node's
# text is spliced from it around its own two strings.
_FIGURES = sorted(
    ({"area": "area_mm2", "power": "power_w"}.get(name, name), name,
     name != "infeasible")
    for name in NodeCosts._fields
    if name not in ("name", "path", "children"))
# Without indent, json writes through its C encoder: separators carry
# the indents of json.dumps(indent=2) at each depth.
_RECORDS = json.JSONEncoder(separators=(",\n      ", ": "), allow_nan=False)
_NESTED = json.JSONEncoder(separators=(",\n    ", ": "), sort_keys=True,
                           allow_nan=False)
_HEAD = json.JSONEncoder(separators=(",\n  ", ": "), sort_keys=True,
                         allow_nan=False)
_str = json.encoder.encode_basestring_ascii


def _distinct_records(nodes) -> tuple[list[NodeCosts], list[int]]:
    """The nodes with distinct figures, first of each, and for each node
    the index of its own among them: a node whose figures n[2:-1] are the
    very objects of those of the last one kept under the same cost_re
    shares its record. Identity, never equality: 0.0 == -0.0, and
    records that differ elsewhere can share one infinite cost_re."""
    firsts, index = [], []
    kept = {}       # id(cost_re) -> (index, figures) of the last one kept
    for n in nodes:
        figures = n[2:-1]
        hit = kept.get(id(n.cost_re))
        if hit is None or not all(map(is_, figures, hit[1])):
            hit = kept[id(n.cost_re)] = (len(firsts), figures)
            firsts.append(n)
        index.append(hit[0])
    return firsts, index


def _nested(value) -> str:
    """A dict or list as json.dumps(indent=2) writes it one level down."""
    text = _NESTED.encode(value)
    return f"{text[0]}\n    {text[1:-1]}\n  {text[-1]}" if value else text


def report_to_json(report: CostReport) -> str:
    """The report as json.dumps(indent=2, sort_keys=True) writes it."""
    # the three values written apart go where the head holds []: no
    # other value of the head is a list
    a, b, c, d = _HEAD.encode({
        "schema_version": SCHEMA_VERSION,
        "cost_total": _num(report.cost_total),
        "cost_re": _num(report.cost_re),
        "cost_nre": _num(report.cost_nre),
        "breakdown": [],
        "yield_chip": _num(report.root.yield_chip),
        "quality_shipped": _num(report.root.quality_shipped),
        "area_mm2": _num(report.root.area),
        "power_w": _num(report.root.power),
        "infeasible": report.infeasible,
        "infeasible_paths": [],
        "nodes": [],
    })[1:-1].split("[]")
    nodes = report.nodes
    firsts, index = _distinct_records(nodes)
    # one C-encoder call writes every distinct record; records hold no
    # str, so each one's braces and "power_w" key are found by text alone
    records = _RECORDS.encode([
        {key: _num(getattr(n, name)) if is_float else getattr(n, name)
         for key, name, is_float in _FIGURES} for n in firsts])
    parts = []
    end = 0
    for _ in firsts:
        start = records.index("{", end) + 1
        cut = records.index('"power_w"', start)
        end = records.index("}", cut)
        parts.append((f'{{\n      {records[start:cut]}"name": ',
                      f',\n      {records[cut:end]}\n    }}'))
    breakdown = {k: _num(v) for k, v in report.breakdown.items()}
    out = [f"{{\n  {a}{_nested(breakdown)}{b}"
           f"{_nested(list(report.infeasible_paths))}{c}[\n    "]
    for n, i in zip(nodes, index):
        pre, post = parts[i]
        out += (pre, _str(n.name), ',\n      "path": ', _str(n.path), post,
                ",\n    ")
    out[-1] = f"\n  ]{d}\n}}\n"     # the last node closes the list
    return "".join(out)


def format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if not math.isfinite(value):
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    return format(value, ".9g")


def csv_text(kind: str, header: list[str], rows) -> str:
    """A chipcost-KIND CSV: the schema comment line, the header, then the
    rows, each an iterable of cells the caller has formatted."""
    buf = io.StringIO()
    buf.write(f"# schema: chipcost-{kind}-{SCHEMA_VERSION}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def report_to_csv(report: CostReport) -> str:
    """(node path, category, USD) rows, five per node in pre-order, whose
    values sum to the total; then the TOTAL row."""
    nodes = report.nodes
    firsts, index = _distinct_records(nodes)
    cells = [(format_value(n.cost_die), format_value(n.cost_assembly),
              format_value(n.cost_test_self + n.cost_test_assembly),
              format_value(n.cost_scrap), format_value(n.cost_nre_self))
             for n in firsts]
    rows = []
    for n, i in zip(nodes, index):
        path = n.path
        silicon, assembly, test, scrap, nre = cells[i]
        rows += ((path, "silicon", silicon), (path, "assembly", assembly),
                 (path, "test", test), (path, "scrap", scrap),
                 (path, "nre", nre))
    rows.append(("TOTAL", "total", format_value(report.cost_total)))
    return csv_text("report", ["node", "category", "cost_usd"], rows)

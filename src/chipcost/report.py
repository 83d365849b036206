"""Report serialization: canonical JSON and delimited breakdown rows.

Output is byte-deterministic for identical inputs: keys are sorted,
floats go through repr (JSON) or 9 significant digits (CSV), and
infinite costs are tagged rather than emitted as non-standard JSON.
"""
from __future__ import annotations

import csv
import io
import json
import math

from .engine import CostReport, NodeCosts

SCHEMA_VERSION = 1


def _num(value: float):
    return value if math.isfinite(value) else None


# NodeCosts fields as JSON keys, in key order: the unit goes into two of
# the names, and children are listed flat in "nodes" instead of nested.
_NODE_KEYS = sorted(
    ({"area": "area_mm2", "power": "power_w"}.get(name, name), name,
     name not in ("name", "path", "infeasible"))
    for name in NodeCosts._fields if name != "children")
# Without indent, json writes each flat record through its C encoder.
_RECORDS = json.JSONEncoder(separators=(",\n      ", ": "), allow_nan=False)


def report_to_json(report: CostReport) -> str:
    """The report as json.dumps(indent=2, sort_keys=True) writes it."""
    head = json.dumps({
        "schema_version": SCHEMA_VERSION,
        "cost_total": _num(report.cost_total),
        "cost_re": _num(report.cost_re),
        "cost_nre": _num(report.cost_nre),
        "breakdown": {k: _num(v) for k, v in report.breakdown.items()},
        "yield_chip": _num(report.root.yield_chip),
        "quality_shipped": _num(report.root.quality_shipped),
        "area_mm2": _num(report.root.area),
        "power_w": _num(report.root.power),
        "infeasible": report.infeasible,
        "infeasible_paths": list(report.infeasible_paths),
        "nodes": None,
    }, indent=2, sort_keys=True, allow_nan=False)
    records = _RECORDS.encode([
        {key: _num(getattr(n, name)) if is_float else getattr(n, name)
         for key, name, is_float in _NODE_KEYS} for n in report.nodes])
    # an encoded string holds no raw newline: "},\n      {" ends a record
    nodes = records[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
    before, after = head.split('\n  "nodes": null')
    return (f'{before}\n  "nodes": [\n    {{\n      {nodes}\n    }}\n  ]'
            f'{after}\n')


def breakdown_rows(report: CostReport) -> list[tuple[str, str, float]]:
    """(node path, category, USD) rows whose values sum to the total."""
    rows = []
    for n in report.nodes:
        rows.append((n.path, "silicon", n.cost_die))
        rows.append((n.path, "assembly", n.cost_assembly))
        rows.append((n.path, "test", n.cost_test_self + n.cost_test_assembly))
        rows.append((n.path, "scrap", n.cost_scrap))
        rows.append((n.path, "nre", n.cost_nre_self))
    return rows


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
    rows = [[path, category, format_value(value)]
            for path, category, value in breakdown_rows(report)]
    rows.append(["TOTAL", "total", format_value(report.cost_total)])
    return csv_text("report", ["node", "category", "cost_usd"], rows)

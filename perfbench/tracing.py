"""Span recording around chipcost's public entry points.

`Tracer.install` replaces each traced name in every loaded chipcost
module whose attribute is the original function, so calls the package
makes into itself (cli -> parse_*, sweep -> derive, engine ->
dies_per_wafer) go through a wrapper. Each wrapper records one span
(name, start, end, parent, size) in memory; `size` is the length of a
returned string (report bytes) or the chip/node count of a derived
system or cost report. Nothing is written until `dump`.

`summarize` turns a dumped trace into the per-layer metrics. A span's
self time is its duration minus the durations of its child spans; the
traced run is serial, so children never overlap.
"""
from __future__ import annotations

import functools
import json
import sys
import time

TRACED = ("parse_library", "parse_system", "parse_sweep", "run_sweep",
          "apply_field", "apply_split", "validate_system", "derive",
          "evaluate", "dies_per_wafer", "reticle_fit", "sweep_to_csv",
          "report_to_json")


def _size(result) -> int:
    """Bytes of a report string, chips of a DerivedSystem, nodes of a
    CostReport; 0 for anything else."""
    if isinstance(result, str):
        return len(result.encode("utf-8"))
    if hasattr(result, "matrices"):
        return sum(1 for _ in result.root.walk())
    if hasattr(result, "infeasible_paths"):
        return len(result.nodes)
    return 0


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = [name, t0, t1, parent, 0]
            spans[idx][4] = _size(out)
            return out

        return traced

    def install(self, package) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__
                   or n.startswith(package.__name__ + ".")]
        for name in TRACED:
            orig = next(getattr(m, name) for m in modules
                        if getattr(getattr(m, name, None), "__module__",
                                   None) == m.__name__)
            layer = orig.__module__.rsplit(".", 1)[-1]
            wrapped = self.wrap(f"{layer}.{name}", orig)
            for mod in modules:
                if getattr(mod, name, None) is orig:
                    setattr(mod, name, wrapped)

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=self.spans), fh)


def summarize(trace: dict) -> dict[str, float]:
    """Per-layer metrics from one dumped trace.

    Sweep-stage figures count only spans under `run_sweep`, so the
    validation done once at parse time is not charged to the sweep.
    """
    spans = trace["spans"]
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]
    in_sweep = [False] * len(spans)
    for i, s in enumerate(spans):       # parents precede their children
        p = s[3]
        in_sweep[i] = p >= 0 and (in_sweep[p]
                                  or spans[p][0] == "sweep.run_sweep")

    def total(names, sweep_only=True, self_time=False):
        t, n, size = 0.0, 0, 0
        for i, s in enumerate(spans):
            if s[0] in names and (in_sweep[i] or not sweep_only):
                t += dur[i] - (child_time[i] if self_time else 0.0)
                n += 1
                size += s[4]
        return t, n, size

    parse_s, _, _ = total(("xmlio.parse_library", "xmlio.parse_system"),
                          sweep_only=False)
    sweep_parse_s, _, _ = total(("sweep.parse_sweep",), sweep_only=False)
    apply_s, _, _ = total(("sweep.apply_field", "sweep.apply_split"))
    validate_s, validate_n, _ = total(("model.validate_system",))
    derive_s, derive_n, derive_chips = total(("derive.derive",),
                                             self_time=True)
    engine_s, engine_n, engine_nodes = total(("engine.evaluate",),
                                             self_time=True)
    packing_s, packing_n, _ = total(("wafer.dies_per_wafer",))
    reticle_s, reticle_n, _ = total(("wafer.reticle_fit",))
    csv_s, _, csv_bytes = total(("sweep.sweep_to_csv",), sweep_only=False)
    json_s, _, json_bytes = total(("report.report_to_json",),
                                  sweep_only=False)
    sweep_s, _, _ = total(("sweep.run_sweep",), sweep_only=False)
    cache = trace["cache"]
    return {
        "cli.import_s": trace["import_s"],
        "xmlio.parse_s": parse_s,
        "sweep.parse_s": sweep_parse_s,
        "sweep.apply_s": apply_s,
        "sweep.run_s": sweep_s,
        "model.validate_s": validate_s,
        "model.validate_calls": validate_n,
        "derive.self_s": derive_s,
        "derive.calls": derive_n,
        "derive.chips": derive_chips,
        "engine.self_s": engine_s,
        "engine.calls": engine_n,
        "engine.nodes": engine_nodes,
        "wafer.packing_s": packing_s,
        "wafer.packing_calls": packing_n,
        "wafer.reticle_s": reticle_s,
        "wafer.reticle_calls": reticle_n,
        "wafer.cache_hits": cache["hits"],
        "wafer.cache_misses": cache["misses"],
        "report.csv_s": csv_s,
        "report.json_s": json_s,
        "report.bytes": csv_bytes + json_bytes,
    }

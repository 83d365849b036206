"""Per-stage timings of one graph_processor split point.

    python3 tests/stage_times.py [--tiles 1,16,64,256,1024] [--rounds 25]

Splits the "tile" chip of configs/graph_processor into n tiles, as a
`<split>` sweep axis does (side bandwidth 1024 Gbit/s over mesh_link),
and runs each stage of that point once per round, in pipeline order:
apply_split, validate_system, tally_nets, derive (which runs tally_nets
again), evaluate, report_to_json and report_to_csv. It prints one JSON
line: {"python": ..., "rounds": R, "ms": {n: {stage: best ms}}}, each
figure the fastest of the R rounds.

The package is imported from the src/ beside this file, so a copy of
another commit times that commit. Stdlib only; pytest does not collect
this file (its name does not start with test_).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import chipcost as cc  # noqa: E402
from chipcost.derive import tally_nets  # noqa: E402
from chipcost.sweep import SplitAxis, apply_split  # noqa: E402

STAGES = ("apply_split", "validate_system", "tally_nets", "derive",
          "evaluate", "report_to_json", "report_to_csv")


def stage_times(tiles, rounds: int) -> dict[str, dict[str, float]]:
    """{n: {stage: best ms over the rounds}} for each count in tiles."""
    config = os.path.join(ROOT, "configs", "graph_processor")
    lib = cc.parse_library(os.path.join(config, "library.xml"))
    base = cc.parse_system(os.path.join(config, "system.xml"),
                           os.path.join(config, "netlist.xml"), lib)
    clock = time.perf_counter
    out = {}
    for n in tiles:
        axis = SplitAxis(chip="tile", counts=(n,), side_bandwidth=1024.0,
                         io_type="mesh_link")
        best = dict.fromkeys(STAGES, float("inf"))
        for _ in range(rounds):
            t = [clock()]
            lib, root, nets = apply_split(base.library, base.root,
                                          base.nets, axis, n)
            t.append(clock())
            system = cc.validate_system(root, nets, lib)
            t.append(clock())
            tally_nets(system.root, system.nets, system.library)
            t.append(clock())
            derived = cc.derive(system)
            t.append(clock())
            report = cc.evaluate(derived)
            t.append(clock())
            cc.report_to_json(report)
            t.append(clock())
            cc.report_to_csv(report)
            t.append(clock())
            for stage, t0, t1 in zip(STAGES, t, t[1:]):
                best[stage] = min(best[stage], t1 - t0)
        out[str(n)] = {stage: round(s * 1e3, 4) for stage, s in best.items()}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tiles", default="1,16,64,256,1024",
                        help="comma-separated split counts (perfect squares)")
    parser.add_argument("--rounds", type=int, default=25)
    args = parser.parse_args(argv)
    tiles = [int(n) for n in args.tiles.split(",")]
    print(json.dumps({"python": platform.python_version(),
                      "rounds": args.rounds,
                      "ms": stage_times(tiles, args.rounds)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

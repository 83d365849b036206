"""Command line entry points.

Exit codes: 0 on success, 2 on any configuration problem (bad XML,
failed validation, unresolved references, an --out or stdout that
cannot be written), 3 when the system is valid but infeasible
(infinite cost); the report is still written in that case so the
infeasible nodes can be inspected.
"""
from __future__ import annotations

import argparse
import os
import sys

from .derive import derive
from .engine import evaluate
from .errors import ConfigError
from .report import report_to_csv, report_to_json
from .sweep import parse_sweep, run_sweep, sweep_to_csv
from .xmlio import parse_library, parse_system

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _add_system_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", required=True,
                   help="system description XML (nested chip tree)")
    p.add_argument("--netlist", default=None,
                   help="netlist XML; omit for a system with no nets")
    p.add_argument("--library", required=True,
                   help="library XML file, or a directory of them")
    p.add_argument("--out", default=None,
                   help="output path (default: stdout)")


def _jobs(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a whole number, got '{text}'") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _write(text: str, out_path: str | None) -> None:
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not out_path:
            # drop what stdout still buffers, or the flush at exit fails too
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ConfigError(f"cannot write: {exc.strerror}",
                          out_path or "<stdout>")


def _load(args) :
    library = parse_library(args.library)
    return parse_system(args.system, args.netlist, library)


def _cmd_eval(args) -> int:
    system = _load(args)
    report = evaluate(derive(system))
    if args.format == "json":
        _write(report_to_json(report), args.out)
    else:
        _write(report_to_csv(report), args.out)
    return EXIT_INFEASIBLE if report.infeasible else EXIT_OK


def _cmd_sweep(args) -> int:
    system = _load(args)
    plan = parse_sweep(args.sweep)
    rows = run_sweep(system, plan, jobs=args.jobs)
    _write(sweep_to_csv(plan, rows), args.out)
    return EXIT_INFEASIBLE if any(row[-1] for row in rows) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chipcost",
        description="Cost and yield analysis for chiplet systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one system")
    _add_system_args(p_eval)
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.set_defaults(fn=_cmd_eval)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    _add_system_args(p_sweep)
    p_sweep.add_argument("--sweep", required=True, help="sweep definition XML")
    p_sweep.add_argument("--jobs", type=_jobs, default=1,
                         help="processes to deal the outermost visited "
                              "axis's values to, round-robin, forked, at "
                              "most one per usable CPU and one per value; "
                              "the output is byte-identical to --jobs 1. "
                              "Forks nothing without fork or on one CPU")
    p_sweep.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

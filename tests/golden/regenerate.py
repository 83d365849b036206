"""Golden sha256 digests of chipcost's byte-deterministic outputs.

`compute()` rebuilds every output below and hashes it; `test_golden.py`
compares the result with `digests.json`. The outputs covered:

- `eval` JSON and CSV reports of each study under `configs/`;
- the CSV of every sweep file shipped with a study, run on that study;
- `serialize_library`, `serialize_system` and `serialize_netlist` of
  each study as parsed;
- one digest over the JSON and CSV reports of `gensys.make_system(0..999)`,
  and one over the serialized library, system and netlist of the same
  systems (every model field, at non-default values);
- one digest over the JSON and CSV reports of `gensys.make_layers(0..199)`,
  whose chips sit on up to four layers, so a change in how a per-layer
  total adds shows;
- one digest over the JSON and CSV reports of `gensys.make_twins(0..199)`,
  whose twin leaves derive copies and evaluate costs once, so a change
  in either reuse shows.

A deliberate change of numbers or formats regenerates the file:

    PYTHONPATH=src python tests/golden/regenerate.py

and CHANGES.md says which digests moved and why. `--check` writes
nothing: it prints the name of each digest that differs from the file
and exits 1 if any does, 0 if none. It needs no pytest (nor numpy), so
any installed interpreter can check byte-determinism on its own:

    python3.12 tests/golden/regenerate.py --check
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TESTS = os.path.dirname(HERE)
CONFIGS = os.path.join(os.path.dirname(TESTS), "configs")
SRC = os.path.join(os.path.dirname(TESTS), "src")
DIGESTS = os.path.join(HERE, "digests.json")
GENSYS_SEEDS = range(1000)
LAYERS_SEEDS = range(200)
TWINS_SEEDS = range(200)

for path in (SRC, TESTS):
    if path not in sys.path:
        sys.path.insert(0, path)

import chipcost as cc  # noqa: E402
from gensys import make_layers, make_system, make_twins  # noqa: E402


def _sha(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
    return h.hexdigest()


def _serialized(system: cc.ValidatedSystem) -> tuple[str, str, str]:
    return (cc.serialize_library(system.library),
            cc.serialize_system(system.root),
            cc.serialize_netlist(system.nets))


def study_digests(study: str) -> dict[str, str]:
    d = os.path.join(CONFIGS, study)
    library = cc.parse_library(os.path.join(d, "library.xml"))
    system = cc.parse_system(os.path.join(d, "system.xml"),
                             os.path.join(d, "netlist.xml"), library)
    report = cc.evaluate(cc.derive(system))
    out = {
        f"eval/{study}.json": _sha(cc.report_to_json(report)),
        f"eval/{study}.csv": _sha(cc.report_to_csv(report)),
    }
    for kind, text in zip(("library", "system", "netlist"),
                          _serialized(system)):
        out[f"serialize/{study}/{kind}.xml"] = _sha(text)
    for sweep_path in sorted(glob.glob(os.path.join(d, "*sweep*.xml"))):
        plan = cc.parse_sweep(sweep_path)
        csv = cc.sweep_to_csv(plan, cc.run_sweep(system, plan))
        name = os.path.splitext(os.path.basename(sweep_path))[0]
        out[f"sweep/{study}/{name}.csv"] = _sha(csv)
    return out


def _add_reports(h, system: cc.ValidatedSystem) -> None:
    report = cc.evaluate(cc.derive(system))
    for text in (cc.report_to_json(report), cc.report_to_csv(report)):
        h.update(text.encode("utf-8"))


def _span(seeds: range) -> str:
    return f"{seeds.start}-{seeds.stop - 1}"


def gensys_digests() -> dict[str, str]:
    reports = hashlib.sha256()
    serialized = hashlib.sha256()
    for seed in GENSYS_SEEDS:
        system = make_system(seed)
        _add_reports(reports, system)
        for text in _serialized(system):
            serialized.update(text.encode("utf-8"))
    out = {f"gensys/{_span(GENSYS_SEEDS)}/reports": reports.hexdigest(),
           f"gensys/{_span(GENSYS_SEEDS)}/serialized":
               serialized.hexdigest()}
    for name, make, seeds in (("layers", make_layers, LAYERS_SEEDS),
                              ("twins", make_twins, TWINS_SEEDS)):
        h = hashlib.sha256()
        for seed in seeds:
            _add_reports(h, make(seed))
        out[f"gensys-{name}/{_span(seeds)}/reports"] = h.hexdigest()
    return out


def compute() -> dict[str, str]:
    out = {}
    for study in sorted(os.listdir(CONFIGS)):
        out.update(study_digests(study))
    out.update(gensys_digests())
    return out


def load() -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def differing(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """Names of the digests missing from either side or unequal."""
    return sorted(k for k in got.keys() | want.keys()
                  if got.get(k) != want.get(k))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the file instead of writing it")
    args = parser.parse_args()
    digests = compute()
    if args.check:
        moved = differing(digests, load())
        for name in moved:
            print(name)
        print(f"{len(moved)} of {len(digests)} digests differ "
              f"(Python {sys.version.split()[0]})", file=sys.stderr)
        sys.exit(1 if moved else 0)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")

"""Steadiness self-check: two sets of runs of the same code.

    python3 perfbench/steady.py

Runs `run.py` once per seed, one run at a time, for every workload in
BENCHMARK.json and its `run_seconds`: set 0 uses seeds 1-10, set 1 seeds
1001-1010, so the sets share no inputs (the shape of every design is
fixed, so only values change with the seed). For every end-to-end
metric on every workload it prints each set's median and quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, and
checks them against the metric's bound:

  spread  each set's spread is within the bound
  shift   the two set medians differ by at most the bound, taken
          relative to the smaller of the two, whichever set is faster
  failed  the share of failed operations is the same in every run

The raw runs and the verdicts go to perfbench/out/steady.json.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SET_SEEDS = (range(1, 11), range(1001, 1011))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["log"] = proc.stderr
    return result


def stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]

    report = {"runs": {}, "verdicts": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for k, seeds in enumerate(SET_SEEDS):
            results = []
            for seed in seeds:
                t0 = time.perf_counter()
                res = run_once(workload, seed, seconds)
                res["seed"] = seed
                res["wall_s"] = time.perf_counter() - t0
                results.append(res)
                print(f"{workload} set {k} seed {seed}: "
                      f"{res['wall_s']:.1f} s, "
                      + ", ".join(f"{n}={v['value']:.5g}"
                                  for n, v in res["metrics"].items()),
                      file=sys.stderr)
            sets.append(results)
        report["runs"][workload] = sets
        shares = {r["failed"] / r["attempted"] for s in sets for r in s}
        correct = all(r["correct"] for s in sets for r in s)
        verdict = {"failed_share": sorted(shares),
                   "failed_ok": len(shares) == 1, "correct": correct}
        ok &= len(shares) == 1 and correct
        print(f"\n{workload}: failed share {sorted(shares)}, "
              f"correct {correct}")
        print(f"  {'metric':<20}" + "".join(
            f"{'set ' + str(k) + ' median [q1, q3] spread':>44}"
            for k in range(len(sets))) + "   bound  shift  verdict")
        for spec in bench["end_to_end"]:
            name = spec["name"]
            per_set = [stats([r["metrics"][name]["value"] for r in s])
                       for s in sets]
            m0, m1 = per_set[0]["median"], per_set[1]["median"]
            shift = abs(m1 - m0) / min(m0, m1)
            spread_ok = all(st["spread"] <= spec["bound"] for st in per_set)
            shift_ok = shift <= spec["bound"]
            verdict[name] = {"sets": per_set, "shift": shift,
                             "spread_ok": spread_ok, "shift_ok": shift_ok}
            ok &= spread_ok and shift_ok
            cells = "".join(
                f"{st['median']:>14.5g} [{st['q1']:.5g}, {st['q3']:.5g}]"
                f" {st['spread']:6.1%}".rjust(44) for st in per_set)
            print(f"  {name:<20}{cells}   {spec['bound']:.2f} {shift:6.1%}"
                  f"  {'ok' if spread_ok and shift_ok else 'NOT STEADY'}")
        report["verdicts"][workload] = verdict
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

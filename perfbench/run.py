"""chipcost benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload field_sweep --seed 1 --seconds 40 --trace 0

Generates the workload's inputs from the seed, then repeats whole rounds
for about `--seconds` (a round starts only if one more fits). A round
measures, each in a fresh interpreter and with tracing off:

    setup_s             import chipcost + parse (a setup-only process
                        and the two sweep processes)
    points_per_s        run_sweep(jobs=1), caches cold
    points_per_s_jobs2  run_sweep(jobs=2), caches cold
    peak_rss_mb         peak RSS of the jobs=1 process
    cli_s               wall time of `chipcost sweep ... --jobs 1 --out F`
    eval_s              derive + evaluate + report_to_json of the largest
                        design, repeated in one process after a warm-up

and checks every output (see checks.py). The run and its single-threaded
measurements stay on one vCPU (the jobs=2 sweeps get all of them), and
a fixed loop (hostspeed.py) is timed on each vCPU before every process
starts and between eval_s repeats. A run reports the mean of each
metric over its rounds, every time scaled by hostspeed.REF_S / (the
loop's mean time on the vCPUs the measurement ran on), every rate by
its inverse: figures at the quiet reference machine's speed (see
README, Steadiness). `--trace 1` instead runs the workload once through the CLI in process
with tracing wrappers around the public entry points and prints the
per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed and
the metrics. A point or evaluation whose output breaks a check counts as
failed; `correct` is false when a whole output is wrong (the CLI exits
non-zero, a header or the row count is off). Load is one process at a
time, at most two worker threads.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import gen
import hostspeed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
# a run must end within 180 s whatever hangs
RUN_DEADLINE_S = 170.0


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class BenchError(Exception):
    """The benchmark could not measure or check (not a program fault)."""


class Bench:
    def __init__(self, workload: str, work: str, all_cpus: set[int]):
        self.workload = workload
        # hostspeed tracks one vCPU, so the benchmark and its
        # single-threaded measurements all run on one, the home vCPU;
        # jobs=2 sweeps get every vCPU back
        self.all_cpus = all_cpus
        self.home = min(all_cpus)
        os.sched_setaffinity(0, {self.home})
        self.work = work
        self.inputs = os.path.join(work, "inputs")
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.checker = checks.Checker(workload, self.inputs)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.whole_faults = 0
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        # hostspeed samples per vCPU, one on each before each process
        self.speed: dict[int, list[float]] = {c: [] for c in all_cpus}

    def timeout(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def inp(self, name: str) -> str:
        return os.path.join(self.inputs, name)

    # processes -------------------------------------------------------------
    def child(self, mode: str, *argv: str, cpus=None) -> dict:
        """Run child.py in a fresh process, on the benchmark's vCPU
        unless `cpus` names others."""
        self.sample_speed()
        proc = subprocess.run(
            [sys.executable, CHILD, mode, "--inputs", self.inputs, *argv],
            env=self.env, capture_output=True, text=True,
            timeout=self.timeout(), preexec_fn=cpus and (
                lambda: os.sched_setaffinity(0, cpus)))
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"child {mode} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def sample_speed(self) -> None:
        """One hostspeed sample on each vCPU in turn."""
        for cpu in sorted(self.all_cpus):
            os.sched_setaffinity(0, {cpu})
            self.speed[cpu].append(hostspeed.sample())
        os.sched_setaffinity(0, {self.home})

    def cli(self, *argv: str) -> tuple[float, subprocess.CompletedProcess]:
        """Run the CLI in a fresh process; return its wall time."""
        self.sample_speed()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "chipcost.cli", *argv],
                              env=self.env, capture_output=True, text=True,
                              timeout=self.timeout())
        return time.perf_counter() - t0, proc

    def system_args(self, system: str = "system.xml",
                    netlist: str = "netlist.xml") -> list[str]:
        return ["--system", self.inp(system), "--netlist", self.inp(netlist),
                "--library", self.inp("library.xml")]

    # accounting ------------------------------------------------------------
    def tally(self, what: str, n: int, bad: dict[int, str]) -> None:
        """n operations attempted; the indexes in `bad` failed (-1 marks
        a fault of the whole output, which fails all n)."""
        self.attempted += n
        self.whole_faults += -1 in bad
        self.failed += n if -1 in bad else len(bad)
        for i, msg in list(bad.items())[:3]:
            self.problems.append(f"{what}[{i}]: {msg}")

    def load_rows(self, name: str) -> list[list]:
        with open(self.path(name), encoding="utf-8") as fh:
            return json.load(fh)

    def check_sweeps(self, csv_name: str, cli_proc) -> int:
        """Check the jobs=1, jobs=2 and CLI outputs; return the points."""
        rows1 = self.load_rows("rows_jobs1.json")
        rows2 = self.load_rows("rows_jobs2.json")
        n = self.checker.expected_points()
        bad1 = self.checker.row_failures(rows1)
        self.tally("jobs1", n, bad1)
        bad2 = {**bad1, **self.checker.row_mismatches(rows2, rows1)}
        self.tally("jobs2", n, bad2)
        if cli_proc.returncode != 0:
            bad_cli = {-1: f"CLI exited {cli_proc.returncode}: "
                           f"{cli_proc.stderr[-500:]}"}
        else:
            bad_cli = {**bad1, **self.checker.csv_mismatches(
                self.path(csv_name), rows1)}
        self.tally("cli", n, bad_cli)
        return n

    def check_report(self, what: str, path: str, msgs_fn) -> None:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        msgs = msgs_fn(report)
        self.tally(what, 1, {0: "; ".join(msgs)} if msgs else {})

    # untraced rounds -------------------------------------------------------
    def one_round(self) -> dict[str, list[float]]:
        """One sample of each metric, or three of setup_s, as measured:
        the two sweep rates as seconds per point, eval_s already scaled
        to the reference speed."""
        m: dict[str, list[float]] = {
            "setup_s": [self.child("setup")["setup_s"]]}
        for jobs, key in ((1, "points_per_s"), (2, "points_per_s_jobs2")):
            r = self.child("sweep", "--jobs", str(jobs), "--rows",
                           self.path(f"rows_jobs{jobs}.json"),
                           cpus=self.all_cpus if jobs > 1 else None)
            m["setup_s"].append(r["setup_s"])
            m[key] = [r["sweep_s"] / r["points"]]
            if jobs == 1:
                m["peak_rss_mb"] = [r["peak_rss_mb"]]
                m["eval_s"] = [self.eval_scaled()]
        cli_s, proc = self.cli("sweep", *self.system_args(), "--sweep",
                               self.inp("sweep.xml"), "--jobs", "1", "--out",
                               self.path("cli.csv"))
        m["cli_s"] = [cli_s]

        self.check_sweeps("cli.csv", proc)
        for k, system in enumerate(sorted(
                f for f in os.listdir(self.inputs)
                if f.startswith("sample") and f.endswith("_system.xml"))):
            out = self.path(f"sample{k}.json")
            _, p = self.cli("eval", *self.system_args(system), "--out", out)
            if p.returncode != 0:
                self.tally(f"sample{k}", 1, {-1: f"CLI exited {p.returncode}"})
                continue
            self.check_report(
                f"sample{k}", out,
                lambda rep, s=system: self.checker.sample_failures(rep, s))
        return m

    def eval_scaled(self) -> float:
        """One process's mean eval_s repeat, scaled by the hostspeed
        chunks interleaved with the repeats; checks the report it
        leaves."""
        out = self.path("eval.json")
        ev = self.child("eval", "--out", out)
        self.check_report("eval", out, self.checker.report_failures)
        return (statistics.fmean(ev["times"]) * hostspeed.REF_S
                / statistics.fmean(ev["chunks"]))

    def run_rounds(self, seconds: float) -> dict:
        units = _units("end_to_end")
        samples: dict[str, list[float]] = {k: [] for k in units}
        t_start = time.perf_counter()
        rounds = 0
        while True:
            t0 = time.perf_counter()
            for k, v in self.one_round().items():
                samples[k] += v
            rounds += 1
            t1 = time.perf_counter()
            print(f"[{self.workload}] round {rounds}: {t1 - t0:.1f} s, "
                  "as measured: " + ", ".join(
                      f"{k}={1.0 / v[-1] if units[k] == 'points/s' else v[-1]:.5g}"
                      for k, v in samples.items()), file=sys.stderr)
            if t1 - t_start + (t1 - t0) > seconds:
                break
        self.sample_speed()
        home = hostspeed.REF_S / statistics.fmean(self.speed[self.home])
        every = hostspeed.REF_S / statistics.fmean(
            s for v in self.speed.values() for s in v)
        print(f"[{self.workload}] measured times x {home:.4f} on the home "
              f"vCPU, x {every:.4f} on all (hostspeed, "
              f"{len(self.speed[self.home])} samples per vCPU)",
              file=sys.stderr)
        metrics = {}
        for k, v in samples.items():
            # jobs=2 sweeps run on every vCPU, the rest on the home one
            scale = every if k == "points_per_s_jobs2" else home
            if k in ("peak_rss_mb", "eval_s"):
                value = statistics.fmean(v)
            elif units[k] == "points/s":
                value = 1.0 / (statistics.fmean(v) * scale)
            else:
                value = statistics.fmean(v) * scale
            metrics[k] = {"value": value, "unit": units[k]}
        return metrics

    # traced run ------------------------------------------------------------
    def run_trace(self) -> dict:
        """One untraced jobs=1 and jobs=2 sweep, then the traced CLI run;
        unscaled and on every vCPU, so that the jobs=2 speedup and the
        tracing overhead compare like with like."""
        pps = {}
        for jobs in (1, 2):
            r = self.child("sweep", "--jobs", str(jobs), "--rows",
                           self.path(f"rows_jobs{jobs}.json"),
                           cpus=self.all_cpus)
            pps[jobs] = r["points"] / r["sweep_s"]
        trace_path = self.path("trace.json")
        t = self.child("trace", "--csv", self.path("trace.csv"), "--out",
                       self.path("trace_eval.json"), "--trace", trace_path,
                       cpus=self.all_cpus)
        cli_proc = subprocess.CompletedProcess([], t["exit_sweep"], "", "")
        points = self.check_sweeps("trace.csv", cli_proc)
        if t["exit_eval"] != 0:
            self.tally("eval", 1, {-1: f"eval exited {t['exit_eval']}"})
        else:
            self.check_report("eval", self.path("trace_eval.json"),
                              self.checker.report_failures)
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        layers = tracing.summarize(trace)
        traced_pps = points / layers.pop("sweep.run_s")
        layers["sweep.points"] = points
        layers["sweep.jobs2_speedup"] = pps[2] / pps[1]
        layers["trace.overhead_pct"] = 100.0 * (pps[1] - traced_pps) / pps[1]
        print(f"[{self.workload}] traced {t['spans']} spans; untraced "
              f"{pps[1]:.1f} points/s, traced {traced_pps:.1f} points/s",
              file=sys.stderr)
        units = _units("per_layer")
        return {k: {"value": layers[k], "unit": units[k]} for k in units}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="chipcost benchmark, one run")
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (os.path.isfile(os.path.join(SRC, "chipcost", "__init__.py"))
            and os.path.isdir(gen.GP_DIR)):
        print(f"perfbench: no chipcost checkout around {HERE} (needs "
              f"src/chipcost and configs/graph_processor)", file=sys.stderr)
        return 2
    work = os.path.join(OUT, f"{args.workload}-s{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    gen.generate(args.workload, args.seed, os.path.join(work, "inputs"))
    bench = Bench(args.workload, work, os.sched_getaffinity(0))
    try:
        metrics = (bench.run_trace() if args.trace
                   else bench.run_rounds(args.seconds))
    except (BenchError, subprocess.TimeoutExpired, OSError,
            ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in bench.problems:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": bench.whole_faults == 0,
                      "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

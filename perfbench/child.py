"""One measurement in a fresh interpreter; run by perfbench/run.py.

    child.py setup --inputs DIR
    child.py sweep --inputs DIR --jobs J --rows FILE
    child.py eval  --inputs DIR --out FILE
    child.py trace --inputs DIR --csv FILE --out FILE --trace FILE

Every mode prints one JSON object as its last stdout line. `setup_s`
covers `import chipcost` plus parsing the library, system, netlist and
sweep files; modules chipcost itself imports (json among them) are
imported here only after that clock has started.
"""
import os
import sys
import time


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# eval: a warm-up, then repeats until they add up to this much time,
# with hostspeed chunks taking about half as long between them
EVAL_SECONDS = 0.5


def _check_origin(module) -> None:
    if not os.path.abspath(module.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"chipcost imported from {module.__file__}, "
                         f"expected the checkout under {SRC}")


def _paths(inputs: str, prefix: str = "") -> tuple[str, str, str]:
    return (os.path.join(inputs, "library.xml"),
            os.path.join(inputs, f"{prefix}system.xml"),
            os.path.join(inputs, f"{prefix}netlist.xml"))


def _setup(inputs: str):
    """Import and parse; return the package, the parsed inputs and the
    time taken."""
    t0 = time.perf_counter()
    import chipcost as cc
    _check_origin(cc)
    lib_path, sys_path, net_path = _paths(inputs)
    library = cc.parse_library(lib_path)
    system = cc.parse_system(sys_path, net_path, library)
    plan = cc.parse_sweep(os.path.join(inputs, "sweep.xml"))
    return cc, system, plan, time.perf_counter() - t0


def _peak_rss_mb() -> float:
    """This process's own peak resident memory (VmHWM). ru_maxrss would
    also count the parent's pages, which Linux carries through fork and
    exec into the child's high-water mark."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def cmd_setup(args) -> dict:
    return {"setup_s": _setup(args["inputs"])[3]}


def cmd_sweep(args) -> dict:
    cc, system, plan, setup_s = _setup(args["inputs"])
    t0 = time.perf_counter()
    rows = cc.run_sweep(system, plan, jobs=int(args["jobs"]))
    sweep_s = time.perf_counter() - t0
    rss_mb = _peak_rss_mb()
    import json
    with open(args["rows"], "w", encoding="utf-8") as fh:
        json.dump(rows, fh)
    return {"setup_s": setup_s, "sweep_s": sweep_s, "points": len(rows),
            "peak_rss_mb": rss_mb}


def cmd_eval(args) -> dict:
    """derive + evaluate + report_to_json of the largest design, timed
    after one warm-up call and interleaved with hostspeed chunks on the
    same vCPU; each repeat's and each chunk's time is returned."""
    import chipcost as cc
    import hostspeed
    _check_origin(cc)
    lib_path, sys_path, net_path = _paths(args["inputs"], "eval_")
    system = cc.parse_system(sys_path, net_path, cc.parse_library(lib_path))
    text = cc.report_to_json(cc.evaluate(cc.derive(system)))
    times, chunks = [], []
    spent = chunks_spent = 0.0
    while spent < EVAL_SECONDS:
        t0 = time.perf_counter()
        text = cc.report_to_json(cc.evaluate(cc.derive(system)))
        dt = time.perf_counter() - t0
        times.append(dt)
        spent += dt
        while chunks_spent < spent / 2:
            chunks.append(hostspeed.chunk())
            chunks_spent += chunks[-1]
    with open(args["out"], "w", encoding="utf-8") as fh:
        fh.write(text)
    return {"times": times, "chunks": chunks}


def cmd_trace(args) -> dict:
    """The CLI's sweep and eval commands, in process, with every traced
    public name wrapped."""
    t0 = time.perf_counter()
    import chipcost.cli as cli
    import_s = time.perf_counter() - t0
    import tracing
    import chipcost as cc
    _check_origin(cc)
    from chipcost import wafer
    tracer = tracing.Tracer()
    tracer.install(cc)
    lib_path, sys_path, net_path = _paths(args["inputs"])

    def cache_counts():
        infos = (wafer.grid_packing.cache_info(),
                 wafer.free_packing.cache_info())
        return (sum(i.hits for i in infos), sum(i.misses for i in infos))

    hits0, misses0 = cache_counts()
    code_sweep = cli.main(["sweep", "--system", sys_path, "--netlist",
                           net_path, "--library", lib_path, "--sweep",
                           os.path.join(args["inputs"], "sweep.xml"),
                           "--jobs", "1", "--out", args["csv"]])
    hits1, misses1 = cache_counts()
    _, eval_sys, eval_net = _paths(args["inputs"], "eval_")
    code_eval = cli.main(["eval", "--system", eval_sys, "--netlist",
                          eval_net, "--library", lib_path, "--out",
                          args["out"]])
    tracer.dump(args["trace"], import_s=import_s,
                cache={"hits": hits1 - hits0, "misses": misses1 - misses0})
    return {"exit_sweep": code_sweep, "exit_eval": code_eval,
            "spans": len(tracer.spans)}


def main(argv: list[str]) -> int:
    # argv is parsed by hand: argparse is part of what the CLI imports,
    # so importing it here first would hide it from cli.import_s
    modes = {"setup": cmd_setup, "sweep": cmd_sweep, "eval": cmd_eval,
             "trace": cmd_trace}
    if len(argv) < 1 or argv[0] not in modes or len(argv) % 2 != 1:
        print(__doc__, file=sys.stderr)
        return 2
    opts = {k.lstrip("-").replace("-", "_"): v
            for k, v in zip(argv[1::2], argv[2::2])}
    result = modes[argv[0]](opts)
    import json
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

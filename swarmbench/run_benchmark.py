#!/usr/bin/env python3
"""SWARM-KV benchmark runner (Python standard library only).

Builds swarmkv_bench from source under .bench_build/ at the repository root,
runs each workload in its own single-threaded process, and prints every
metric BENCHMARK.json declares, by name, with its unit.

One run (the form BENCHMARK.json's command takes):
    python3 swarmbench/run_benchmark.py --workload NAME --seed N --seconds S --trace 0|1
  prints one JSON object as its last stdout line: end-to-end metrics with
  --trace 0; per-layer metrics with --trace 1, which runs the workload
  untraced and then traced, requires the two to agree on every virtual-time
  metric, and writes the trace to .bench_build/traces/. Exits 1 if any
  output check failed.

Every workload:
    python3 swarmbench/run_benchmark.py [--runs N] [--seed N] [--seconds S]
                                        [--trace] [--out FILE]
  runs each workload N times with the same seed and prints median and
  interquartile range per metric; --out saves the runs for --compare.

    python3 swarmbench/run_benchmark.py --compare BASE.json NEW.json
  compares two saved sets metric by metric against BENCHMARK.json's bounds:
  "unresolved" when either side's spread exceeds the bound.

    python3 swarmbench/run_benchmark.py --smoke
  self-test at 1% scale: every declared metric is emitted, traced runs
  reproduce untraced virtual metrics, and a 1,000-op contended_1key window
  passes the linearizability checker.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "swarmbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
BINARY = BUILD_DIR / "swarmkv_bench"
RUN_TIMEOUT_S = 170
SMOKE_SCALE = 0.01
SMOKE_LINCHECK_OPS = 1000


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def run_checked(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        log(proc.stdout)
        raise BenchError(f"{what} failed (exit {proc.returncode})")


def build():
    if not (ROOT / "src").is_dir():
        raise BenchError(f"no program sources at {ROOT / 'src'}: run from a full checkout")
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], "cmake configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", str(BUILD_DIR), "-j", jobs], "cmake build")


def run_binary(workload, seed, seconds, trace, scale=1.0, lincheck=0, ref_kops=None):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--scale", repr(scale)]
    if lincheck:
        cmd += ["--lincheck", str(lincheck)]
    if trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(TRACE_DIR / f"{workload}-seed{seed}.json")]
        if ref_kops:
            cmd += ["--ref-host-kops", repr(ref_kops)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} seed {seed} ran past {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(proc.stderr)
        raise BenchError(f"{workload} seed {seed} printed no result (exit {proc.returncode})")
    if proc.returncode != 0 or not result["correct"]:
        log(proc.stderr)
    return result


def measure(workload, seed, seconds, trace, scale=1.0, lincheck=0):
    """One untraced run; with `trace`, also a traced run that must reproduce
    every virtual-time metric. Returns (untraced, traced-or-None, mismatches)."""
    plain = run_binary(workload, seed, seconds, False, scale, lincheck)
    if not trace:
        return plain, None, []
    ref = plain["metrics"]["host.kops_per_s"]["value"]
    traced = run_binary(workload, seed, seconds, True, scale, lincheck, ref_kops=ref)
    mismatches = [name for name, m in plain["metrics"].items()
                  if m["virtual"] and traced["metrics"].get(name, {}).get("value") != m["value"]]
    for name in mismatches:
        log(f"{workload}: traced run changed virtual metric {name}: "
            f"{plain['metrics'][name]['value']} -> {traced['metrics'].get(name)}")
    return plain, traced, mismatches


def select(result, declared):
    """The declared metrics of `result`, as a single run prints them."""
    metrics = {}
    for d in declared:
        m = result["metrics"].get(d["name"])
        if m is None or m["unit"] != d["unit"]:
            raise BenchError(f"metric {d['name']} [{d['unit']}] not emitted as declared")
        metrics[d["name"]] = {"value": m["value"], "unit": m["unit"]}
    return metrics


def one_run(spec, args):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload}; known: {', '.join(names)}")
    build()
    trace = args.trace != "0"
    plain, traced, mismatches = measure(args.workload, args.seed, args.seconds, trace)
    source = traced if trace else plain
    out = {
        "correct": bool(plain["correct"] and source["correct"] and not mismatches),
        "attempted": source["attempted"],
        "failed": source["failed"],
        "metrics": select(source, spec["per_layer" if trace else "end_to_end"]),
    }
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


def spread(values):
    """Interquartile range as a share of the median (0 with fewer than 2 values)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return abs(q[2] - q[0]) / abs(med)


def fmt(v):
    return f"{v:.6g}"


def suite(spec, args):
    build()
    trace = args.trace != "0"
    saved = {"seed": args.seed, "seconds": args.seconds, "runs": {}}
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        runs, traced_runs = [], []
        for i in range(args.runs):
            plain, traced, mismatches = measure(name, args.seed, args.seconds, trace)
            ok = ok and plain["correct"] and not mismatches and (traced is None or traced["correct"])
            runs.append(plain)
            if traced is not None:
                traced_runs.append(traced)
            log(f"{name} run {i + 1}/{args.runs}: correct={plain['correct']} "
                f"attempted={plain['attempted']} failed={plain['failed']}")
        saved["runs"][name] = runs
        print(f"\n== {name} (seed {args.seed}, {args.runs} run(s); {w['why']})")
        print(f"  {'metric':34s} {'unit':8s} {'median':>12s} {'IQR/med':>9s}  values")
        for d in spec["end_to_end"]:
            vals = [r["metrics"][d["name"]]["value"] for r in runs]
            print(f"  {d['name']:34s} {d['unit']:8s} {fmt(statistics.median(vals)):>12s} "
                  f"{100 * spread(vals):8.2f}%  {' '.join(fmt(v) for v in vals)}")
        if traced_runs:
            print(f"  -- per layer (traced run; trace in {TRACE_DIR.relative_to(ROOT)}/)")
            for d in spec["per_layer"]:
                vals = [r["metrics"][d["name"]]["value"] for r in traced_runs]
                print(f"  {d['name']:34s} {d['unit']:8s} {fmt(statistics.median(vals)):>12s}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(saved, f)
    print(f"\nall output checks {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def compare(spec, path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    print(f"A = {path_a} (seed {a['seed']}), B = {path_b} (seed {b['seed']})")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a["runs"] or name not in b["runs"]:
            continue
        print(f"\n== {name}")
        print(f"  {'metric':26s} {'unit':7s} {'median A':>11s} {'median B':>11s} {'B vs A':>8s} "
              f"{'IQR A':>7s} {'IQR B':>7s} {'bound':>6s}  verdict")
        for d in spec["end_to_end"]:
            va = [r["metrics"][d["name"]]["value"] for r in a["runs"][name]]
            vb = [r["metrics"][d["name"]]["value"] for r in b["runs"][name]]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else 0.0
            worse = change if d["better"] == "lower" else -change
            sa, sb = spread(va), spread(vb)
            if d["better"] == "lower":
                b_wins_all = max(vb) < min(va)
            else:
                b_wins_all = min(vb) > max(va)
            if max(sa, sb) > d["bound"] and not b_wins_all:
                verdict = "unresolved"
            elif worse > d["bound"]:
                verdict = "WORSE"
            elif -worse > d["bound"]:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"  {d['name']:26s} {d['unit']:7s} {fmt(ma):>11s} {fmt(mb):>11s} "
                  f"{100 * change:7.2f}% {100 * sa:6.2f}% {100 * sb:6.2f}% "
                  f"{100 * d['bound']:5.1f}%  {verdict}")
    return 0


def smoke(spec):
    build()
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        lincheck = SMOKE_LINCHECK_OPS if name == "contended_1key" else 0
        plain, traced, mismatches = measure(name, 1, 0, True, SMOKE_SCALE, lincheck)
        for res, declared in ((plain, "end_to_end"), (traced, "per_layer")):
            try:
                select(res, spec[declared])
            except BenchError as e:
                problems.append(f"{name}: {e}")
        if not plain["correct"] or not traced["correct"]:
            problems.append(f"{name}: output check failed")
        if mismatches:
            problems.append(f"{name}: traced run changed {', '.join(mismatches)}")
        if lincheck:
            checked = plain["metrics"].get("lincheck.ops", {}).get("value", 0)
            passed = plain["metrics"].get("lincheck.ok", {}).get("value", 0)
            if checked < lincheck or passed != 1:
                problems.append(f"{name}: linearizability check of {checked:.0f} ops failed")
        log(f"smoke {name}: correct={plain['correct']} traced={traced['correct']} "
            f"virtual mismatches={len(mismatches)}")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    if not problems:
        print("smoke passed: every workload emits every declared metric, traced runs "
              "reproduce untraced virtual metrics, lincheck passes")
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run one workload (BENCHMARK.json's command form)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="host seconds to measure per run (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", nargs="?", const="1", default="0",
                   help="0|1: report per-layer metrics from a traced run")
    p.add_argument("--runs", type=int, default=1, help="runs per workload (suite mode)")
    p.add_argument("--out", help="save suite runs as JSON for --compare")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.compare:
            return compare(spec, *args.compare)
        if args.smoke:
            return smoke(spec)
        if args.workload:
            return one_run(spec, args)
        return suite(spec, args)
    except BenchError as e:
        log(f"run_benchmark: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())

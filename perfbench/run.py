#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload dlrm_small --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench/ (a standalone CMake project
over ../src) into .bench_build/; later calls only rebuild what changed.
--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones plus the traced run's per-span self times (the trace JSON goes
to .bench_build/traces/). The last stdout line is the result object:
{"correct", "attempted", "failed", "metrics"}. The metric names and units
printed must be exactly those BENCHMARK.json lists for the mode, or the run
fails.

--smoke runs every workload briefly in both modes and fails if any named
metric is missing or has no unit, or if any operation failed.

End-to-end metrics (perfbench/main.cpp has the workloads and the run layout):
  setup_s        median of 5 to 61 times to build the served DLRM, the
                 trained MLP and a server around serve::dlrm_backend (input
                 generation excluded)
  closed_rps     3 closed-loop clients; median over windows of 500
                 consecutive requests of the window's request rate
  closed_p50_us, closed_p99_us
                 the same windows' latency percentiles, send to reply
  open_p50_us, open_p90_us
                 seeded Poisson arrivals at a fixed rate per workload; median
                 over windows of 200 consecutive requests, timed from due
  train_sps      Mlp{784,256,10} train_batch at batch 64: samples per second
                 at the median step time
A run interleaves short closed / open / training blocks; each figure is
taken from the blocks in which the host stole the least CPU time
(/proc/stat; in a calm run, every block with no steal), and serving figures
are medians over short windows, so host contention during part of a run
does not move them. Pooled tails (open p99 / p99.9 with their sample counts)
and the steal of every block are printed as diagnostics; --trace 1 reports
the tails as metrics.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("run from the repository root: src/ (the enw sources) is missing")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-G", "Ninja",
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j",
                      str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"build failed, see {log_path}")


def spec_metrics(trace):
    with open(SPEC) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(workload, seed, seconds, trace):
    """Run the binary once; return (result dict, list of problems)."""
    env = dict(os.environ, ENW_THREADS="1")
    env.pop("ENW_PROF", None)  # the binary turns tracing on for its traced pass only
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail(f"{workload}: perfbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last output line is not a result object")
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    want = spec_metrics(trace)
    got = result.get("metrics", {})
    for name, unit in want.items():
        if name not in got:
            problems.append(f"metric {name} missing")
        elif got[name].get("unit") != unit or not unit:
            problems.append(f"metric {name} has unit {got[name].get('unit')!r}, want {unit!r}")
    for name in got:
        if name not in want:
            problems.append(f"metric {name} is not in BENCHMARK.json")
    return result, problems


def smoke():
    with open(SPEC) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    bad = []
    for workload in names:
        for trace in (0, 1):
            result, problems = run_once(workload, 1, 1, trace)
            if result["failed"] or not result["correct"]:
                problems.append(f"{result['failed']} of {result['attempted']} operations failed")
            print(f"smoke {workload} trace={trace}: attempted={result['attempted']} "
                  f"failed={result['failed']} metrics={len(result['metrics'])}")
            bad += [f"{workload} trace={trace}: {p}" for p in problems]
    for p in bad:
        print(f"smoke FAIL {p}")
    if bad:
        sys.exit(1)
    print("smoke ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(SPEC):
        fail("BENCHMARK.json not found; run from the repository root")
    build()
    if args.smoke:
        smoke()
        return
    if not args.workload:
        fail("--workload is required")
    result, problems = run_once(args.workload, args.seed, args.seconds, args.trace)
    if problems:
        fail("; ".join(problems))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

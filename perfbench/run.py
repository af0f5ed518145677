#!/usr/bin/env python3
"""Build and run the perfbench benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check

The first form builds the C++ benchmark program from this checkout's sources
(once; later runs only re-check the build), runs one workload and prints its
result as the last line of stdout: one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones; the traced run also writes its spans under
.bench_build/perfbench/out/.

--check runs one short round of every workload twice with one seed, and one
short traced round; it asserts identical counts, correct results, and exactly
the metrics BENCHMARK.json lists.

Everything the benchmark writes goes under .bench_build/ at the checkout root.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(BUILD, "out")
BINARY = os.path.join(BUILD, "perfbench")

WORKLOADS = ["ec255-steady", "modp1024-steady", "ec255-byzantine-churn"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Counts that must repeat exactly for a given seed.
DETERMINISTIC = ["setup_word_muls", "word_muls_per_transfer",
                 "wire_bytes_per_transfer", "messages_per_transfer"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"command failed: {' '.join(cmd)}")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs])


def run_binary(args, quiet=False):
    """Runs the benchmark binary; returns its result object (the last stdout line).

    The binary's table goes to stderr; quiet holds it back unless the run fails.
    """
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE if quiet else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        if quiet:
            sys.stderr.write(proc.stderr[-4000:])
        fail(f"benchmark binary exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark binary printed no result line")
    if set(result) != RESULT_KEYS:
        fail(f"unexpected result keys {sorted(result)}")
    return result


def check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    ok = True
    for workload in WORKLOADS:
        short = ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--rounds", "1", "--transfers", "4"]
        first, second, traced = (run_binary(short + ["--trace", t], quiet=True)
                                 for t in ("0", "0", "1"))
        same = all(first["metrics"][k] == second["metrics"][k] for k in DETERMINISTIC)
        correct = all(r["correct"] and r["failed"] == 0 for r in (first, second, traced))
        named = set(first["metrics"]) == end_to_end and set(traced["metrics"]) == per_layer
        print(f"{workload}: counts {'identical' if same else 'DIFFER'}, "
              f"results {'correct' if correct else 'WRONG'}, "
              f"metrics {'as listed' if named else 'NOT as listed'} in BENCHMARK.json")
        ok = ok and same and correct and named
    print("check passed" if ok else "check FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()

    if not args.check and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    build()
    if args.check:
        return check()

    os.makedirs(OUT, exist_ok=True)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--spans", os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.jsonl")]
    print(json.dumps(run_binary(cmd)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

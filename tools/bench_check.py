#!/usr/bin/env python3
"""Bench regression gates over the deterministic benchmarks.

Runs bench_fig4_full and bench_load, reads their BENCHJSON rows, gates them,
and FAILS (exit 1) when any gate does. Everything lands in one report,
BENCH.json, with one section per BENCHJSON row kind; each section names the
gates it carries, its own pass flag, its failures and its rows. The report
goes to the build directory (--build-dir) unless --output names another
path. The one committed file, BENCH_pr10.json at the repo root, is gate 14's
baseline and changes only when someone regenerates it on purpose.

The primary gates are Montgomery-multiplication (group-op) counts, not
wall-clock: they are identical across machines for a deterministic run, so
the gates cannot flake on a loaded CI box. Gates enforced, by section:

blind-verify (the verification fast path):
  1. every row: batch_mont_muls < serial_mont_muls (batch must never be
     slower on the verification-dominated column);
  2. at least one row reaches >= 2.0x fewer mont-muls.

obs-overhead (observability is a pure observer; the per-phase latency
breakdown of the instrumented run rides along as context):
  3. an instrumented run (JSONL trace + metrics registry) reports mont-mul
     and message counts identical to the plain run, and emits trace events.

precompute (the offline/online split):
  4. a B server builds each bundle when it learns of the transfer, ahead of
     the init, so in one run the contributors' total mont-muls (online +
     offline) must be >= 3.0x their online mont-muls — the dual
     encryption + VDE announcements really left the latency-critical path.
     (There is no gate 5: that a bundle built ahead equals one built on
     demand is a test, PrecomputeProtocol.BundleBuiltAheadMatchesOneBuiltOnDemand.)

fixed-base:
  6. an exponentiation of a pinned base over its shift table (built before
     the measurement) uses >= 2.0x fewer mont-muls than the same
     exponentiation of an unpinned base, which has no table (the rows keep
     their comb_* JSON names).

throughput:
  7. the pipelined run completes with integrity == 1 (transfers/sec is
     recorded for context, wall-clock, never gated).

reconfig (epochal reconfiguration):
  8.  the rotation run installs epoch 1 (installed == 1) and every transfer
      — including those aborted at the epoch boundary and re-run — decrypts
      to its original plaintext (integrity == 1);
  9.  post-rotation steady-state mont-muls/transfer within 5% of the
      no-rotation baseline for the same seed — the install drops every
      contributor state and keeps the pinned tables (a reshare changes no
      service key), and neither may leak per-transfer cost into the new
      epoch. The rotation window itself (re-share round + discarded
      in-flight work) is recorded for context, never gated.

load_latency (bench_load's open-loop sweep; gates 10 and 12 compared an
admission-capped arm that no longer exists):
  11. every offered-load point completes all transfers with integrity == 1
      and p50 <= p95 <= p99 (the percentile extraction is ordered and
      total), and sends no message once drained after its last result
      (msgs_after_done == 0: an honest, lossless run leaves no timer that
      re-sends or redoes work).

critpath (causal span tracing):
  13. bench_load --trace-out's span trace, fed through
      tools/trace_critpath.py --budget 0.95, must attribute >= 95% of every
      completed transfer's virtual-time latency to named budget categories
      (network / verify / retransmit-backoff / crypto), with the mont-mul
      crypto join present in the report.

backend-compare (elliptic-curve group backend):
  14. the same honest Fig. 4 run (n=4, f=1, same seed) on ristretto255 must
      cost >= 5.0x fewer normalized word-multiplications than mod-p at
      matched ~128-bit security (kSec2048). Group-op counts are
      deterministic per seed; each backend's ops are weighted by its
      op_cost_weight (mod-p: 2k^2 64-bit word muls per Montgomery mul at k
      limbs; ec255: 25 word muls per fe25519 mul), so the gate compares
      machine-independent arithmetic cost, never wall-clock. Both runs must
      decrypt the original plaintext at every server (integrity == 1) and
      EC element encodings must be <= 32 bytes. Neither arm's group-op
      count (ec_group_ops, modp_group_ops) may exceed the one in the
      committed BENCH_pr10.json at the repository root: the counts are
      deterministic per seed, so any rise is a regression.

backend-equivalence:
  15. the cross-backend panel (3 seeds x {honest, Byzantine
      inconsistent-contribution} on mod-p and ec255) must report
      identical_results == 1 — the observable protocol outcome is backend
      independent even though element values differ by construction.

Wall-clock numbers from bench_primitives are recorded in the blind-verify
section for context only.

Usage: bench_check.py --build-dir <dir> [--output <path>/BENCH.json]
       (registered as ctest label `bench`; see tools/CMakeLists.txt)
"""

import argparse
import json
import os
import platform
import subprocess
import sys

MARKER = "BENCHJSON "


def read_environment(build_dir):
    """Provenance for the wall-clock columns: host + compiler + build type.

    Mont-mul counts are machine-independent, but serial_ms/batch_ms are not;
    without this block a report regenerated on a different box is
    indistinguishable from a hand-edited one.
    """
    env = {
        "host": platform.node(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "build_dir": os.path.basename(os.path.abspath(build_dir)),
    }
    cache = os.path.join(build_dir, "CMakeCache.txt")
    wanted = {
        "CMAKE_BUILD_TYPE": "cmake_build_type",
        "CMAKE_CXX_COMPILER": "cxx_compiler",
        "CMAKE_CXX_FLAGS": "cxx_flags",
    }
    try:
        with open(cache, encoding="utf-8") as fh:
            for line in fh:
                key = line.split(":", 1)[0]
                if key in wanted and "=" in line:
                    env[wanted[key]] = line.split("=", 1)[1].strip()
    except OSError:
        env["cmake_cache"] = "unavailable"
    return env


def run_fig4(build_dir):
    exe = os.path.join(build_dir, "bench", "bench_fig4_full")
    if not os.path.exists(exe):
        print(f"bench_check: missing {exe} (build the bench targets first)")
        sys.exit(2)
    out = subprocess.run([exe], capture_output=True, text=True, check=True)
    rows = []
    for line in out.stdout.splitlines():
        if line.startswith(MARKER):
            rows.append(json.loads(line[len(MARKER):]))
    if not rows:
        print("bench_check: bench_fig4_full produced no BENCHJSON rows")
        sys.exit(2)
    return rows


def run_load(build_dir, trace_path):
    """Open-loop load harness (PR 8); emits the load_latency BENCHJSON rows
    and dumps the densest run's span trace for the PR 9 critpath gate."""
    exe = os.path.join(build_dir, "bench", "bench_load")
    if not os.path.exists(exe):
        print(f"bench_check: missing {exe} (build the bench targets first)")
        sys.exit(2)
    out = subprocess.run([exe, "--trace-out", trace_path],
                         capture_output=True, text=True, timeout=1800)
    rows = []
    for line in out.stdout.splitlines():
        if line.startswith(MARKER):
            rows.append(json.loads(line[len(MARKER):]))
    if not rows:
        print("bench_check: bench_load produced no BENCHJSON rows")
        sys.exit(2)
    return rows


def run_critpath(trace_path, failures):
    """PR 9 budget gate: trace_critpath.py over the traced load run.

    Returns the tool's --json summary (or None), appending to `failures`
    when the trace is missing or the 0.95 attribution gate rejects it.
    """
    if not os.path.exists(trace_path):
        failures.append("critpath: bench_load wrote no span trace")
        return None
    tool = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "trace_critpath.py")
    out = subprocess.run(
        [sys.executable, tool, trace_path, "--metrics", trace_path + ".prom",
         "--budget", "0.95", "--json"],
        capture_output=True, text=True, timeout=300)
    try:
        summary = json.loads(out.stdout.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        failures.append(f"critpath: no JSON summary from trace_critpath.py "
                        f"({out.stderr.strip() or 'no stderr'})")
        return None
    if out.returncode != 0:
        failures.append(
            f"critpath: budget gate failed — worst transfer attributes "
            f"{summary.get('attributed_min', 0):.1%} of its latency "
            f"(>= 95% required): {out.stderr.strip()}")
    if not summary.get("mont_muls"):
        failures.append("critpath: mont-mul crypto join is empty — the "
                        "metrics snapshot was missing or unparsable")
    return summary


def run_primitives(build_dir):
    """Multi-exp microbenchmarks; context only, never gated (wall-clock)."""
    exe = os.path.join(build_dir, "bench", "bench_primitives")
    if not os.path.exists(exe):
        return None
    try:
        out = subprocess.run(
            [exe, "--benchmark_filter=MultiPow|CpBatch|CpVerify",
             "--benchmark_format=json", "--benchmark_min_time=0.05"],
            capture_output=True, text=True, check=True, timeout=600)
        data = json.loads(out.stdout)
        return [
            {"name": b["name"], "real_time_ns": b["real_time"]}
            for b in data.get("benchmarks", [])
        ]
    except (subprocess.SubprocessError, json.JSONDecodeError) as err:
        print(f"bench_check: bench_primitives skipped ({err})")
        return None


def committed_backend_baseline():
    """The backend-compare row of the committed BENCH_pr10.json, or None."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "BENCH_pr10.json")
    try:
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh).get("backend_compare", [])
    except (OSError, ValueError):
        return None
    return rows[0] if rows else None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", required=True)
    ap.add_argument("--output", default=None,
                    help="where to write BENCH.json (default <build-dir>/BENCH.json)")
    ap.add_argument("--skip-primitives", action="store_true",
                    help="skip the wall-clock microbenchmarks (faster CI)")
    args = ap.parse_args()

    rows = run_fig4(args.build_dir)
    trace_path = os.path.join(args.build_dir, "load_trace.jsonl")
    rows += run_load(args.build_dir, trace_path)

    # One report section per BENCHJSON row kind: its gates, its rows and the
    # failures its gates found.
    sections = {}

    def section(name, gates):
        sections[name] = {
            "gates": gates,
            "pass": True,
            "failures": [],
            "rows": [r for r in rows if r.get("section") == name],
        }
        return sections[name]["rows"], sections[name]["failures"]

    blind, failures = section("blind-verify", [1, 2])
    best_ratio = 0.0
    for r in blind:
        ratio = r["serial_mont_muls"] / r["batch_mont_muls"]
        r["mul_ratio"] = round(ratio, 3)
        best_ratio = max(best_ratio, ratio)
        if r["batch_mont_muls"] >= r["serial_mont_muls"]:
            failures.append(
                f"blind-verify f={r['f']}: batch ({r['batch_mont_muls']}) not cheaper "
                f"than serial ({r['serial_mont_muls']}) mont-muls")
    if not blind:
        failures.append("no blind-verify rows emitted")
    elif best_ratio < 2.0:
        failures.append(
            f"best blind-verify mont-mul ratio {best_ratio:.2f}x < 2.0x acceptance bar")

    obs, failures = section("obs-overhead", [3])
    if not obs:
        failures.append("no obs-overhead row emitted")
    for r in obs:
        if r["instrumented_mont_muls"] != r["plain_mont_muls"]:
            failures.append(
                f"obs-overhead: instrumented run cost "
                f"{r['instrumented_mont_muls']} mont-muls vs "
                f"{r['plain_mont_muls']} plain — observability is not a "
                f"pure observer")
        if r["instrumented_messages"] != r["plain_messages"]:
            failures.append(
                f"obs-overhead: instrumented run sent "
                f"{r['instrumented_messages']} messages vs "
                f"{r['plain_messages']} plain")
        if r["trace_events"] == 0:
            failures.append("obs-overhead: instrumented run emitted no trace events")
    phases = [r for r in rows if r.get("section") == "phases"]
    sections["obs-overhead"]["phases"] = phases
    if not phases:
        failures.append("no per-phase latency rows emitted")

    precompute, failures = section("precompute", [4])
    if not precompute:
        failures.append("no precompute row emitted")
    for r in precompute:
        total = r["online_mont_muls"] + r["offline_mont_muls"]
        ratio = total / max(r["online_mont_muls"], 1)
        r["online_mul_ratio"] = round(ratio, 3)
        if ratio < 3.0:
            failures.append(
                f"precompute: online mont-muls only {ratio:.2f}x below the total "
                f"({total} -> {r['online_mont_muls']}), < 3.0x acceptance bar")

    fixed_base, failures = section("fixed-base", [6])
    if not fixed_base:
        failures.append("no fixed-base row emitted")
    for r in fixed_base:
        ratio = r["generic_mont_muls"] / max(r["comb_mont_muls"], 1)
        r["mul_ratio"] = round(ratio, 3)
        if ratio < 2.0:
            failures.append(
                f"fixed-base: shift table only {ratio:.2f}x fewer mont-muls than "
                f"an unpinned pow ({r['generic_mont_muls']} -> {r['comb_mont_muls']}), "
                f"< 2.0x acceptance bar")

    throughput, failures = section("throughput", [7])
    if not throughput:
        failures.append("no throughput row emitted")
    for r in throughput:
        if r["integrity"] != 1:
            failures.append("throughput: pipelined run lost integrity")

    reconfig, failures = section("reconfig", [8, 9])
    if not reconfig:
        failures.append("no reconfig row emitted")
    for r in reconfig:
        if r["installed"] != 1:
            failures.append("reconfig: rotation run never installed epoch 1")
        if r["integrity"] != 1:
            failures.append(
                "reconfig: a transfer crossing the epoch boundary lost integrity")
        pre, post = r["pre_wave_mont_muls"], r["post_wave_mont_muls"]
        delta = abs(post - pre) / pre if pre else 0.0
        r["steady_state_delta"] = round(delta, 4)
        if delta > 0.05:
            failures.append(
                f"reconfig: post-rotation steady state costs {post} mont-muls vs "
                f"{pre} baseline ({delta:.1%} drift, > 5% bar) — the install "
                f"cascade is leaking per-transfer cost into the new epoch")

    load_latency, failures = section("load_latency", [11])
    if not load_latency:
        failures.append("no load_latency rows emitted")
    for r in load_latency:
        if r["completed"] != r["transfers"]:
            failures.append(
                f"load_latency gap={r['mean_interarrival_us']}us: only "
                f"{r['completed']}/{r['transfers']} transfers completed")
        if not r["p50_us"] <= r["p95_us"] <= r["p99_us"]:
            failures.append(
                f"load_latency gap={r['mean_interarrival_us']}us: percentiles "
                f"unordered (p50={r['p50_us']}, p95={r['p95_us']}, p99={r['p99_us']})")
        if r["integrity"] != 1:
            failures.append(
                f"load_latency gap={r['mean_interarrival_us']}us: integrity lost")
        if r.get("msgs_after_done") != 0:
            failures.append(
                f"load_latency gap={r['mean_interarrival_us']}us: "
                f"{r.get('msgs_after_done')} messages sent after the last result")

    _, failures = section("critpath", [13])
    critpath = run_critpath(trace_path, failures)
    sections["critpath"]["rows"] = [critpath] if critpath else []

    backend_compare, failures = section("backend-compare", [14])
    if not backend_compare:
        failures.append("no backend-compare row emitted")
    baseline = committed_backend_baseline()
    if baseline is None:
        failures.append("backend-compare: no committed BENCH_pr10.json baseline to gate against")
    for r in backend_compare:
        for key in ("ec_group_ops", "modp_group_ops"):
            if baseline is not None and r[key] > baseline[key]:
                failures.append(
                    f"backend-compare: {key} {r[key]} exceeds the committed "
                    f"BENCH_pr10.json baseline {baseline[key]} (deterministic per seed; "
                    f"regenerate the baseline only on purpose)")
        if r["cost_ratio"] < 5.0:
            failures.append(
                f"backend-compare: ec255 only {r['cost_ratio']:.2f}x cheaper than "
                f"mod-p {r['modp_params']} in normalized word-muls "
                f"({r['modp_word_muls']} -> {r['ec_word_muls']}), "
                f"< 5.0x acceptance bar")
        if r["ec_element_bytes"] > 32:
            failures.append(
                f"backend-compare: EC element encoding is {r['ec_element_bytes']} "
                f"bytes, > 32-byte canonical-encoding bar")
        if r["integrity"] != 1:
            failures.append(
                "backend-compare: a backend arm failed to decrypt the original "
                "plaintext at every server")

    backend_equiv, failures = section("backend-equivalence", [15])
    if not backend_equiv:
        failures.append("no backend-equivalence row emitted")
    for r in backend_equiv:
        if r["identical_results"] != 1:
            failures.append(
                f"backend-equivalence: protocol outcomes diverged across backends "
                f"({r['cells']} cells) — the group abstraction is leaking into "
                f"observable behavior")

    sections["blind-verify"]["primitives_wall_clock"] = (
        None if args.skip_primitives else run_primitives(args.build_dir))

    failures = []
    for sec in sections.values():
        sec["pass"] = not sec["failures"]
        failures += sec["failures"]
    out_path = args.output or os.path.join(args.build_dir, "BENCH.json")
    report = {
        "pass": not failures,
        "environment": read_environment(args.build_dir),
        "failures": failures,
        "sections": sections,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    for r in blind:
        print(f"blind-verify f={r['f']}: {r['serial_mont_muls']} -> "
              f"{r['batch_mont_muls']} mont-muls ({r['mul_ratio']}x)")
    for r in obs:
        print(f"obs-overhead: {r['plain_mont_muls']} plain vs "
              f"{r['instrumented_mont_muls']} instrumented mont-muls, "
              f"{r['trace_events']} trace events")
    for r in precompute:
        print(f"precompute: {r['online_mont_muls'] + r['offline_mont_muls']} total -> "
              f"{r['online_mont_muls']} online mont-muls ({r['online_mul_ratio']}x)")
    for r in fixed_base:
        print(f"fixed-base: {r['generic_mont_muls']} generic -> "
              f"{r['comb_mont_muls']} shift-table mont-muls ({r['mul_ratio']}x)")
    for r in throughput:
        print(f"throughput: {r['transfers']} transfers, "
              f"{r['transfers_per_sec']:.1f}/sec wall-clock, integrity={r['integrity']}")
    for r in reconfig:
        print(f"reconfig: {r['pre_wave_mont_muls']} baseline -> "
              f"{r['post_wave_mont_muls']} post-rotation mont-muls "
              f"({r['steady_state_delta']:.2%} drift), rotation window "
              f"{r['rotation_mont_muls']}, integrity={r['integrity']}")
    for r in load_latency:
        print(f"load_latency gap={r['mean_interarrival_us']}us: "
              f"p50={r['p50_us']:.0f} p95={r['p95_us']:.0f} p99={r['p99_us']:.0f} "
              f"({r['completed']}/{r['transfers']} completed)")
    for r in backend_compare:
        print(f"backend-compare: {r['modp_word_muls']} mod-p ({r['modp_params']}) -> "
              f"{r['ec_word_muls']} ec255 word-muls ({r['cost_ratio']:.1f}x), "
              f"elements {r['modp_element_bytes']} -> {r['ec_element_bytes']} bytes, "
              f"integrity={r['integrity']}")
    for r in backend_equiv:
        print(f"backend-equivalence: identical_results={r['identical_results']} "
              f"({r['cells']} cells)")
    if critpath:
        print(f"critpath: {critpath['transfers']} transfers, "
              f"{critpath['attributed_overall']:.1%} latency attributed "
              f"(worst {critpath['attributed_min']:.1%}), budget "
              f"{critpath['budget_us']}")
    print(f"report: {out_path}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"PASS: best verification mont-mul ratio {best_ratio:.2f}x (>= 2.0x required)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

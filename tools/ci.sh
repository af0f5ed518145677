#!/usr/bin/env bash
# Local CI for the dblind tree — the same three jobs a hosted workflow
# would run, executable on any dev box:
#
#   relwithdebinfo   default-flags build (+ -Werror) and the full ctest
#                    suite — the tier-1 gate
#   asan             ASan+UBSan build and the full ctest suite
#   tsan             TSan build and the full ctest suite
#   lint             clang-tidy gate and the crypto-hygiene lint + its
#                    self-test; a host without clang-tidy FAILS this job
#                    (tier-1 ctest reports the same gate as a skip)
#   taint            secret-flow taint lint (lint_taint.py): intra-procedural
#                    dataflow from secret sources into trace/metric/log/
#                    snapshot/retransmit sinks, plus its adversarial
#                    self-test corpus
#   thread_safety    Clang -Werror=thread-safety sweep over the
#                    core/sync.hpp capability annotations; a host without
#                    clang++ FAILS this job (GCC compiles the annotations to
#                    nothing, so there is nothing to fall back to)
#   chaos            wide fault-injection sweep: the chaos_test binary run
#                    directly with DBLIND_CHAOS_SEEDS (default 50) seeds per
#                    fault mix — ctest's build-time discovery can't size the
#                    sweep at runtime, so this invokes the binary itself.
#                    On a violation the failing (mix, seed) is re-run alone
#                    with span tracing enabled; the JSONL trace plus
#                    trace_check.py / trace_critpath.py reports are kept in
#                    build-relwithdebinfo/chaos-artifacts/<mix>-seed<n>/
#                    (path printed at the end of the job)
#   churn            reconfiguration sweep: the four churn-* fault mixes
#                    (join/leave/crash-during-reshare/mid-transfer) at
#                    DBLIND_CHAOS_SEEDS (default 50) seeds each, selected via
#                    DBLIND_CHAOS_MIXES=churn — deeper than the all-mix chaos
#                    job affords for the epoch-boundary paths; same failure
#                    forensics as the chaos job
#   load             open-loop load harness smoke: bench_load --smoke (toy
#                    parameters, Poisson arrivals, concurrent vs sequential
#                    equivalence + saturation check). Set
#                    DBLIND_SOAK_TRANSFERS=<n> to additionally run the same
#                    harness with <n> transfers in the TSan build: one long
#                    instrumented run of the whole protocol stack (the
#                    simulator runs every node on one thread, so the
#                    threaded suites in the tsan job remain the race tests)
#   backend_matrix   EC-backend matrix (PR 10): the full ctest suite re-run
#                    with DBLIND_BACKEND=ec (every SystemOptions default
#                    routes through GroupParams::named_or_env, so the whole
#                    protocol stack executes on ristretto255), minus the
#                    `bench` label — the bench gate pins mod-p baselines, so
#                    it only runs on the default backend. Then a chaos
#                    smoke: every fault mix at DBLIND_CHAOS_SEEDS (default 6
#                    here, not 50) seeds on the EC backend, with the same
#                    failure forensics as the chaos job. The dedicated EC
#                    suites (ristretto KATs, field fuzz, cross-backend
#                    equivalence) carry the ctest label backend.ec and
#                    already run in tier-1 on any backend.
#   bench            bench regression gates: bench_check.py (batched vs
#                    serial Fig. 5 evidence checks >= 2x, precompute on/off
#                    online split >= 3x, obs overhead, comb tables, reconfig,
#                    load, critpath, backends) by deterministic counts, plus
#                    the wall-clock microbenchmarks; writes BENCH_pr3.json ..
#                    BENCH_pr10.json into build-relwithdebinfo/
#   trace_check      observability gate: trace_check.py --self-test, then a
#                    fixed-seed lossy Byzantine CLI run whose JSONL trace is
#                    replayed against the Fig. 4 invariants (done needs f+1
#                    valid contributions, reveal needs the commit quorum,
#                    epoch monotonicity, retransmit backoff cap)
#   same_behaviour   refactor gate: exports DBLIND_BASE_REF (default HEAD)
#                    with git archive into build-base/, builds it beside the
#                    working tree, and byte-compares (1) `dblind transfer
#                    --trace` JSONL for the honest, `--byzantine adaptive` and
#                    `--byzantine badvde --loss 10` runs at seeds 1-3, (2) every
#                    chaos mix's trace at seeds 100-102 (DBLIND_CHAOS_TRACE_DIR)
#                    and (3) perfbench's deterministic counts (setup_word_muls,
#                    word_muls_per_transfer, wire_bytes_per_transfer,
#                    messages_per_transfer) on every workload at seed 1.
#                    DBLIND_SAME_BEHAVIOUR_EXCEPT="<name> ..." lists chaos
#                    mixes or count names whose difference is reported but
#                    does not fail the job. Not part of the default job list.
#
# Usage: tools/ci.sh [job...]     (no args = every job but same_behaviour,
#                                  lint first)
# Exit: nonzero if any selected job fails.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
JOBS=("$@")
[[ ${#JOBS[@]} -eq 0 ]] && JOBS=(lint taint thread_safety relwithdebinfo asan tsan chaos churn load backend_matrix bench trace_check)
NPROC="$(nproc 2> /dev/null || echo 4)"
FAILED=()

banner() { printf '\n==== ci: %s ====\n' "$1"; }

run_preset_job() {
  local preset="$1"
  shift
  banner "$preset"
  cmake --preset "$preset" "$@" &&
    cmake --build --preset "$preset" -j "$NPROC" &&
    ctest --preset "$preset" -j "$NPROC"
}

# Wide chaos/churn sweep with failure forensics. Runs the env-configured
# sweep; on a violation, parses the "violation at mix=<name> seed=<n>"
# marker out of the gtest output and re-runs exactly that (mix, seed) with
# DBLIND_CHAOS_TRACE_DIR set, so every node's JSONL span trace — plus the
# offline trace_check.py invariant replay and trace_critpath.py latency
# report — survives the run as an artifact directory for debugging.
run_chaos_sweep() {
  local mixes="${1:-}" # DBLIND_CHAOS_MIXES filter; empty = all mixes
  local bin="$ROOT/build-relwithdebinfo/tests/chaos_test"
  local log rc
  log="$(mktemp)"
  DBLIND_CHAOS_SEEDS="${DBLIND_CHAOS_SEEDS:-50}" DBLIND_CHAOS_MIXES="$mixes" \
    "$bin" --gtest_filter='ChaosSweep.EnvConfiguredSweep' > "$log" 2>&1
  rc=$?
  cat "$log"
  if [[ $rc -ne 0 ]]; then
    local where mix seed
    where="$(grep -o 'violation at mix=[A-Za-z0-9_-]* seed=[0-9]*' "$log" | head -n 1)"
    if [[ -n $where ]]; then
      mix="${where#violation at mix=}"
      mix="${mix%% *}"
      seed="${where##*seed=}"
      local art="$ROOT/build-relwithdebinfo/chaos-artifacts/${mix}-seed${seed}"
      mkdir -p "$art"
      echo "ci.sh: replaying mix=$mix seed=$seed with tracing enabled"
      DBLIND_CHAOS_TRACE_DIR="$art" DBLIND_CHAOS_MIXES="$mix" \
        DBLIND_CHAOS_SEEDS=1 DBLIND_CHAOS_SEED_BASE="$seed" \
        "$bin" --gtest_filter='ChaosSweep.EnvConfiguredSweep' \
        > "$art/replay.log" 2>&1
      local tr
      for tr in "$art"/*.jsonl; do
        [[ -e $tr ]] || continue
        python3 tools/trace_check.py "$tr" > "${tr%.jsonl}.invariants.txt" 2>&1
        python3 tools/trace_critpath.py "$tr" > "${tr%.jsonl}.critpath.txt" 2>&1
      done
      echo "ci.sh: chaos failure artifacts preserved at $art"
    fi
  fi
  rm -f "$log"
  return $rc
}

# The same_behaviour job (see the header). Everything it writes lands in
# build-base/ (the exported base tree, its build, and both sides' outputs
# under build-base/compare/).
run_same_behaviour() {
  local base_ref="${DBLIND_BASE_REF:-HEAD}"
  local except=" ${DBLIND_SAME_BEHAVIOUR_EXCEPT:-} "
  local base="$ROOT/build-base"
  local out="$base/compare"
  rm -rf "$base"
  mkdir -p "$base/src" "$out" || return 1
  git -C "$ROOT" archive "$base_ref" | tar -x -C "$base/src" || return 1
  echo "ci.sh: same_behaviour: $base_ref vs the working tree"
  cmake -S "$base/src" -B "$base/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null &&
    cmake --build "$base/build" -j "$NPROC" --target dblind chaos_test > /dev/null &&
    cmake --preset relwithdebinfo > /dev/null &&
    cmake --build --preset relwithdebinfo -j "$NPROC" --target dblind chaos_test > /dev/null ||
    return 1

  local side tree src seed w
  for side in base work; do
    if [[ $side == base ]]; then tree="$base/build" src="$base/src"; else
      tree="$ROOT/build-relwithdebinfo" src="$ROOT"; fi
    mkdir -p "$out/$side/cli" "$out/$side/chaos" "$out/$side/perf"
    for seed in 1 2 3; do
      "$tree/tools/dblind" transfer --bits 64 --message dawn --seed "$seed" \
        --trace "$out/$side/cli/honest_seed$seed.jsonl" > /dev/null &&
        "$tree/tools/dblind" transfer --bits 64 --message dawn --seed "$seed" \
          --byzantine adaptive --trace "$out/$side/cli/adaptive_seed$seed.jsonl" > /dev/null &&
        "$tree/tools/dblind" transfer --bits 64 --message dawn --seed "$seed" \
          --byzantine badvde --loss 10 --trace "$out/$side/cli/badvde_seed$seed.jsonl" \
          > /dev/null || return 1
    done
    DBLIND_CHAOS_TRACE_DIR="$out/$side/chaos" DBLIND_CHAOS_SEEDS=3 DBLIND_CHAOS_SEED_BASE=100 \
      "$tree/tests/chaos_test" --gtest_filter='ChaosSweep.EnvConfiguredSweep' \
      > "$out/$side/chaos.log" 2>&1 || echo "ci.sh: $side chaos sweep failed (see $out/$side/chaos.log)"
    for w in ec255-steady modp1024-steady ec255-byzantine-churn; do
      (cd "$src" && python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 \
        2> /dev/null | tail -n 1) > "$out/$side/perf/$w.json" || return 1
    done
  done

  local rc=0 f name
  for f in "$out"/base/cli/* "$out"/base/chaos/*.jsonl; do
    name="${f#"$out"/base/}"
    if cmp -s "$f" "$out/work/$name"; then continue; fi
    local mix="${name#chaos/}"
    mix="${mix%_seed*}"
    if [[ $except == *" $mix "* ]]; then
      echo "ci.sh: same_behaviour: $name differs (excepted)"
    else
      echo "ci.sh: same_behaviour: $name DIFFERS"
      rc=1
    fi
  done
  [[ $(ls "$out/base/chaos" | wc -l) -eq $(ls "$out/work/chaos" | wc -l) ]] ||
    { echo "ci.sh: same_behaviour: the two chaos sweeps wrote different trace sets"; rc=1; }
  python3 - "$out" "$except" << 'PY' || rc=1
import json, sys
out, except_ = sys.argv[1], sys.argv[2].split()
counts = ["setup_word_muls", "word_muls_per_transfer", "wire_bytes_per_transfer",
          "messages_per_transfer"]
ok = True
for w in ["ec255-steady", "modp1024-steady", "ec255-byzantine-churn"]:
    base, work = ({k: v["value"] for k, v in json.load(open(f"{out}/{s}/perf/{w}.json"))["metrics"].items()}
                  for s in ("base", "work"))
    for c in counts:
        same = base[c] == work[c]
        note = "same" if same else ("differs (excepted)" if c in except_ else "DIFFERS")
        print(f"ci.sh: same_behaviour: {w} {c}: {base[c]} -> {work[c]} {note}")
        ok = ok and (same or c in except_)
sys.exit(0 if ok else 1)
PY
  [[ $rc -eq 0 ]] && echo "ci.sh: same_behaviour: traces and counts match"
  return $rc
}

for job in "${JOBS[@]}"; do
  case "$job" in
    relwithdebinfo)
      # -Werror here (not in the preset) so the preset's compile flags stay
      # byte-identical to a plain `cmake -B build` configure.
      run_preset_job relwithdebinfo -DDBLIND_WERROR=ON || FAILED+=("$job")
      ;;
    asan | tsan)
      run_preset_job "$job" || FAILED+=("$job")
      ;;
    lint)
      banner lint
      {
        # run_tidy.sh needs a compile database; the relwithdebinfo preset
        # provides one without sanitizer flags in it.
        cmake --preset relwithdebinfo > /dev/null &&
          tools/run_tidy.sh -p "$ROOT/build-relwithdebinfo"
        tidy=$?
        # 77 = run_tidy.sh found no clang-tidy. Tier-1 ctest may skip the
        # gate, but CI must not pass without running it.
        [[ $tidy -eq 77 ]] && echo "ci.sh: lint FAILED: clang-tidy is not installed" >&2
        python3 tools/lint_crypto.py --root "$ROOT" &&
          python3 tools/lint_crypto.py --self-test &&
          [[ $tidy -eq 0 ]]
      } || FAILED+=("$job")
      ;;
    taint)
      banner taint
      {
        python3 tools/lint_taint.py --root "$ROOT" &&
          python3 tools/lint_taint.py --self-test
      } || FAILED+=("$job")
      ;;
    thread_safety)
      banner thread_safety
      tools/run_thread_safety.sh
      ts=$?
      # 77 = no clang++: the thread-safety gate cannot run, so the job fails.
      [[ $ts -eq 77 ]] && echo "ci.sh: thread_safety FAILED: clang++ is not installed" >&2
      [[ $ts -eq 0 ]] || FAILED+=("$job")
      ;;
    chaos)
      banner chaos
      {
        cmake --preset relwithdebinfo > /dev/null &&
          cmake --build --preset relwithdebinfo -j "$NPROC" --target chaos_test &&
          run_chaos_sweep ""
      } || FAILED+=("$job")
      ;;
    churn)
      banner churn
      {
        cmake --preset relwithdebinfo > /dev/null &&
          cmake --build --preset relwithdebinfo -j "$NPROC" --target chaos_test &&
          run_chaos_sweep churn
      } || FAILED+=("$job")
      ;;
    load)
      banner load
      {
        cmake --preset relwithdebinfo > /dev/null &&
          cmake --build --preset relwithdebinfo -j "$NPROC" --target bench_load &&
          "$ROOT/build-relwithdebinfo/bench/bench_load" --smoke
        smoke=$?
        soak=0
        if [[ $smoke -eq 0 && -n "${DBLIND_SOAK_TRANSFERS:-}" ]]; then
          # TSan soak: the widest single run of the protocol stack in the
          # instrumented build.
          cmake --preset tsan > /dev/null &&
            cmake --build --preset tsan -j "$NPROC" --target bench_load &&
            DBLIND_SOAK_TRANSFERS="$DBLIND_SOAK_TRANSFERS" \
              "$ROOT/build-tsan/bench/bench_load" --smoke
          soak=$?
        fi
        [[ $smoke -eq 0 && $soak -eq 0 ]]
      } || FAILED+=("$job")
      ;;
    backend_matrix)
      banner backend_matrix
      {
        cmake --preset relwithdebinfo > /dev/null &&
          cmake --build --preset relwithdebinfo -j "$NPROC" &&
          (
            export DBLIND_BACKEND=ec
            ctest --test-dir "$ROOT/build-relwithdebinfo" -LE bench \
              -j "$NPROC" --output-on-failure &&
              DBLIND_CHAOS_SEEDS="${DBLIND_CHAOS_SEEDS:-6}" run_chaos_sweep ""
          )
      } || FAILED+=("$job")
      ;;
    bench)
      banner bench
      {
        cmake --preset relwithdebinfo > /dev/null &&
          cmake --build --preset relwithdebinfo -j "$NPROC" \
            --target bench_fig4_full bench_primitives bench_load &&
          python3 tools/bench_check.py --build-dir "$ROOT/build-relwithdebinfo"
      } || FAILED+=("$job")
      ;;
    trace_check)
      banner trace_check
      {
        cmake --preset relwithdebinfo > /dev/null &&
          cmake --build --preset relwithdebinfo -j "$NPROC" --target dblind &&
          python3 tools/trace_check.py --self-test &&
          python3 tools/trace_check.py \
            --generate-with "$ROOT/build-relwithdebinfo/tools/dblind"
      } || FAILED+=("$job")
      ;;
    same_behaviour)
      banner same_behaviour
      run_same_behaviour || FAILED+=("$job")
      ;;
    *)
      echo "ci.sh: unknown job '$job' (relwithdebinfo|asan|tsan|lint|taint|thread_safety|chaos|churn|load|backend_matrix|bench|trace_check|same_behaviour)" >&2
      FAILED+=("$job")
      ;;
  esac
done

banner summary
if [[ ${#FAILED[@]} -gt 0 ]]; then
  echo "FAILED jobs: ${FAILED[*]}"
  exit 1
fi
echo "all jobs passed: ${JOBS[*]}"

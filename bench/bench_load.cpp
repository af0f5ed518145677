// Open-loop load harness for the concurrent multi-transfer engine (PR 8).
//
// A workload generator injects transfers as a Poisson arrival process (the
// open-loop discipline: arrivals never wait for completions, so queueing
// delay is visible instead of being absorbed by a closed feedback loop) from
// a configurable number of clients, and drives them through the full Fig. 4
// pipeline under the deterministic simulator. Three BENCHJSON sections feed
// tools/bench_check.py's BENCH_pr8.json gate:
//
//   load_latency     p50/p95/p99 per-transfer latency (virtual us, arrival ->
//                    first done_recorded) across an offered-load sweep against
//                    a capped engine — latency is flat below saturation and
//                    grows with queueing delay above it;
//   load_saturation  saturated throughput of the concurrent engine (unlimited
//                    admission) vs the strictly sequential baseline
//                    (max_inflight_transfers = 1) on the SAME arrival
//                    schedule; both verify every contribute inline, on
//                    arrival. The gate compares virtual-time throughput:
//                    virtual time is a pure function of the seed
//                    (machine-independent, like mont-mul counts), wall-clock
//                    is recorded as provenance;
//   load_equivalence identical_results: with per-instance keyed contribution
//                    streams both schedules must produce byte-identical
//                    per-transfer ciphertexts (the concurrent engine changes
//                    WHEN work runs, never WHAT it computes).
//
// All load runs use a fixed network delay so the contributor quorum of each
// instance is schedule-independent — the precondition for the equivalence
// column (see tests/integration/concurrent_protocol_test.cpp).
//
// Usage: bench_load [--smoke] [--transfers N] [--clients N] [--seed S]
//   --smoke      kToy64 parameters and a smaller batch (tools/ci.sh `load`
//                job; DBLIND_SOAK_TRANSFERS=<n> widens it for the TSan soak)
//   default      kSec512 at (4,1)x(4,1), the gated configuration
// DBLIND_BACKEND=ec runs either on ristretto255 instead
// (GroupParams::named_or_env); the tables and BENCHJSON rows name the group.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "table.hpp"

namespace {

using dblind::core::ServerRank;
using dblind::core::System;
using dblind::core::SystemOptions;
using dblind::core::TransferId;
using dblind::mpz::Bigint;

struct LoadConfig {
  dblind::group::ParamId params = dblind::group::ParamId::kSec512;
  std::uint64_t seed = 1;
  int transfers = 16;
  int clients = 4;             // distinct message sources (many-clients mix)
  std::size_t max_inflight = 0;  // admission cap (0 = unlimited)
  dblind::net::Time mean_interarrival_us = 2'000;
  // When set, dump this run's JSONL span trace to `trace_out` and a
  // prometheus metrics snapshot (for trace_critpath.py's mont-mul join) to
  // `trace_out + ".prom"`.
  std::string trace_out;
};

// Poisson arrival schedule in virtual microseconds: exponential gaps from a
// dedicated deterministic stream (same seed -> same schedule for every arm).
std::vector<dblind::net::Time> poisson_arrivals(std::uint64_t seed, int n,
                                                dblind::net::Time mean_us) {
  dblind::mpz::Prng prng(9'000'000 + seed);
  dblind::mpz::Prng arr = prng.fork("open-loop-arrivals");
  std::vector<dblind::net::Time> at;
  double t = 1'000.0;
  for (int i = 0; i < n; ++i) {
    // Inverse-CDF sample; 53-bit uniform keeps the double exact.
    double u = static_cast<double>(arr.uniform_u64(1ull << 53)) /
               static_cast<double>(1ull << 53);
    t += -static_cast<double>(mean_us) * std::log1p(-u);
    at.push_back(static_cast<dblind::net::Time>(t));
  }
  return at;
}

struct LoadResult {
  bool completed = false;
  bool integrity = true;
  std::vector<double> latency_us;  // per completed transfer, virtual
  double makespan_virtual_ms = 0;  // first arrival -> simulator end
  double wall_ms = 0;
  std::uint64_t mont_muls = 0;
  std::uint64_t max_inflight_seen = 0;
  std::map<TransferId, dblind::elgamal::Ciphertext> results;  // B rank 1 view
};

LoadResult run_load(const LoadConfig& lc) {
  dblind::obs::MemoryTraceRecorder trace;
  dblind::obs::MetricsRegistry metrics;
  SystemOptions o;
  o.params = dblind::group::GroupParams::named_or_env(lc.params);
  o.a = {4, 1};
  o.b = {4, 1};
  o.seed = 9'000'000 + lc.seed;
  o.delay_min = 2'000;  // fixed delay: schedule-independent quorums
  o.delay_max = 2'000;
  o.protocol.max_inflight_transfers = lc.max_inflight;
  o.protocol.trace = &trace;
  if (!lc.trace_out.empty()) o.protocol.metrics = &metrics;
  System sys(std::move(o));

  const std::vector<dblind::net::Time> arrivals =
      poisson_arrivals(lc.seed, lc.transfers, lc.mean_interarrival_us);
  std::map<TransferId, dblind::net::Time> arrived_at;
  std::vector<TransferId> transfers;
  for (int i = 0; i < lc.transfers; ++i) {
    const int client = i % lc.clients;
    Bigint m = sys.config().params.encode_message(
        Bigint(10'000 + 977 * static_cast<unsigned long>(client) + i));
    TransferId t = sys.add_transfer_arriving(m, arrivals[i]);
    arrived_at[t] = arrivals[i];
    transfers.push_back(t);
  }

  LoadResult r;
  auto w0 = std::chrono::steady_clock::now();
  r.completed = sys.run_to_completion();
  auto w1 = std::chrono::steady_clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(w1 - w0).count();
  r.mont_muls = sys.config().params.group_op_count();

  // Per-transfer latency: arrival -> FIRST done_recorded anywhere (the
  // earliest moment any B server could hand the result to a client).
  std::map<TransferId, std::uint64_t> first_done;
  for (const dblind::obs::TraceEvent& e : trace.events()) {
    if (e.kind == dblind::obs::EventKind::kDoneRecorded) {
      auto [it, fresh] = first_done.try_emplace(e.transfer, e.ts);
      if (!fresh && e.ts < it->second) it->second = e.ts;
    }
    if (e.kind == dblind::obs::EventKind::kEngineAdmit && e.count > r.max_inflight_seen)
      r.max_inflight_seen = e.count;
  }
  for (TransferId t : transfers) {
    auto it = first_done.find(t);
    if (it != first_done.end())
      r.latency_us.push_back(static_cast<double>(it->second - arrived_at[t]));
    auto res = sys.result(t, 1);
    if (res) {
      r.results.emplace(t, *res);
      if (sys.oracle_decrypt_b(*res) != sys.plaintext_of(t)) r.integrity = false;
    } else {
      r.integrity = false;
    }
  }
  r.makespan_virtual_ms =
      (static_cast<double>(sys.sim().stats().end_time) - static_cast<double>(arrivals.front())) /
      1'000.0;
  if (!lc.trace_out.empty()) {
    // Offline critical-path input (tools/trace_critpath.py): the span trace
    // plus a prometheus snapshot whose ScopedCounterDelta-fed mont-mul
    // counters carry the crypto attribution virtual time cannot.
    std::ofstream ts(lc.trace_out);
    ts << dblind::obs::to_jsonl(trace.meta()) << '\n';
    for (const dblind::obs::TraceEvent& e : trace.events())
      ts << dblind::obs::to_jsonl(e) << '\n';
    std::ofstream ms(lc.trace_out + ".prom");
    ms << metrics.prometheus_text();
  }
  return r;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::min(v.size() - 1.0, std::ceil(q * static_cast<double>(v.size())) - 1.0));
  return v[idx];
}

}  // namespace

int main(int argc, char** argv) {
  LoadConfig base;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--transfers") == 0 && i + 1 < argc) {
      base.transfers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      base.clients = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      base.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      base.trace_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_load [--smoke] [--transfers N] [--clients N] [--seed S] "
                   "[--trace-out trace.jsonl]\n");
      return 2;
    }
  }
  if (smoke) {
    base.params = dblind::group::ParamId::kToy64;
    base.transfers = std::min(base.transfers, 12);
    if (const char* soak = std::getenv("DBLIND_SOAK_TRANSFERS")) {
      int n = std::atoi(soak);
      if (n > 0) base.transfers = n;
    }
  }
  // mod-p rows keep their parameter-set name; another backend prints its own.
  const dblind::group::GroupParams group = dblind::group::GroupParams::named_or_env(base.params);
  const std::string param_name = group.backend_kind() == dblind::group::Kind::kModP
                                     ? (smoke ? "toy64" : "sec512")
                                     : std::string(group.backend_name());

  std::printf("Open-loop load harness — %d transfers, %d clients, %s, (4,1)x(4,1)\n\n",
              base.transfers, base.clients, param_name.c_str());

  // --- latency under an offered-load sweep (capped engine, 4 slots) ----------
  // Open-loop property: below saturation the p50 tracks the bare pipeline
  // latency; past it, arrivals outpace the 4 coordinator slots and queueing
  // delay dominates the tail.
  std::puts("Latency vs offered load (engine capped at 4 in-flight transfers):");
  dblind::bench::Table lt(
      {"mean_gap_us", "completed", "p50_us", "p95_us", "p99_us", "max_inflight"});
  for (dblind::net::Time gap : {40'000, 10'000, 2'000}) {
    LoadConfig lc = base;
    lc.mean_interarrival_us = gap;
    lc.max_inflight = 4;
    // --trace-out captures the saturated capped point: the only sweep row
    // with queueing delay, so every budget category is represented.
    if (gap != 2'000) lc.trace_out.clear();
    LoadResult res = run_load(lc);
    const double p50 = percentile(res.latency_us, 0.50);
    const double p95 = percentile(res.latency_us, 0.95);
    const double p99 = percentile(res.latency_us, 0.99);
    lt.row({std::to_string(gap), std::to_string(res.latency_us.size()),
            dblind::bench::fmt(p50, 0), dblind::bench::fmt(p95, 0),
            dblind::bench::fmt(p99, 0), std::to_string(res.max_inflight_seen)});
    std::printf(
        "BENCHJSON {\"section\": \"load_latency\", \"params\": \"%s\", \"transfers\": %d, "
        "\"clients\": %d, \"mean_interarrival_us\": %llu, \"max_inflight\": 4, "
        "\"completed\": %zu, \"p50_us\": %.0f, \"p95_us\": %.0f, \"p99_us\": %.0f, "
        "\"integrity\": %d}\n",
        param_name.c_str(), lc.transfers, lc.clients,
        static_cast<unsigned long long>(gap), res.latency_us.size(), p50, p95, p99,
        res.integrity && res.completed ? 1 : 0);
  }
  lt.print();
  std::puts("");

  // --- saturation: concurrent engine vs sequential baseline -----------------
  // Same seed, same Poisson schedule; only the engine differs. The speedup is
  // virtual-time throughput (N / makespan) — deterministic per seed.
  std::puts("Saturation throughput — concurrent engine vs sequential baseline:");
  LoadConfig conc = base;
  conc.trace_out.clear();
  conc.mean_interarrival_us = 2'000;
  conc.max_inflight = 0;  // unlimited admission
  LoadResult saturated = run_load(conc);

  LoadConfig seq = base;
  seq.trace_out.clear();
  seq.mean_interarrival_us = 2'000;
  seq.max_inflight = 1;  // strictly sequential
  LoadResult baseline = run_load(seq);

  const double sat_tps =
      saturated.makespan_virtual_ms > 0 ? base.transfers / (saturated.makespan_virtual_ms / 1e3) : 0;
  const double base_tps =
      baseline.makespan_virtual_ms > 0 ? base.transfers / (baseline.makespan_virtual_ms / 1e3) : 0;
  const double speedup = base_tps > 0 ? sat_tps / base_tps : 0;
  const double sat_p50 = percentile(saturated.latency_us, 0.50);
  const double sat_p95 = percentile(saturated.latency_us, 0.95);
  const double sat_p99 = percentile(saturated.latency_us, 0.99);
  const bool integrity = saturated.completed && baseline.completed && saturated.integrity &&
                         baseline.integrity;

  dblind::bench::Table st({"arm", "virtual_ms", "tps_virtual", "wall_ms", "mont_muls"});
  st.row({"sequential", dblind::bench::fmt(baseline.makespan_virtual_ms),
          dblind::bench::fmt(base_tps, 1), dblind::bench::fmt(baseline.wall_ms, 1),
          dblind::bench::fmt_u(baseline.mont_muls)});
  st.row({"concurrent", dblind::bench::fmt(saturated.makespan_virtual_ms),
          dblind::bench::fmt(sat_tps, 1), dblind::bench::fmt(saturated.wall_ms, 1),
          dblind::bench::fmt_u(saturated.mont_muls)});
  st.print();
  std::printf("speedup: %.2fx virtual-time throughput, integrity=%d\n\n", speedup, integrity);
  std::printf(
      "BENCHJSON {\"section\": \"load_saturation\", \"params\": \"%s\", \"f\": 1, "
      "\"transfers\": %d, \"clients\": %d, \"baseline_virtual_ms\": %.2f, "
      "\"saturated_virtual_ms\": %.2f, \"baseline_tps\": %.2f, \"saturated_tps\": %.2f, "
      "\"speedup\": %.3f, \"p50_us\": %.0f, \"p95_us\": %.0f, \"p99_us\": %.0f, "
      "\"baseline_wall_ms\": %.2f, \"saturated_wall_ms\": %.2f, "
      "\"baseline_mont_muls\": %llu, \"saturated_mont_muls\": %llu, \"integrity\": %d}\n",
      param_name.c_str(), base.transfers, base.clients, baseline.makespan_virtual_ms,
      saturated.makespan_virtual_ms, base_tps, sat_tps, speedup, sat_p50, sat_p95, sat_p99,
      baseline.wall_ms, saturated.wall_ms,
      static_cast<unsigned long long>(baseline.mont_muls),
      static_cast<unsigned long long>(saturated.mont_muls), integrity ? 1 : 0);

  // --- equivalence: both arms must hold byte-identical results --------------
  int identical = saturated.results.size() == baseline.results.size() ? 1 : 0;
  if (identical) {
    for (const auto& [t, c] : saturated.results) {
      auto it = baseline.results.find(t);
      if (it == baseline.results.end() || !(it->second == c)) {
        identical = 0;
        break;
      }
    }
  }
  std::printf("equivalence: identical_results=%d (%zu transfers compared)\n", identical,
              saturated.results.size());
  std::printf(
      "BENCHJSON {\"section\": \"load_equivalence\", \"params\": \"%s\", \"transfers\": %d, "
      "\"identical_results\": %d}\n",
      param_name.c_str(), base.transfers, identical);

  return integrity && identical ? 0 : 1;
}

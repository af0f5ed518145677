// Open-loop load harness (PR 8).
//
// A workload generator injects transfers as a Poisson arrival process (the
// open-loop discipline: arrivals never wait for completions, so queueing
// delay is visible instead of being absorbed by a closed feedback loop) from
// a configurable number of clients, and drives them through the full Fig. 4
// pipeline under the deterministic simulator. One BENCHJSON section feeds
// the load_latency section of tools/bench_check.py's BENCH.json report:
//
//   load_latency     p50/p95/p99 per-transfer latency (virtual us, arrival ->
//                    first done_recorded) across an offered-load sweep. Each
//                    coordinator starts every transfer on arrival and the
//                    simulator charges handlers no time, so the latency stays
//                    flat however dense the arrivals (ROADMAP item 2). Each
//                    run then drains the simulator, as a service that keeps
//                    running would, and counts the messages sent after its
//                    last result (msgs_after_done; 0 for an honest run).
//
// All load runs use a fixed network delay so the contributor quorum of each
// instance is schedule-independent (see
// tests/integration/concurrent_protocol_test.cpp).
//
// Usage: bench_load [--smoke] [--transfers N] [--clients N] [--seed S]
//                   [--trace-out trace.jsonl]
//   --smoke      kToy64 parameters and a smaller batch (tools/ci.sh `load`
//                job; DBLIND_SOAK_TRANSFERS=<n> widens it for the TSan soak)
//   default      kSec512 at (4,1)x(4,1), the gated configuration
// DBLIND_BACKEND=ec runs either on ristretto255 instead
// (GroupParams::named_or_env); the tables and BENCHJSON rows name the group.
#include <algorithm>
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

using dblind::core::System;
using dblind::core::SystemOptions;
using dblind::core::TransferId;
using dblind::mpz::Bigint;

struct LoadConfig {
  dblind::group::ParamId params = dblind::group::ParamId::kSec512;
  std::uint64_t seed = 1;
  int transfers = 16;
  int clients = 4;  // distinct message sources (many-clients mix)
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
  std::uint64_t msgs_after_done = 0;  // sent while draining after the last result
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
  r.completed = sys.run_to_completion();
  const std::uint64_t sent = sys.sim().stats().messages_sent;
  sys.sim().run();
  r.msgs_after_done = sys.sim().stats().messages_sent - sent;

  // Per-transfer latency: arrival -> FIRST done_recorded anywhere (the
  // earliest moment any B server could hand the result to a client).
  std::map<TransferId, std::uint64_t> first_done;
  for (const dblind::obs::TraceEvent& e : trace.events()) {
    if (e.kind == dblind::obs::EventKind::kDoneRecorded) {
      auto [it, fresh] = first_done.try_emplace(e.transfer, e.ts);
      if (!fresh && e.ts < it->second) it->second = e.ts;
    }
  }
  for (TransferId t : transfers) {
    auto it = first_done.find(t);
    if (it != first_done.end())
      r.latency_us.push_back(static_cast<double>(it->second - arrived_at[t]));
    auto res = sys.result(t, 1);
    if (!res || sys.oracle_decrypt_b(*res) != sys.plaintext_of(t)) r.integrity = false;
  }
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

  // --- latency under an offered-load sweep ----------------------------------
  std::puts("Latency vs offered load:");
  dblind::bench::Table lt(
      {"mean_gap_us", "completed", "p50_us", "p95_us", "p99_us", "msgs_after_done"});
  bool ok = true;
  for (dblind::net::Time gap : {40'000, 10'000, 2'000}) {
    LoadConfig lc = base;
    lc.mean_interarrival_us = gap;
    // --trace-out captures the densest point, where the most transfers
    // overlap.
    if (gap != 2'000) lc.trace_out.clear();
    LoadResult res = run_load(lc);
    const double p50 = percentile(res.latency_us, 0.50);
    const double p95 = percentile(res.latency_us, 0.95);
    const double p99 = percentile(res.latency_us, 0.99);
    const bool integrity = res.integrity && res.completed;
    ok = ok && integrity;
    lt.row({std::to_string(gap), std::to_string(res.latency_us.size()),
            dblind::bench::fmt(p50, 0), dblind::bench::fmt(p95, 0),
            dblind::bench::fmt(p99, 0), std::to_string(res.msgs_after_done)});
    std::printf(
        "BENCHJSON {\"section\": \"load_latency\", \"params\": \"%s\", \"transfers\": %d, "
        "\"clients\": %d, \"mean_interarrival_us\": %llu, \"completed\": %zu, "
        "\"p50_us\": %.0f, \"p95_us\": %.0f, \"p99_us\": %.0f, \"integrity\": %d, "
        "\"msgs_after_done\": %llu}\n",
        param_name.c_str(), lc.transfers, lc.clients,
        static_cast<unsigned long long>(gap), res.latency_us.size(), p50, p95, p99,
        integrity ? 1 : 0, static_cast<unsigned long long>(res.msgs_after_done));
  }
  lt.print();
  std::printf("integrity=%d\n", ok ? 1 : 0);
  return ok ? 0 : 1;
}

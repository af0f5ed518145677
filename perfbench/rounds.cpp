// One benchmark round: a fresh two-service deployment with DKG set-up, an
// open-loop Poisson batch of transfers, and an oracle check of every honest
// B server's result. The traced variant steps the simulator one event at a
// time and charges each step's thread CPU and group ops to the message type
// it delivered.
#include <algorithm>
#include <cmath>
#include <string_view>

#include "bench.hpp"
#include "core/system.hpp"
#include "obs/metrics.hpp"
#include "zkp/batch.hpp"

namespace perfbench {

namespace {

using dblind::core::ProtocolServer;
using dblind::core::ServerRank;
using dblind::core::System;
using dblind::core::SystemOptions;
using dblind::core::TransferId;
using dblind::mpz::Bigint;
using dblind::net::Time;

constexpr Time kLinkDelayUs = 2'000;        // fixed link delay, as in bench_load
constexpr double kMeanGapUs = 2'000;        // mean Poisson inter-arrival gap
constexpr std::uint64_t kPlainRange = 1ull << 31;
// A traced round declares the event queue drained after this many
// consecutive steps that moved neither virtual time nor any counter.
constexpr int kIdleStepLimit = 100'000;

// The concurrent-engine configuration a deployment runs. Written through
// requires-expressions so the benchmark keeps building once an option is
// collapsed into the only path.
template <class P>
void deployment_options(P& p) {
  if constexpr (requires { p.batch_verify; }) p.batch_verify = true;
  if constexpr (requires { p.per_transfer_rng; }) p.per_transfer_rng = true;
  if constexpr (requires { p.max_inflight_transfers; }) p.max_inflight_transfers = 0;
  if constexpr (requires { p.contribution_pool; }) p.contribution_pool = 0;
  if constexpr (requires { p.verify_workers; }) p.verify_workers = 0;
  p.retransmit = true;
}

std::vector<Time> poisson_arrivals(SeedStream& in, int n) {
  std::vector<Time> at;
  double t = 1'000.0;
  for (int i = 0; i < n; ++i) {
    t += -kMeanGapUs * std::log1p(-in.uniform());
    at.push_back(static_cast<Time>(t));
  }
  return at;
}

// The withholding server sits among ranks 1..f+1, the signing quorum, so
// every round's threshold signing retries; drawn from all n ranks, rounds
// split into two cost modes a factor of two apart. The inconsistent
// contributor is any other rank: every contribute is verified on arrival,
// so its batch check fails wherever it sits.
std::vector<ProtocolServer::Behavior> byzantine_b(SeedStream& in, std::size_t n, std::size_t f) {
  std::vector<ProtocolServer::Behavior> b(n, ProtocolServer::Behavior::kHonest);
  const std::size_t withhold = in.next() % (f + 1);
  std::size_t inconsistent = in.next() % (n - 1);
  if (inconsistent >= withhold) ++inconsistent;
  b[withhold] = ProtocolServer::Behavior::kWithholdPartial;
  b[inconsistent] = ProtocolServer::Behavior::kInconsistentContribution;
  return b;
}

bool has_label(const dblind::obs::LabelSet& labels, std::string_view key,
               std::string_view value) {
  return std::any_of(labels.begin(), labels.end(),
                     [&](const auto& kv) { return kv.first == key && kv.second == value; });
}

// Sum of a counter family, optionally restricted to one label value.
std::uint64_t counter_total(const dblind::obs::MetricsRegistry& reg, std::string_view name,
                            std::string_view key = {}, std::string_view value = {}) {
  std::uint64_t total = 0;
  for (const auto& s : reg.scalar_samples()) {
    if (s.name == name && (key.empty() || has_label(s.labels, key, value))) total += s.value;
  }
  return total;
}

// Transfer phase of a traced round. Completion is judged by the caller's
// oracle check, like the untraced path's.
void step_traced(System& sys, const dblind::group::GroupParams& gp, std::size_t n,
                 const std::vector<TransferId>& ids, const std::vector<Time>& arrivals,
                 TraceSink& sink) {
  // Index == simulator node id: A ranks take nodes 0..n-1, B ranks n..2n-1.
  std::vector<const ProtocolServer*> servers;
  for (ServerRank r = 1; r <= n; ++r) servers.push_back(&sys.a_server(r));
  for (ServerRank r = 1; r <= n; ++r) servers.push_back(&sys.b_server(r));
  std::vector<std::array<std::uint64_t, kSlots>> rx(servers.size());
  for (std::size_t i = 0; i < servers.size(); ++i) {
    rx[i].fill(0);
    for (const auto& [type, count] : servers[i]->rx_histogram())
      rx[i][static_cast<std::size_t>(type) % kSlots] = count;
  }
  std::vector<bool> honest_b(n);
  for (ServerRank r = 1; r <= n; ++r) honest_b[r - 1] = sys.is_honest_b(r);
  std::vector<std::uint64_t> results_seen(n, 0);
  std::vector<double> first_result(ids.size(), -1.0);

  const std::uint64_t weight = gp.op_cost_weight();
  dblind::net::Simulator& sim = sys.sim();
  const std::int64_t phase0 = thread_cpu_ns();
  bool done = false;
  int idle = 0;
  while (!done && idle < kIdleStepLimit) {
    const Time now0 = sim.now();
    const std::uint64_t sent0 = sim.stats().messages_sent;
    const std::int64_t w0 = wall_ns();
    const std::int64_t c0 = thread_cpu_ns();
    const std::uint64_t o0 = gp.group_op_count();
    done = sys.run_to_completion(1);
    const std::uint64_t o1 = gp.group_op_count();
    const std::int64_t c1 = thread_cpu_ns();
    const std::int64_t w1 = wall_ns();

    // Everything below runs outside the step window, so its cost lands in
    // net.dispatch_cpu_ms rather than in a handler slot.
    Span span{sink.round, -1, kTimerSlot, w0 - sink.run_start_ns, w1 - sink.run_start_ns,
              c1 - c0, (o1 - o0) * weight};
    for (std::size_t i = 0; i < servers.size() && span.node < 0; ++i) {
      for (const auto& [type, count] : servers[i]->rx_histogram()) {
        const std::size_t slot = static_cast<std::size_t>(type) % kSlots;
        if (rx[i][slot] != count) {
          rx[i][slot] = count;
          span.node = static_cast<int>(i);
          span.slot = slot;
          break;
        }
      }
    }
    sink.cpu_ns[span.slot] += span.cpu_ns;
    sink.word_muls[span.slot] += span.word_muls;
    const bool moved = span.node >= 0 || o1 != o0 || sim.now() != now0 ||
                       sim.stats().messages_sent != sent0;
    idle = moved ? 0 : idle + 1;
    if (moved) sink.spans.push_back(span);

    for (ServerRank r = 1; r <= n; ++r) {
      const ProtocolServer& b = *servers[n + r - 1];
      if (!honest_b[r - 1] || b.results_count() == results_seen[r - 1]) continue;
      results_seen[r - 1] = b.results_count();
      for (std::size_t t = 0; t < ids.size(); ++t) {
        if (first_result[t] < 0 && b.result(ids[t]))
          first_result[t] = static_cast<double>(sim.now());
      }
    }
  }
  sink.phase_cpu_ns += thread_cpu_ns() - phase0;

  double last = 0;
  for (std::size_t t = 0; t < ids.size(); ++t) {
    if (first_result[t] < 0) continue;
    sink.latency_us.push_back(first_result[t] - static_cast<double>(arrivals[t]));
    last = std::max(last, first_result[t]);
  }
  if (last > 0) sink.makespan_us += last - static_cast<double>(arrivals.front());
}

}  // namespace

std::uint64_t SeedStream::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SeedStream::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t round_seed(std::uint64_t seed, int round) {
  SeedStream s(seed ^ (0x726f756e64ull * (static_cast<std::uint64_t>(round) + 1)));
  return s.next();
}

RoundStats run_round(const Workload& w, std::uint64_t seed, int transfers, TraceSink* trace) {
  SeedStream in(seed);
  // A fresh backend per round: cold caches and its own op counter, so every
  // round does identical work and pays the same set-up.
  const dblind::group::GroupParams gp = dblind::group::GroupParams::named(w.group);
  const std::uint64_t weight = gp.op_cost_weight();

  SystemOptions o;
  o.params = gp;
  o.a = {w.n, w.f};
  o.b = {w.n, w.f};
  o.seed = seed;
  o.use_dkg = true;
  o.delay_min = kLinkDelayUs;
  o.delay_max = kLinkDelayUs;
  deployment_options(o.protocol);
  if (w.churn) o.b_behaviors = byzantine_b(in, w.n, w.f);
  // Declared before the System: attached counters point into its servers,
  // so the registry is read while the System is alive and outlives it.
  dblind::obs::MetricsRegistry registry;
  if (trace != nullptr) o.protocol.metrics = &registry;

  RoundStats st;
  st.attempted = transfers;

  // Set-up, part 1: DKG for both services and server construction.
  const std::uint64_t ops0 = gp.group_op_count();
  const std::int64_t t0 = wall_ns();
  System sys(std::move(o));
  const std::int64_t t1 = wall_ns();
  const std::uint64_t ops1 = gp.group_op_count();

  // Client side, untimed: open-loop arrivals (each with its E_A(m)) and the
  // churn workload's mid-round reconfiguration.
  const std::vector<Time> arrivals = poisson_arrivals(in, transfers);
  std::vector<TransferId> ids;
  for (int i = 0; i < transfers; ++i) {
    const Bigint m = gp.encode_message(Bigint(1 + in.next() % kPlainRange));
    ids.push_back(sys.add_transfer_arriving(m, arrivals[i]));
  }
  if (w.churn) {
    std::vector<dblind::net::NodeId> roster;
    for (ServerRank r = 1; r <= w.n; ++r) roster.push_back(sys.b_node(r));
    sys.schedule_reconfig_b(sys.make_b_spec(1, static_cast<std::uint32_t>(w.f), roster),
                            arrivals[arrivals.size() / 2]);
  }

  // Set-up, part 2: every node's start handler. Only kStart events are
  // queued at this point, one per node.
  const std::uint64_t ops2 = gp.group_op_count();
  const std::int64_t t2 = wall_ns();
  (void)sys.sim().run(sys.sim().node_count());
  const std::int64_t t3 = wall_ns();
  const std::uint64_t ops3 = gp.group_op_count();
  st.setup_s = static_cast<double>((t1 - t0) + (t3 - t2)) * 1e-9;
  st.setup_word_muls = ((ops1 - ops0) + (ops3 - ops2)) * weight;

  // Transfer phase.
  const dblind::net::NetStats net0 = sys.sim().stats();
  const double svc_a0 = sys.service_cpu_seconds(dblind::core::ServiceRole::kServiceA);
  const double svc_b0 = sys.service_cpu_seconds(dblind::core::ServiceRole::kServiceB);
  const std::uint64_t checks0 = dblind::zkp::batch_verify_counts().combined.load();
  const std::uint64_t ops4 = gp.group_op_count();
  const std::int64_t c4 = process_cpu_ns();
  const std::int64_t t4 = wall_ns();
  if (trace != nullptr) {
    step_traced(sys, gp, w.n, ids, arrivals, *trace);
  } else {
    (void)sys.run_to_completion();
  }
  const std::int64_t t5 = wall_ns();
  const std::int64_t c5 = process_cpu_ns();
  const std::uint64_t ops5 = gp.group_op_count();
  st.transfer_wall_s = static_cast<double>(t5 - t4) * 1e-9;
  st.transfer_cpu_s = static_cast<double>(c5 - c4) * 1e-9;
  st.transfer_word_muls = (ops5 - ops4) * weight;
  st.messages = sys.sim().stats().messages_sent - net0.messages_sent;
  st.bytes = sys.sim().stats().bytes_sent - net0.bytes_sent;

  if (trace != nullptr) {
    trace->batch_checks += dblind::zkp::batch_verify_counts().combined.load() - checks0;
    trace->service_a_s += sys.service_cpu_seconds(dblind::core::ServiceRole::kServiceA) - svc_a0;
    trace->service_b_s += sys.service_cpu_seconds(dblind::core::ServiceRole::kServiceB) - svc_b0;
    trace->verify_pass += counter_total(registry, "dblind_verify_total", "result", "pass");
    trace->verify_fail += counter_total(registry, "dblind_verify_total", "result", "fail");
    trace->batch_fallbacks += counter_total(registry, "dblind_batch_verify_fallbacks_total");
    trace->epoch_aborts +=
        counter_total(registry, "dblind_reconfig_events_total", "event", "abort");
    trace->retransmits += counter_total(registry, "dblind_retransmits_sent_total");
  }

  // Oracle check: every honest B server must hold E_B(m) for the plaintext
  // the transfer started with. Anything else is a failed transfer.
  for (TransferId t : ids) {
    bool ok = true;
    for (ServerRank r = 1; r <= w.n && ok; ++r) {
      if (!sys.is_honest_b(r)) continue;
      const auto res = sys.result(t, r);
      ok = res && sys.oracle_decrypt_b(*res) == sys.plaintext_of(t);
    }
    if (ok) ++st.completed;
  }
  if (w.churn) {
    for (ServerRank r = 1; r <= w.n; ++r) {
      if (sys.is_honest_b(r) && sys.b_server(r).config_epoch() < 1) st.installed = false;
    }
  }
  return st;
}

}  // namespace perfbench

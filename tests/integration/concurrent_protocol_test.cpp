// Concurrent multi-transfer equivalence panel (PR 8 acceptance criterion).
//
// With per-instance keyed contribution streams and a fixed-delay network,
// the bytes of every transfer's result are a pure function of (seed,
// transfer id, contributor quorum): they must not depend on HOW MANY
// transfers were in flight around it. The panel runs N open-loop transfers
// through the concurrent engine (unlimited slots) and through a strictly
// sequential baseline (max_inflight_transfers = 1), both verifying every
// contribute inline on arrival, and demands byte-identical per-transfer
// ciphertexts on every honest B server — across >= 4 seeds and with a
// Byzantine contributor whose inconsistent contribution must be rejected
// identically in both schedules.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "core/system.hpp"
#include "obs/trace.hpp"

namespace dblind::core {
namespace {

using mpz::Bigint;
using Behavior = ProtocolServer::Behavior;

constexpr std::size_t kTransfers = 6;

struct RunOutcome {
  bool completed = false;
  // Per transfer: the result ciphertext held by each honest B rank.
  std::map<TransferId, std::vector<elgamal::Ciphertext>> results;
  int attack_successes = 0;
  std::uint64_t max_inflight_seen = 0;  // from engine_admit trace events
};

RunOutcome run_once(std::uint64_t seed, bool byzantine, std::size_t max_inflight) {
  obs::MemoryTraceRecorder trace;
  SystemOptions o;
  o.seed = 47000 + seed;
  o.a = {4, 1};
  o.b = {4, 1};
  // Fixed delay: message latencies carry no randomness, so the contributor
  // quorum of each instance is interleaving-independent (FIFO simulator).
  o.delay_min = 2'000;
  o.delay_max = 2'000;
  o.protocol.max_inflight_transfers = max_inflight;
  o.protocol.trace = &trace;
  if (byzantine) {
    o.b_behaviors.assign(4, Behavior::kHonest);
    o.b_behaviors[2] = Behavior::kInconsistentContribution;
  }
  System sys(std::move(o));

  std::vector<TransferId> transfers;
  for (std::size_t i = 0; i < kTransfers; ++i) {
    Bigint m = sys.config().params.encode_message(Bigint(1000 + 17 * seed + i));
    // Arrivals 3ms apart with ~2ms per hop: every transfer overlaps several
    // neighbours unless the engine serializes them.
    transfers.push_back(sys.add_transfer_arriving(m, 1'000 + 3'000 * i));
  }

  RunOutcome out;
  out.completed = sys.run_to_completion();
  for (TransferId t : transfers) {
    std::vector<elgamal::Ciphertext> row;
    for (ServerRank r = 1; r <= 4; ++r) {
      if (byzantine && r == 3) continue;  // the Byzantine rank's view is unconstrained
      auto res = sys.result(t, r);
      if (res) {
        EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t))
            << "seed=" << seed << " transfer=" << t << " rank=" << r;
        row.push_back(*res);
      }
    }
    // Completion requires every honest roster member to hold the transfer.
    EXPECT_EQ(row.size(), byzantine ? 3u : 4u) << "seed=" << seed << " t=" << t;
    out.results.emplace(t, std::move(row));
  }
  for (ServerRank r = 1; r <= 4; ++r) {
    out.attack_successes += sys.a_server(r).attack_successes();
    out.attack_successes += sys.b_server(r).attack_successes();
  }
  for (const obs::TraceEvent& e : trace.events()) {
    if (e.kind == obs::EventKind::kEngineAdmit && e.count > out.max_inflight_seen)
      out.max_inflight_seen = e.count;
  }
  return out;
}

class ConcurrentEquivalence : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ConcurrentEquivalence, InterleavedMatchesSequentialByteForByte) {
  const auto [seed, byzantine] = GetParam();

  // Concurrent: unlimited admission.
  RunOutcome conc = run_once(seed, byzantine, /*max_inflight=*/0);
  // Sequential baseline: one transfer at a time.
  RunOutcome seq = run_once(seed, byzantine, /*max_inflight=*/1);

  ASSERT_TRUE(conc.completed) << "seed=" << seed;
  ASSERT_TRUE(seq.completed) << "seed=" << seed;
  EXPECT_EQ(conc.attack_successes, 0);
  EXPECT_EQ(seq.attack_successes, 0);

  // The runs must have actually differed in schedule: several transfers in
  // flight concurrently vs. never more than one.
  EXPECT_GE(conc.max_inflight_seen, 2u) << "seed=" << seed;
  EXPECT_LE(seq.max_inflight_seen, 1u) << "seed=" << seed;

  // Byte-for-byte identical per-transfer results, transfer by transfer.
  ASSERT_EQ(conc.results.size(), seq.results.size());
  for (const auto& [t, row] : conc.results) {
    auto it = seq.results.find(t);
    ASSERT_NE(it, seq.results.end()) << "transfer " << t;
    EXPECT_EQ(row, it->second) << "seed=" << seed << " transfer=" << t
                               << " byzantine=" << byzantine;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConcurrentEquivalence,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return std::string(std::get<1>(info.param) ? "byzantine" : "honest") + "_seed" +
             std::to_string(std::get<0>(info.param));
    });

// Intermediate concurrency levels agree too: a capped engine (2 slots) lands
// on the same bytes as the sequential baseline.
TEST(ConcurrentEquivalence, CappedEngineAgreesWithExtremes) {
  RunOutcome capped = run_once(11, /*byzantine=*/false, /*max_inflight=*/2);
  RunOutcome seq = run_once(11, /*byzantine=*/false, /*max_inflight=*/1);
  ASSERT_TRUE(capped.completed);
  ASSERT_TRUE(seq.completed);
  EXPECT_EQ(capped.max_inflight_seen, 2u);
  EXPECT_EQ(capped.results, seq.results);
}

}  // namespace
}  // namespace dblind::core

// Concurrent multi-transfer equivalence panel.
//
// With per-instance keyed contribution streams and a fixed-delay network,
// the bytes of every transfer's result are a pure function of (seed,
// transfer id, contributor quorum): they must not depend on HOW MANY
// transfers were in flight around it. The panel runs N open-loop transfers
// arriving 3 ms apart, so several overlap at every coordinator, and the same
// transfers arriving 1 s apart, so each finishes before the next arrives;
// both verify every contribute inline on arrival. It demands byte-identical
// per-transfer ciphertexts on every honest B server — across >= 4 seeds and
// with a Byzantine contributor whose inconsistent contribution must be
// rejected identically in both schedules.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "core/system.hpp"
#include "obs/trace.hpp"
#include "tests/core/test_util.hpp"

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
  std::size_t max_open = 0;  // most instances open at one node at once
};

RunOutcome run_once(std::uint64_t seed, bool byzantine, net::Time gap) {
  obs::MemoryTraceRecorder trace;
  SystemOptions o;
  o.seed = 47000 + seed;
  o.a = {4, 1};
  o.b = {4, 1};
  // Fixed delay: message latencies carry no randomness, so the contributor
  // quorum of each instance is interleaving-independent (FIFO simulator).
  o.delay_min = 2'000;
  o.delay_max = 2'000;
  o.protocol.trace = &trace;
  if (byzantine) {
    o.b_behaviors.assign(4, Behavior::kHonest);
    o.b_behaviors[2] = Behavior::kInconsistentContribution;
  }
  System sys(std::move(o));

  std::vector<TransferId> transfers;
  for (std::size_t i = 0; i < kTransfers; ++i) {
    Bigint m = sys.config().params.encode_message(Bigint(1000 + 17 * seed + i));
    transfers.push_back(sys.add_transfer_arriving(m, 1'000 + gap * i));
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
  out.max_open = testing::max_open_instances(trace);
  return out;
}

class ConcurrentEquivalence : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ConcurrentEquivalence, InterleavedMatchesSequentialByteForByte) {
  const auto [seed, byzantine] = GetParam();

  // Concurrent: arrivals 3 ms apart with 2 ms per hop overlap several
  // neighbours at every coordinator.
  RunOutcome conc = run_once(seed, byzantine, /*gap=*/3'000);
  // Sequential reference: arrivals 1 s apart, each done before the next.
  RunOutcome seq = run_once(seed, byzantine, /*gap=*/1'000'000);

  ASSERT_TRUE(conc.completed) << "seed=" << seed;
  ASSERT_TRUE(seq.completed) << "seed=" << seed;
  EXPECT_EQ(conc.attack_successes, 0);
  EXPECT_EQ(seq.attack_successes, 0);

  // The runs must have actually differed in schedule: several instances
  // open at one node vs. never more than one.
  EXPECT_GE(conc.max_open, 2u) << "seed=" << seed;
  EXPECT_LE(seq.max_open, 1u) << "seed=" << seed;

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

}  // namespace
}  // namespace dblind::core

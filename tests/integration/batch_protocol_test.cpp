// Worker-pool vs inline verification equivalence.
//
// Contribute messages are verified either inline, serially one message at a
// time as each arrives (verify_workers = 0), or by the off-handler worker
// pool whose drain folds every pending VDE proof into one combined batch
// (ProtocolOptions::verify_workers > 0). The two must be *observationally*
// equivalent: across a seed sweep and a panel of Byzantine behaviors, the
// same runs complete, the same (transfer, rank) pairs end up holding
// results, every held result decrypts to the published plaintext, and no
// attack succeeds in either mode. Result ciphertexts themselves may differ
// bit-for-bit (the drain draws its randomizers from a fork of the server
// Prng, shifting later nonce values) — what must match is every
// accept/reject decision.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/system.hpp"

namespace dblind::core {
namespace {

using mpz::Bigint;
using Behavior = ProtocolServer::Behavior;

struct RunOutcome {
  bool completed = false;
  // has-result flag per transfer (outer) per B rank 1..4 (inner).
  std::vector<std::vector<bool>> holds;
  int attack_successes = 0;
};

struct Scenario {
  const char* name;
  Behavior b1 = Behavior::kHonest;  // behavior of B rank 1 (coordinator)
  Behavior b3 = Behavior::kHonest;  // behavior of a B backup / contributor
};

constexpr Scenario kScenarios[] = {
    {.name = "honest"},
    {.name = "inconsistent_contribution", .b3 = Behavior::kInconsistentContribution},
    {.name = "withhold_contribution", .b3 = Behavior::kWithholdContribution},
    {.name = "bogus_blind_coordinator", .b1 = Behavior::kBogusBlindCoordinator},
    {.name = "adaptive_cancel", .b1 = Behavior::kAdaptiveCancelCoordinator},
};

RunOutcome run_once(const Scenario& sc, std::uint64_t seed, std::size_t workers) {
  SystemOptions o;
  o.seed = 31000 + seed;
  o.a = {4, 1};
  o.b = {4, 1};
  o.protocol.verify_workers = workers;
  o.b_behaviors.assign(4, Behavior::kHonest);
  o.b_behaviors[0] = sc.b1;
  o.b_behaviors[2] = sc.b3;
  System sys(std::move(o));

  std::vector<TransferId> transfers;
  transfers.push_back(sys.add_transfer(sys.config().params.encode_message(Bigint(500 + seed))));
  transfers.push_back(sys.add_transfer(sys.config().params.encode_message(Bigint(900 + seed))));

  RunOutcome out;
  out.completed = sys.run_to_completion();
  for (TransferId t : transfers) {
    std::vector<bool> row;
    for (ServerRank r = 1; r <= 4; ++r) {
      auto res = sys.result(t, r);
      row.push_back(res.has_value());
      if (res) {
        // Anything accepted must still be the right plaintext.
        EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t))
            << sc.name << " seed=" << seed << " workers=" << workers << " rank=" << r;
      }
    }
    out.holds.push_back(std::move(row));
  }
  for (ServerRank r = 1; r <= 4; ++r) {
    out.attack_successes += sys.a_server(r).attack_successes();
    out.attack_successes += sys.b_server(r).attack_successes();
  }
  return out;
}

class BatchEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BatchEquivalence, SameAcceptRejectDecisionsAsSerial) {
  const auto [scenario_index, seed] = GetParam();
  const Scenario& sc = kScenarios[scenario_index];

  RunOutcome serial = run_once(sc, seed, /*workers=*/0);
  RunOutcome pooled = run_once(sc, seed, /*workers=*/2);

  EXPECT_EQ(serial.attack_successes, 0) << sc.name;
  EXPECT_EQ(pooled.attack_successes, 0) << sc.name;

  EXPECT_EQ(pooled.completed, serial.completed) << sc.name << " seed=" << seed;
  EXPECT_EQ(pooled.holds, serial.holds) << sc.name << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchEquivalence,
    ::testing::Combine(::testing::Range(0, static_cast<int>(std::size(kScenarios))),
                       ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return std::string(kScenarios[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace dblind::core

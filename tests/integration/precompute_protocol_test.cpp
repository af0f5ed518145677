// Precompute-on vs precompute-off protocol equivalence (the offline/online
// split).
//
// ProtocolOptions::precompute_contributions builds each B server's blinding
// contribution for the designated coordinator's instance during on_start.
// Contribution randomness comes from a per-instance keyed stream, so the
// precomputed bundle is exactly the one the instance would derive when its
// init arrives: the same seed must produce the same accept/reject decisions
// and bit-for-bit the same result ciphertexts with precomputation on or off,
// across the batch_protocol_test Byzantine scenarios and across an epochal
// rotation. The panel also checks that precomputation really moved the
// bundle work into the offline mont-mul counter.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/system.hpp"
#include "obs/metrics.hpp"

namespace dblind::core {
namespace {

using mpz::Bigint;
using Behavior = ProtocolServer::Behavior;

struct RunOutcome {
  bool completed = false;
  // Result (or nullopt) per transfer (outer) per B rank 1..4 (inner).
  std::vector<std::vector<std::optional<elgamal::Ciphertext>>> results;
  int attack_successes = 0;
  std::uint64_t offline_mont_muls = 0;  // dblind_contrib_mont_muls_total{path="offline"}
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

std::uint64_t offline_mont_muls(obs::MetricsRegistry& reg, const System& sys) {
  std::uint64_t total = 0;
  for (ServerRank r = 1; r <= 4; ++r) {
    const std::string node = std::to_string(sys.config().b.node_of(r));
    total += reg.counter("dblind_contrib_mont_muls_total", {{"node", node}, {"path", "offline"}})
                 .value();
  }
  return total;
}

RunOutcome run_once(const Scenario& sc, std::uint64_t seed, bool precompute) {
  obs::MetricsRegistry reg;
  SystemOptions o;
  o.seed = 52000 + seed;
  o.a = {4, 1};
  o.b = {4, 1};
  o.protocol.precompute_contributions = precompute;
  o.protocol.metrics = &reg;
  o.b_behaviors.assign(4, Behavior::kHonest);
  o.b_behaviors[0] = sc.b1;
  o.b_behaviors[2] = sc.b3;
  System sys(std::move(o));

  std::vector<TransferId> transfers;
  transfers.push_back(sys.add_transfer(sys.config().params.encode_message(Bigint(600 + seed))));
  transfers.push_back(sys.add_transfer(sys.config().params.encode_message(Bigint(800 + seed))));

  RunOutcome out;
  out.completed = sys.run_to_completion();
  for (TransferId t : transfers) {
    std::vector<std::optional<elgamal::Ciphertext>> row;
    for (ServerRank r = 1; r <= 4; ++r) {
      auto res = sys.result(t, r);
      if (res) {
        // Anything accepted must still be the right plaintext.
        EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t))
            << sc.name << " seed=" << seed << " precompute=" << precompute << " rank=" << r;
      }
      row.push_back(std::move(res));
    }
    out.results.push_back(std::move(row));
  }
  for (ServerRank r = 1; r <= 4; ++r) {
    out.attack_successes += sys.a_server(r).attack_successes();
    out.attack_successes += sys.b_server(r).attack_successes();
  }
  out.offline_mont_muls = offline_mont_muls(reg, sys);
  return out;
}

class PrecomputeEquivalence : public ::testing::TestWithParam<std::tuple<int, int>> {};

// Same seed with and without precomputation: the result ciphertexts (not
// just the accept/reject decisions) must match bit-for-bit. Precomputation
// changes WHEN the bundle work runs, never WHAT randomness it consumes.
TEST_P(PrecomputeEquivalence, ByteIdenticalResults) {
  const auto [scenario_index, seed] = GetParam();
  const Scenario& sc = kScenarios[scenario_index];

  RunOutcome off = run_once(sc, seed, /*precompute=*/false);
  RunOutcome on = run_once(sc, seed, /*precompute=*/true);

  EXPECT_EQ(off.attack_successes, 0) << sc.name;
  EXPECT_EQ(on.attack_successes, 0) << sc.name;
  EXPECT_EQ(off.offline_mont_muls, 0u) << sc.name;
  EXPECT_GT(on.offline_mont_muls, 0u) << sc.name << ": nothing was precomputed";

  EXPECT_EQ(on.completed, off.completed) << sc.name << " seed=" << seed;
  EXPECT_EQ(on.results, off.results) << sc.name << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PrecomputeEquivalence,
    ::testing::Combine(::testing::Range(0, static_cast<int>(std::size(kScenarios))),
                       ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return std::string(kScenarios[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Equivalence must hold ACROSS an epochal rotation: the install drops
// every contributor state, including precomputed bundles, and the config
// epoch is part of every instance's stream key, so precompute-on and -off
// runs of one seed stay byte-identical even when a reconfiguration lands
// mid-run and a second transfer executes entirely under the new
// configuration.
TEST(PrecomputeProtocol, ByteIdenticalAcrossEpochRotation) {
  auto run = [](bool precompute) {
    SystemOptions o;
    o.seed = 53000;
    o.a = {4, 1};
    o.b = {4, 1};
    o.protocol.precompute_contributions = precompute;
    System sys(std::move(o));
    std::vector<TransferId> transfers;
    transfers.push_back(sys.add_transfer(sys.config().params.encode_message(Bigint(901))));
    transfers.push_back(
        sys.add_transfer_at(sys.config().params.encode_message(Bigint(902)), 400'000));
    std::vector<net::NodeId> roster = {sys.b_node(1), sys.b_node(2), sys.b_node(3),
                                       sys.b_node(4)};
    sys.schedule_reconfig_b(sys.make_b_spec(1, 1, roster), 60'000);

    RunOutcome out;
    out.completed = sys.run_to_completion();
    EXPECT_EQ(sys.b_server(1).config_epoch(), 1u)
        << "rotation never landed (precompute=" << precompute << ")";
    for (TransferId t : transfers) {
      std::vector<std::optional<elgamal::Ciphertext>> row;
      for (ServerRank r = 1; r <= 4; ++r) {
        auto res = sys.result(t, r);
        if (res) {
          EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t))
              << "precompute=" << precompute << " rank=" << r;
        }
        row.push_back(std::move(res));
      }
      out.results.push_back(std::move(row));
    }
    return out;
  };

  RunOutcome off = run(false);
  RunOutcome on = run(true);
  EXPECT_TRUE(off.completed);
  EXPECT_EQ(on.completed, off.completed);
  EXPECT_EQ(on.results, off.results);
}

// Every restart re-runs the on_start precompute loop. A restored server
// rebuilds its results from the durable done messages, so a transfer it
// already finished must get no bundle and no contributor state.
TEST(PrecomputeProtocol, RestartSkipsCompletedTransfers) {
  SystemOptions o;
  o.seed = 54000;
  o.a = {4, 1};
  o.b = {4, 1};
  o.protocol.precompute_contributions = true;
  System sys(std::move(o));
  const TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(903)));
  ASSERT_TRUE(sys.run_to_completion());

  const net::Time crash = sys.sim().now() + 10'000;
  sys.sim().crash_at(sys.b_node(4), crash);
  sys.sim().restart_at(sys.b_node(4), crash + 10'000);
  (void)sys.sim().run(100'000);
  ASSERT_TRUE(sys.result(t, 4).has_value()) << "restore lost the finished transfer";
  EXPECT_EQ(sys.b_server(4).contributor_instances(), 0u);
}

}  // namespace
}  // namespace dblind::core

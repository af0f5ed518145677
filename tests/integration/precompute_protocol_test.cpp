// The offline/online split: an active B server builds the bundle of the
// designated coordinator's first instance {t, 1, 0} whenever it learns of
// transfer t, ahead of the init.
//
// Contribution randomness comes from a per-instance keyed stream, so a bundle
// built ahead is exactly the one the instance would derive when its init
// arrives. The panel runs five Byzantine scenarios and an epochal rotation,
// and checks that every accepted result is correct and that the bundle work
// landed in the offline mont-mul counter. A contributor that is never told of
// a transfer builds its bundle on demand and must contribute the same bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
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

RunOutcome run_once(const Scenario& sc, std::uint64_t seed) {
  obs::MetricsRegistry reg;
  SystemOptions o;
  o.seed = 52000 + seed;
  o.a = {4, 1};
  o.b = {4, 1};
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
    for (ServerRank r = 1; r <= 4; ++r) {
      // Anything accepted must be the right plaintext.
      if (auto res = sys.result(t, r)) {
        EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t))
            << sc.name << " seed=" << seed << " rank=" << r;
      }
    }
  }
  for (ServerRank r = 1; r <= 4; ++r) {
    out.attack_successes += sys.a_server(r).attack_successes();
    out.attack_successes += sys.b_server(r).attack_successes();
  }
  out.offline_mont_muls = offline_mont_muls(reg, sys);
  return out;
}

class PrecomputeEquivalence : public ::testing::TestWithParam<std::tuple<int, int>> {};

// Every B server builds its bundles ahead: no attack succeeds, every accepted
// result decrypts to its plaintext, and the bundle work is counted offline.
// That a bundle built ahead equals one built on demand is
// PrecomputeProtocol.BundleBuiltAheadMatchesOneBuiltOnDemand.
TEST_P(PrecomputeEquivalence, ByteIdenticalResults) {
  const auto [scenario_index, seed] = GetParam();
  const Scenario& sc = kScenarios[scenario_index];

  RunOutcome run = run_once(sc, seed);

  EXPECT_TRUE(run.completed) << sc.name << " seed=" << seed;
  EXPECT_EQ(run.attack_successes, 0) << sc.name;
  EXPECT_GT(run.offline_mont_muls, 0u) << sc.name << ": nothing was built ahead";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PrecomputeEquivalence,
    ::testing::Combine(::testing::Range(0, static_cast<int>(std::size(kScenarios))),
                       ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return std::string(kScenarios[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Across an epochal rotation: the install drops every contributor state,
// bundles built ahead included, and the config epoch is part of every
// instance's stream key. A reconfiguration lands mid-run and a second
// transfer executes entirely under the new configuration; both results are
// correct.
TEST(PrecomputeProtocol, ByteIdenticalAcrossEpochRotation) {
  obs::MetricsRegistry reg;
  SystemOptions o;
  o.seed = 53000;
  o.a = {4, 1};
  o.b = {4, 1};
  o.protocol.metrics = &reg;
  System sys(std::move(o));
  std::vector<TransferId> transfers;
  transfers.push_back(sys.add_transfer(sys.config().params.encode_message(Bigint(901))));
  transfers.push_back(
      sys.add_transfer_at(sys.config().params.encode_message(Bigint(902)), 400'000));
  std::vector<net::NodeId> roster = {sys.b_node(1), sys.b_node(2), sys.b_node(3),
                                     sys.b_node(4)};
  sys.schedule_reconfig_b(sys.make_b_spec(1, 1, roster), 60'000);

  EXPECT_TRUE(sys.run_to_completion());
  EXPECT_EQ(sys.b_server(1).config_epoch(), 1u) << "rotation never landed";
  for (TransferId t : transfers) {
    for (ServerRank r = 1; r <= 4; ++r) {
      auto res = sys.result(t, r);
      ASSERT_TRUE(res.has_value()) << "transfer=" << t << " rank=" << r;
      EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t)) << "rank=" << r;
    }
  }
  int attack_successes = 0;
  for (ServerRank r = 1; r <= 4; ++r) attack_successes += sys.b_server(r).attack_successes();
  EXPECT_EQ(attack_successes, 0);
  EXPECT_GT(offline_mont_muls(reg, sys), 0u);
}

// A contributor that built an instance's bundle ahead and one that builds it
// when the init arrives contribute the same bytes. The second run of each
// seed never tells B rank 4 of either transfer, neither of the one
// registered before the run nor of the one arriving at 50 ms:
// Blinding::on_init answers an init for a transfer it does not know, on
// demand. Both runs must end with byte-identical results at every B server.
TEST(PrecomputeProtocol, BundleBuiltAheadMatchesOneBuiltOnDemand) {
  constexpr ServerRank kUntold = 4;
  struct Run {
    std::vector<std::optional<elgamal::Ciphertext>> results;  // per transfer per B rank
    std::uint64_t offline = 0;  // rank 4's contrib_mont_muls{path="offline"}
    std::uint64_t online = 0;   // ... {path="online"}
  };
  const auto run = [&](std::uint64_t seed, bool tell_rank4) {
    obs::MetricsRegistry reg;
    SystemOptions o;
    o.seed = 55000 + seed;
    o.a = {4, 1};
    o.b = {4, 1};
    o.protocol.metrics = &reg;
    System sys(std::move(o));
    const group::GroupParams& gp = sys.config().params;
    mpz::Prng prng(seed);
    std::map<TransferId, Bigint> plaintexts;
    for (TransferId t : {TransferId{1}, TransferId{2}}) {
      const group::Element m = gp.encode_message(Bigint(700 + t));
      plaintexts[t] = m;
      const elgamal::Ciphertext ea_m = sys.config().a.encryption_key.encrypt(m, prng);
      for (ServerRank r = 1; r <= 4; ++r) sys.a_server(r).store_secret(t, ea_m);
      for (ServerRank r = 1; r <= 4; ++r) {
        if (r == kUntold && !tell_rank4) continue;
        if (t == 1) {
          sys.b_server(r).register_transfer(t);
        } else {
          sys.b_server(r).register_transfer_arriving(t, 50'000);
        }
      }
    }
    const auto finished = [&] {
      for (ServerRank r = 1; r <= 4; ++r) {
        for (const auto& [t, m] : plaintexts)
          if (!sys.result(t, r)) return false;
      }
      return true;
    };
    EXPECT_TRUE(sys.sim().run_until(finished)) << "seed=" << seed << " told=" << tell_rank4;
    Run out;
    for (const auto& [t, m] : plaintexts) {
      for (ServerRank r = 1; r <= 4; ++r) {
        auto res = sys.result(t, r);
        if (res) {
          EXPECT_EQ(sys.oracle_decrypt_b(*res), m) << "transfer=" << t << " rank=" << r;
        }
        out.results.push_back(std::move(res));
      }
    }
    const std::string node = std::to_string(sys.config().b.node_of(kUntold));
    out.offline =
        reg.counter("dblind_contrib_mont_muls_total", {{"node", node}, {"path", "offline"}})
            .value();
    out.online =
        reg.counter("dblind_contrib_mont_muls_total", {{"node", node}, {"path", "online"}})
            .value();
    return out;
  };

  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Run told = run(seed, true);
    const Run untold = run(seed, false);
    EXPECT_GT(told.offline, 0u) << "seed=" << seed;
    EXPECT_EQ(untold.offline, 0u) << "seed=" << seed;
    EXPECT_GT(untold.online, told.online) << "seed=" << seed << ": rank 4 built nothing on demand";
    EXPECT_EQ(told.results, untold.results) << "seed=" << seed;
  }
}

// Every restart builds bundles again in on_start. A restored server rebuilds
// its results from the durable done messages, so a transfer it already
// finished must get no bundle and no contributor state.
TEST(PrecomputeProtocol, RestartSkipsCompletedTransfers) {
  SystemOptions o;
  o.seed = 54000;
  o.a = {4, 1};
  o.b = {4, 1};
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

// Cross-backend equivalence panel: the full Figure-4 protocol (honest and
// Byzantine) runs on the mod-p oracle AND the ristretto255 backend with the
// same seeds, and must produce identical *observable* results — success
// flags, decoded plaintexts, attack outcomes. Element values differ between
// backends by construction; everything the protocol promises must not.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/system.hpp"
#include "mpz/fe25519.hpp"

namespace dblind::core {
namespace {

using group::GroupParams;
using group::ParamId;
using mpz::Bigint;
using Behavior = ProtocolServer::Behavior;

struct PanelOutcome {
  bool completed = false;
  // Decoded plaintext per honest B rank (nullopt = no result for that rank).
  std::vector<std::optional<Bigint>> decoded;
  std::uint64_t attack_successes = 0;
};

// One scenario cell: run the protocol on `backend` with the given Byzantine
// cast and return what an external observer sees.
PanelOutcome run_cell(ParamId backend, std::uint64_t seed, const Bigint& message,
                      std::vector<Behavior> b_behaviors) {
  SystemOptions o;
  o.params = GroupParams::named(backend);
  o.seed = seed;
  if (!b_behaviors.empty()) o.b_behaviors = std::move(b_behaviors);
  System sys(std::move(o));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(message));
  PanelOutcome out;
  out.completed = sys.run_to_completion();
  for (ServerRank r = 1; r <= sys.b_cfg().n; ++r) {
    if (!sys.is_honest_b(r)) {
      out.attack_successes += sys.b_server(r).attack_successes();
      continue;
    }
    auto res = sys.result(t, r);
    if (!res.has_value()) {
      out.decoded.emplace_back(std::nullopt);
      continue;
    }
    // Decrypt with the dealer oracle and strip the message embedding — this
    // is the backend-independent observable.
    out.decoded.emplace_back(
        sys.config().params.decode_message(sys.oracle_decrypt_b(*res)));
  }
  return out;
}

void expect_identical(const PanelOutcome& modp, const PanelOutcome& ec255,
                      const Bigint& message, const char* scenario) {
  EXPECT_EQ(modp.completed, ec255.completed) << scenario;
  EXPECT_EQ(modp.attack_successes, ec255.attack_successes) << scenario;
  ASSERT_EQ(modp.decoded.size(), ec255.decoded.size()) << scenario;
  for (std::size_t i = 0; i < modp.decoded.size(); ++i) {
    ASSERT_TRUE(modp.decoded[i].has_value()) << scenario << " modp rank " << i + 1;
    ASSERT_TRUE(ec255.decoded[i].has_value()) << scenario << " ec255 rank " << i + 1;
    EXPECT_EQ(*modp.decoded[i], message) << scenario << " modp rank " << i + 1;
    EXPECT_EQ(*ec255.decoded[i], message) << scenario << " ec255 rank " << i + 1;
  }
}

class CrossBackendPanel : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, CrossBackendPanel, ::testing::Values(1u, 2u, 3u));

TEST_P(CrossBackendPanel, HonestRunsAgree) {
  const std::uint64_t seed = GetParam();
  Bigint m(424200 + seed);
  PanelOutcome modp = run_cell(ParamId::kToy64, seed, m, {});
  PanelOutcome ec255 = run_cell(ParamId::kEc255, seed, m, {});
  expect_identical(modp, ec255, m, "honest");
}

TEST_P(CrossBackendPanel, ByzantineContributionRunsAgree) {
  const std::uint64_t seed = GetParam();
  Bigint m(7700 + seed);
  std::vector<Behavior> cast{Behavior::kHonest, Behavior::kHonest,
                             Behavior::kInconsistentContribution, Behavior::kHonest};
  PanelOutcome modp = run_cell(ParamId::kToy64, seed, m, cast);
  PanelOutcome ec255 = run_cell(ParamId::kEc255, seed, m, cast);
  expect_identical(modp, ec255, m, "inconsistent-contribution");
  EXPECT_EQ(ec255.attack_successes, 0u);
}

TEST_P(CrossBackendPanel, ByzantineCoordinatorRunsAgree) {
  const std::uint64_t seed = GetParam();
  Bigint m(3100 + seed);
  std::vector<Behavior> cast{Behavior::kBogusBlindCoordinator, Behavior::kHonest,
                             Behavior::kHonest, Behavior::kHonest};
  PanelOutcome modp = run_cell(ParamId::kToy64, seed, m, cast);
  PanelOutcome ec255 = run_cell(ParamId::kEc255, seed, m, cast);
  expect_identical(modp, ec255, m, "bogus-blind-coordinator");
  EXPECT_EQ(ec255.attack_successes, 0u);
}

TEST(CrossBackend, DkgSetupCompletesOnEc) {
  // The joint-Feldman DKG exercises commitment products and identity checks
  // that previously assumed the mod-p identity literal.
  SystemOptions o;
  o.params = GroupParams::named(ParamId::kEc255);
  o.seed = 4;
  o.use_dkg = true;
  System sys(std::move(o));
  Bigint m(5150);
  TransferId t = sys.add_transfer(sys.config().params.encode_message(m));
  ASSERT_TRUE(sys.run_to_completion());
  auto res = sys.result(t, 1);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(sys.config().params.decode_message(sys.oracle_decrypt_b(*res)), m);
}

TEST(CrossBackend, ResultIsFreshCiphertextOnEc) {
  SystemOptions o;
  o.params = GroupParams::named(ParamId::kEc255);
  o.seed = 5;
  System sys(std::move(o));
  Bigint m(8086);
  Bigint elem = sys.config().params.encode_message(m);
  TransferId t = sys.add_transfer(elem);
  ASSERT_TRUE(sys.run_to_completion());
  auto res = sys.result(t, 1);
  ASSERT_TRUE(res.has_value());
  EXPECT_NE(res->a, elem);
  EXPECT_NE(res->b, elem);
  EXPECT_TRUE(sys.config().params.in_group(res->a));
  EXPECT_TRUE(sys.config().params.in_group(res->b));
  EXPECT_NE(sys.oracle_decrypt_a(*res), elem);  // bound to B, not A
}

// Every GF(2^255-19) multiplication a run performs is charged to the
// backend's op counter exactly once, deferred encodes included: the thread's
// field-mul count and the group-op count move alike over a DKG, three
// transfers and the reads of every result after the System is gone. An
// encode that escaped the counter, or one charged twice, breaks the equality.
TEST(EcAccounting, EveryFieldMulIsCharged) {
  const GroupParams gp = GroupParams::named(ParamId::kEc255);
  // Built before the counts start, so that they count the System's work alone.
  SystemOptions o;
  o.params = gp;
  o.seed = 3;
  o.use_dkg = true;
  const std::uint64_t fe0 = mpz::fe_mul_count();
  const std::uint64_t ops0 = gp.group_op_count();
  std::vector<elgamal::Ciphertext> results;
  {
    System sys(std::move(o));
    std::vector<TransferId> ids;
    for (int i = 0; i < 3; ++i) ids.push_back(sys.add_transfer(gp.encode_message(Bigint(77 + i))));
    ASSERT_TRUE(sys.run_to_completion());
    for (TransferId t : ids) {
      for (ServerRank r = 1; r <= sys.b_cfg().n; ++r) {
        if (auto res = sys.result(t, r)) results.push_back(*res);
      }
    }
  }
  ASSERT_EQ(results.size(), 12u);
  for (const elgamal::Ciphertext& c : results) {
    EXPECT_TRUE(gp.in_group(c.a.encoding()) && gp.in_group(c.b.encoding()));
  }
  EXPECT_EQ(mpz::fe_mul_count() - fe0, gp.group_op_count() - ops0);
}

}  // namespace
}  // namespace dblind::core

#include "baselines/pss_transfer.hpp"

#include <gtest/gtest.h>

#include "mpz/modmath.hpp"

namespace dblind::baselines {
namespace {

using group::GroupParams;
using group::ParamId;
using mpz::Bigint;
using mpz::Prng;

struct Fixture {
  GroupParams gp = GroupParams::named(ParamId::kToy64);
  Prng prng;
  Bigint secret;
  std::vector<threshold::Share> a_shares;
  threshold::FeldmanCommitments a_commitments;

  explicit Fixture(std::uint64_t seed, std::size_t n_a = 4, std::size_t f_a = 1) : prng(seed) {
    secret = prng.uniform_below(gp.q());
    auto poly = threshold::sharing_polynomial(secret, f_a, gp.q(), prng);
    a_commitments = threshold::feldman_commit(gp, poly);
    for (std::uint32_t i = 1; i <= n_a; ++i)
      a_shares.push_back({i, threshold::eval_polynomial(poly, i, gp.q())});
  }
};

TEST(PssTransfer, ResharedSecretReconstructsAtB) {
  Fixture fx(1);
  std::vector<threshold::Share> quorum(fx.a_shares.begin(), fx.a_shares.begin() + 2);
  PssTransferResult r = pss_transfer(fx.gp, quorum, fx.a_commitments, 7, 2, fx.prng);
  ASSERT_EQ(r.b_shares.size(), 7u);
  // Any f_B+1 = 3 new shares reconstruct the same secret.
  std::vector<threshold::Share> b_quorum = {r.b_shares[0], r.b_shares[3], r.b_shares[6]};
  EXPECT_EQ(threshold::shamir_reconstruct(b_quorum, fx.gp.q()), fx.secret);
}

TEST(PssTransfer, NewSharingIsIndependent) {
  // Resharing twice produces different share values (fresh randomness) for
  // the same secret.
  Fixture fx(2);
  std::vector<threshold::Share> quorum(fx.a_shares.begin(), fx.a_shares.begin() + 2);
  PssTransferResult r1 = pss_transfer(fx.gp, quorum, fx.a_commitments, 4, 1, fx.prng);
  PssTransferResult r2 = pss_transfer(fx.gp, quorum, fx.a_commitments, 4, 1, fx.prng);
  EXPECT_NE(r1.b_shares[0].value, r2.b_shares[0].value);
  std::vector<threshold::Share> q1 = {r1.b_shares[0], r1.b_shares[1]};
  std::vector<threshold::Share> q2 = {r2.b_shares[0], r2.b_shares[1]};
  EXPECT_EQ(threshold::shamir_reconstruct(q1, fx.gp.q()),
            threshold::shamir_reconstruct(q2, fx.gp.q()));
}

TEST(PssTransfer, NewCommitmentsVerifyNewShares) {
  Fixture fx(3);
  std::vector<threshold::Share> quorum(fx.a_shares.begin(), fx.a_shares.begin() + 2);
  PssTransferResult r = pss_transfer(fx.gp, quorum, fx.a_commitments, 4, 1, fx.prng);
  for (const threshold::Share& s : r.b_shares) {
    EXPECT_TRUE(threshold::feldman_verify(fx.gp, r.b_commitments, s)) << s.index;
  }
  // Constant term still commits to the same secret.
  EXPECT_EQ(r.b_commitments.coefficients[0], fx.gp.pow_g(fx.secret));
}

TEST(PssTransfer, SubshareVerificationCatchesCheatingDealer) {
  // A dealer re-sharing a DIFFERENT value than its committed share fails the
  // check against A's commitments, and the transfer refuses to combine.
  Fixture fx(4);
  std::vector<threshold::Share> quorum(fx.a_shares.begin(), fx.a_shares.begin() + 2);
  quorum[0].value = mpz::addmod(quorum[0].value, Bigint(1), fx.gp.q());
  EXPECT_THROW((void)pss_transfer(fx.gp, quorum, fx.a_commitments, 4, 1, fx.prng),
               std::runtime_error);
}

TEST(PssTransfer, ProactiveRefreshWithinService) {
  // Refresh = reshare to the same (n, f): new shares, same secret. This is
  // the per-secret recurring cost the paper's approach avoids.
  Fixture fx(5);
  std::vector<threshold::Share> quorum(fx.a_shares.begin(), fx.a_shares.begin() + 2);
  PssTransferResult refreshed = pss_transfer(fx.gp, quorum, fx.a_commitments, 4, 1, fx.prng);
  std::vector<threshold::Share> new_quorum = {refreshed.b_shares[1], refreshed.b_shares[2]};
  EXPECT_EQ(threshold::shamir_reconstruct(new_quorum, fx.gp.q()), fx.secret);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NE(refreshed.b_shares[i].value, fx.a_shares[i].value);
}

TEST(PssTransfer, MessageAccountingIsQuadratic) {
  Fixture fx(6, 7, 2);
  std::vector<threshold::Share> quorum(fx.a_shares.begin(), fx.a_shares.begin() + 3);
  PssTransferResult r = pss_transfer(fx.gp, quorum, fx.a_commitments, 10, 3, fx.prng);
  EXPECT_EQ(r.messages, 3u * 10u);  // |Q| × n_B pairwise links
  EXPECT_GT(r.bytes, 0u);
}

TEST(PssTransfer, DegenerateSingleDealerQuorum) {
  // f_A = 0: a single share IS the secret; resharing still works.
  Fixture fx(8, 3, 0);
  std::vector<threshold::Share> quorum = {fx.a_shares[0]};
  PssTransferResult r = pss_transfer(fx.gp, quorum, fx.a_commitments, 4, 1, fx.prng);
  std::vector<threshold::Share> bq = {r.b_shares[0], r.b_shares[1]};
  EXPECT_EQ(threshold::shamir_reconstruct(bq, fx.gp.q()), fx.secret);
}

}  // namespace
}  // namespace dblind::baselines

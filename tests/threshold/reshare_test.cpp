// Shamir re-sharing onto a different roster/threshold (PR 7): the key — and
// thus the service public key — must be preserved across (n, f) -> (n', f')
// transitions, bad deals must be caught at the commitment or sub-share check,
// and old/new share sets must not mix (the algebra itself changes the
// evaluation points, so a mixed quorum reconstructs garbage — pinned here).
#include "threshold/reshare.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "mpz/modmath.hpp"
#include "threshold/thresh_decrypt.hpp"

namespace dblind::threshold {
namespace {

using mpz::Bigint;

group::GroupParams params() { return group::GroupParams::named(group::ParamId::kToy64); }

Bigint reconstruct_from(const ServiceKeyMaterial& m, std::uint32_t first,
                        std::uint32_t count) {
  std::vector<Share> quorum;
  for (std::uint32_t r = first; r < first + count; ++r) quorum.push_back(m.share_of(r));
  return shamir_reconstruct(quorum, m.params().q());
}

TEST(Reshare, PreservesKeyAcrossRosterGrowth) {
  group::GroupParams gp = params();
  mpz::Prng prng(42);
  ServiceConfig old_cfg{4, 1};
  ServiceKeyMaterial old_m = ServiceKeyMaterial::dealer_keygen(gp, old_cfg, prng);

  ServiceConfig new_cfg{7, 2};  // n: 4 -> 7, f: 1 -> 2
  ServiceKeyMaterial new_m = reshare_service(old_m, new_cfg, prng);

  EXPECT_EQ(new_m.public_key().y(), old_m.public_key().y());
  EXPECT_EQ(new_m.commitments().coefficients.size(), new_cfg.f + 1);
  // Any new quorum reconstructs the same key as any old quorum.
  Bigint key = reconstruct_from(old_m, 1, old_cfg.quorum());
  EXPECT_EQ(reconstruct_from(new_m, 1, new_cfg.quorum()), key);
  EXPECT_EQ(reconstruct_from(new_m, 4, new_cfg.quorum()), key);
  EXPECT_EQ(gp.pow_g(key), old_m.public_key().y());
  // Every new share verifies against the new joint commitments.
  for (std::uint32_t j = 1; j <= new_cfg.n; ++j) {
    EXPECT_TRUE(feldman_verify(gp, new_m.commitments(), new_m.share_of(j)));
  }
}

TEST(Reshare, PreservesKeyAcrossRosterShrink) {
  group::GroupParams gp = params();
  mpz::Prng prng(7);
  ServiceKeyMaterial old_m = ServiceKeyMaterial::dealer_keygen(gp, {7, 2}, prng);
  ServiceKeyMaterial new_m = reshare_service(old_m, {4, 1}, prng, {2, 4, 6});

  EXPECT_EQ(new_m.public_key().y(), old_m.public_key().y());
  EXPECT_EQ(reconstruct_from(new_m, 1, 2), reconstruct_from(old_m, 1, 3));
}

TEST(Reshare, AnyOldQuorumDealsTheSameKey) {
  group::GroupParams gp = params();
  mpz::Prng prng(9);
  ServiceKeyMaterial old_m = ServiceKeyMaterial::dealer_keygen(gp, {4, 1}, prng);
  ServiceKeyMaterial via12 = reshare_service(old_m, {4, 1}, prng, {1, 2});
  ServiceKeyMaterial via34 = reshare_service(old_m, {4, 1}, prng, {3, 4});
  EXPECT_EQ(reconstruct_from(via12, 1, 2), reconstruct_from(via34, 1, 2));
  // Fresh polynomials: the actual shares differ even though the key matches.
  EXPECT_NE(via12.share_of(1).value, via34.share_of(1).value);
}

TEST(Reshare, CommitmentCheckCatchesWrongConstantTerm) {
  group::GroupParams gp = params();
  mpz::Prng prng(11);
  ServiceKeyMaterial old_m = ServiceKeyMaterial::dealer_keygen(gp, {4, 1}, prng);

  ReshareDeal good = reshare_deal(gp, old_m.share_of(2), 4, 1, prng);
  EXPECT_TRUE(reshare_verify_commitments(gp, old_m.commitments(), good, 1));

  // A dealer re-sharing a DIFFERENT value than its old share is caught.
  Share forged{2, gp.random_exponent(prng)};
  ReshareDeal bad = reshare_deal(gp, forged, 4, 1, prng);
  EXPECT_FALSE(reshare_verify_commitments(gp, old_m.commitments(), bad, 1));
  // Wrong target degree is caught too.
  EXPECT_FALSE(reshare_verify_commitments(gp, old_m.commitments(), good, 2));
}

TEST(Reshare, SubshareCheckCatchesTampering) {
  group::GroupParams gp = params();
  mpz::Prng prng(13);
  ServiceKeyMaterial old_m = ServiceKeyMaterial::dealer_keygen(gp, {4, 1}, prng);
  ReshareDeal deal = reshare_deal(gp, old_m.share_of(1), 4, 1, prng);
  for (const Share& sub : deal.subshares) {
    EXPECT_TRUE(reshare_verify_subshare(gp, deal.commitments, sub));
  }
  Share tampered = deal.subshares[2];
  tampered.value = mpz::addmod(tampered.value, Bigint(1), gp.q());
  EXPECT_FALSE(reshare_verify_subshare(gp, deal.commitments, tampered));
  Share wrong_index = deal.subshares[2];
  wrong_index.index = 4;
  EXPECT_FALSE(reshare_verify_subshare(gp, deal.commitments, wrong_index));
}

TEST(Reshare, MixedOldNewQuorumReconstructsGarbage) {
  // Cross-epoch safety at the algebra level: shares from different
  // configurations must never be combined (invariant I6's root cause).
  group::GroupParams gp = params();
  mpz::Prng prng(17);
  ServiceKeyMaterial old_m = ServiceKeyMaterial::dealer_keygen(gp, {4, 1}, prng);
  ServiceKeyMaterial new_m = reshare_service(old_m, {4, 1}, prng);
  Bigint key = reconstruct_from(old_m, 1, 2);

  std::vector<Share> mixed{old_m.share_of(1), new_m.share_of(2)};
  EXPECT_NE(shamir_reconstruct(mixed, gp.q()), key);
}

TEST(Reshare, RejectsSubThresholdDealerQuorum) {
  group::GroupParams gp = params();
  mpz::Prng prng(19);
  ServiceKeyMaterial old_m = ServiceKeyMaterial::dealer_keygen(gp, {4, 1}, prng);
  EXPECT_THROW((void)reshare_service(old_m, {4, 1}, prng, {3}), std::invalid_argument);
}

TEST(Reshare, ComposesWithZeroSharingRefresh) {
  // Reconfigure, then proactively refresh the new roster (a same-roster
  // reshare): both preserve the key, so clients never see a public-key
  // change.
  group::GroupParams gp = params();
  mpz::Prng prng(23);
  ServiceKeyMaterial m0 = ServiceKeyMaterial::dealer_keygen(gp, {4, 1}, prng);
  ServiceKeyMaterial m1 = reshare_service(m0, {7, 2}, prng);
  ServiceKeyMaterial m2 = reshare_service(m1, m1.config(), prng);
  EXPECT_EQ(m2.public_key().y(), m0.public_key().y());
  EXPECT_EQ(reconstruct_from(m2, 1, 3), reconstruct_from(m0, 1, 2));
}

// §5 proactive refresh is a reshare onto the same (n, f) roster: every share
// changes, the key and the public key do not.
TEST(Reshare, SameRosterRefresh) {
  group::GroupParams gp = params();
  mpz::Prng prng(29);
  ServiceKeyMaterial m0 = ServiceKeyMaterial::dealer_keygen(gp, {4, 1}, prng);
  Bigint m = gp.random_element(prng);
  elgamal::Ciphertext c = m0.public_key().encrypt(m, prng);

  ServiceKeyMaterial m1 = reshare_service(m0, m0.config(), prng);
  EXPECT_EQ(m1.public_key().y(), m0.public_key().y());
  for (std::uint32_t j = 1; j <= 4; ++j) {
    EXPECT_NE(m1.share_of(j).value, m0.share_of(j).value) << j;
    EXPECT_TRUE(feldman_verify(gp, m1.commitments(), m1.share_of(j))) << j;
  }
  // A ciphertext made before the refresh threshold-decrypts with new shares.
  std::vector<DecryptionShare> shares;
  for (std::uint32_t j : {2u, 4u}) {
    DecryptionShare ds = make_decryption_share(gp, c, m1.share_of(j), "refresh", prng);
    EXPECT_TRUE(verify_decryption_share(gp, m1.commitments(), c, ds, "refresh")) << j;
    shares.push_back(std::move(ds));
  }
  EXPECT_EQ(combine_decryption(gp, c, shares), m);
  // A second refresh in a row keeps the key too.
  ServiceKeyMaterial m2 = reshare_service(m1, m1.config(), prng);
  EXPECT_EQ(m2.public_key().y(), m0.public_key().y());
  EXPECT_EQ(reconstruct_from(m2, 3, 2), reconstruct_from(m0, 1, 2));
}

TEST(Reshare, ApplyValidatesInput) {
  group::GroupParams gp = params();
  const std::vector<Bigint> two = {Bigint(5), Bigint(7)};
  const std::vector<std::uint32_t> none;
  const std::vector<std::uint32_t> dup = {1, 1};
  const std::vector<std::uint32_t> ok = {1, 2};
  const std::vector<std::uint32_t> three = {1, 2, 3};
  EXPECT_THROW((void)reshare_apply(gp, none, std::span<const Bigint>(), 1),
               std::invalid_argument);
  EXPECT_THROW((void)reshare_apply(gp, dup, two, 1), std::invalid_argument);
  EXPECT_THROW((void)reshare_apply(gp, ok, two, 0), std::invalid_argument);
  EXPECT_THROW((void)reshare_apply(gp, three, two, 1), std::invalid_argument);
  EXPECT_NO_THROW((void)reshare_apply(gp, ok, two, 1));
}

}  // namespace
}  // namespace dblind::threshold

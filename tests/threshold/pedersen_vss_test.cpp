#include "threshold/pedersen_vss.hpp"

#include <gtest/gtest.h>

#include "mpz/modmath.hpp"

namespace dblind::threshold {
namespace {

using group::GroupParams;
using group::ParamId;
using mpz::Bigint;
using mpz::Prng;

zkp::PedersenParams make() {
  return zkp::PedersenParams(GroupParams::named(ParamId::kToy64), "vss-test");
}

TEST(PedersenVss, SharesVerifyAndReconstruct) {
  zkp::PedersenParams pp = make();
  Prng prng(1);
  Bigint secret = prng.uniform_below(pp.group().q());
  PedersenDeal deal = pedersen_share(pp, secret, 7, 2, prng);
  ASSERT_EQ(deal.shares.size(), 7u);
  ASSERT_EQ(deal.commitments.size(), 3u);
  for (const PedersenShare& s : deal.shares) {
    EXPECT_TRUE(pedersen_verify(pp, deal.commitments, s)) << s.index;
  }
  std::vector<PedersenShare> quorum = {deal.shares[1], deal.shares[4], deal.shares[6]};
  EXPECT_EQ(pedersen_reconstruct(pp, quorum), secret);
}

TEST(PedersenVss, CommitmentsHideTheSecret) {
  // Unlike Feldman, the constant-term commitment is NOT g^{secret}: it is
  // blinded by h^{b_0}.
  zkp::PedersenParams pp = make();
  Prng prng(2);
  Bigint secret = prng.uniform_below(pp.group().q());
  PedersenDeal deal = pedersen_share(pp, secret, 4, 1, prng);
  EXPECT_NE(deal.commitments[0], pp.group().pow_g(secret));
}

TEST(PedersenVss, TamperedSharesRejected) {
  zkp::PedersenParams pp = make();
  Prng prng(3);
  PedersenDeal deal = pedersen_share(pp, Bigint(42), 4, 1, prng);
  PedersenShare bad = deal.shares[2];
  bad.value = mpz::addmod(bad.value, Bigint(1), pp.group().q());
  EXPECT_FALSE(pedersen_verify(pp, deal.commitments, bad));

  bad = deal.shares[2];
  bad.blinding = mpz::addmod(bad.blinding, Bigint(1), pp.group().q());
  EXPECT_FALSE(pedersen_verify(pp, deal.commitments, bad));

  bad = deal.shares[2];
  bad.index = 4;  // claims another evaluation point
  EXPECT_FALSE(pedersen_verify(pp, deal.commitments, bad));
}

TEST(PedersenVss, OutOfRangeSharesRejected) {
  zkp::PedersenParams pp = make();
  Prng prng(4);
  PedersenDeal deal = pedersen_share(pp, Bigint(1), 4, 1, prng);
  PedersenShare bad = deal.shares[0];
  bad.value = pp.group().q();
  EXPECT_FALSE(pedersen_verify(pp, deal.commitments, bad));
  bad = deal.shares[0];
  bad.index = 0;
  EXPECT_FALSE(pedersen_verify(pp, deal.commitments, bad));
}

TEST(PedersenVss, AdditiveAcrossDeals) {
  // Pedersen-VSS deals add: shares and commitments of two deals combine to a
  // valid sharing of the sum — the building block of unbiased DKGs.
  zkp::PedersenParams pp = make();
  Prng prng(5);
  const Bigint& q = pp.group().q();
  Bigint s1 = prng.uniform_below(q);
  Bigint s2 = prng.uniform_below(q);
  PedersenDeal d1 = pedersen_share(pp, s1, 4, 1, prng);
  PedersenDeal d2 = pedersen_share(pp, s2, 4, 1, prng);

  std::vector<group::Element> joint_commitments;
  for (std::size_t j = 0; j < d1.commitments.size(); ++j)
    joint_commitments.push_back(pp.add(d1.commitments[j], d2.commitments[j]));
  std::vector<PedersenShare> joint_shares;
  for (std::uint32_t i = 0; i < 4; ++i) {
    joint_shares.push_back({i + 1, mpz::addmod(d1.shares[i].value, d2.shares[i].value, q),
                            mpz::addmod(d1.shares[i].blinding, d2.shares[i].blinding, q)});
    EXPECT_TRUE(pedersen_verify(pp, joint_commitments, joint_shares.back()));
  }
  std::vector<PedersenShare> quorum = {joint_shares[0], joint_shares[3]};
  EXPECT_EQ(pedersen_reconstruct(pp, quorum), mpz::addmod(s1, s2, q));
}

TEST(PedersenVss, BadArgumentsThrow) {
  zkp::PedersenParams pp = make();
  Prng prng(6);
  EXPECT_THROW((void)pedersen_share(pp, Bigint(1), 2, 2, prng), std::invalid_argument);
  EXPECT_THROW((void)pedersen_reconstruct(pp, {}), std::invalid_argument);
  PedersenDeal deal = pedersen_share(pp, Bigint(1), 4, 1, prng);
  std::vector<PedersenShare> dup = {deal.shares[0], deal.shares[0]};
  EXPECT_THROW((void)pedersen_reconstruct(pp, dup), std::invalid_argument);
}

}  // namespace
}  // namespace dblind::threshold

#include "zkp/schnorr.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "mpz/modmath.hpp"

namespace dblind::zkp {
namespace {

using group::GroupParams;
using group::ParamId;
using mpz::Bigint;
using mpz::Prng;

GroupParams toy() { return GroupParams::named(ParamId::kToy64); }

std::vector<std::uint8_t> bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()),
          reinterpret_cast<const std::uint8_t*>(s.data()) + s.size()};
}

TEST(Schnorr, SignVerifyRoundTrip) {
  GroupParams gp = toy();
  Prng prng(1);
  SchnorrSigningKey sk = SchnorrSigningKey::generate(gp, prng);
  auto msg = bytes("hello, distributed world");
  SchnorrSignature sig = sk.sign(msg, prng);
  EXPECT_TRUE(sk.verify_key().verify(msg, sig));
}

TEST(Schnorr, WrongMessageRejected) {
  GroupParams gp = toy();
  Prng prng(2);
  SchnorrSigningKey sk = SchnorrSigningKey::generate(gp, prng);
  SchnorrSignature sig = sk.sign(bytes("message one"), prng);
  EXPECT_FALSE(sk.verify_key().verify(bytes("message two"), sig));
  EXPECT_FALSE(sk.verify_key().verify(bytes(""), sig));
}

TEST(Schnorr, WrongKeyRejected) {
  GroupParams gp = toy();
  Prng prng(3);
  SchnorrSigningKey sk1 = SchnorrSigningKey::generate(gp, prng);
  SchnorrSigningKey sk2 = SchnorrSigningKey::generate(gp, prng);
  auto msg = bytes("signed by sk1");
  SchnorrSignature sig = sk1.sign(msg, prng);
  EXPECT_FALSE(sk2.verify_key().verify(msg, sig));
}

TEST(Schnorr, TamperedSignatureRejected) {
  GroupParams gp = toy();
  Prng prng(4);
  SchnorrSigningKey sk = SchnorrSigningKey::generate(gp, prng);
  auto msg = bytes("tamper target");
  SchnorrSignature sig = sk.sign(msg, prng);

  SchnorrSignature bad_s = sig;
  bad_s.s = (bad_s.s + Bigint(1)) % gp.q();
  EXPECT_FALSE(sk.verify_key().verify(msg, bad_s));

  SchnorrSignature bad_r = sig;
  bad_r.r = gp.mul(bad_r.r, gp.g());
  EXPECT_FALSE(sk.verify_key().verify(msg, bad_r));
}

TEST(Schnorr, MalformedSignatureRejectedNotCrash) {
  GroupParams gp = toy();
  Prng prng(5);
  SchnorrSigningKey sk = SchnorrSigningKey::generate(gp, prng);
  auto msg = bytes("x");
  // r not in group; s out of range.
  EXPECT_FALSE(sk.verify_key().verify(msg, {Bigint(0), Bigint(1)}));
  EXPECT_FALSE(sk.verify_key().verify(msg, {gp.p() - Bigint(1), Bigint(1)}));
  EXPECT_FALSE(sk.verify_key().verify(msg, {gp.g(), gp.q()}));
  EXPECT_FALSE(sk.verify_key().verify(msg, {gp.g(), Bigint(-1)}));
}

TEST(Schnorr, SignaturesAreRandomized) {
  GroupParams gp = toy();
  Prng prng(6);
  SchnorrSigningKey sk = SchnorrSigningKey::generate(gp, prng);
  auto msg = bytes("same message");
  SchnorrSignature s1 = sk.sign(msg, prng);
  SchnorrSignature s2 = sk.sign(msg, prng);
  EXPECT_NE(s1, s2);
  EXPECT_TRUE(sk.verify_key().verify(msg, s1));
  EXPECT_TRUE(sk.verify_key().verify(msg, s2));
}

TEST(Schnorr, KeyValidation) {
  GroupParams gp = toy();
  EXPECT_THROW((void)SchnorrSigningKey::from_private(gp, Bigint(0)), std::invalid_argument);
  EXPECT_THROW((void)SchnorrSigningKey::from_private(gp, gp.q()), std::invalid_argument);
  EXPECT_THROW(SchnorrVerifyKey(gp, Bigint(0)), std::invalid_argument);
  EXPECT_THROW(SchnorrVerifyKey(gp, gp.p() - Bigint(1)), std::invalid_argument);
}

TEST(SchnorrBatch, AllValidAccepted) {
  GroupParams gp = toy();
  Prng prng(20);
  std::vector<SchnorrSigningKey> keys;
  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<SchnorrSignature> sigs;
  for (int i = 0; i < 7; ++i) {
    keys.push_back(SchnorrSigningKey::generate(gp, prng));
    msgs.push_back(bytes("message " + std::to_string(i)));
    sigs.push_back(keys.back().sign(msgs.back(), prng));
  }
  std::vector<BatchEntry> batch;
  std::vector<SchnorrVerifyKey> vks;
  for (int i = 0; i < 7; ++i) vks.push_back(keys[static_cast<std::size_t>(i)].verify_key());
  for (int i = 0; i < 7; ++i)
    batch.push_back({&vks[static_cast<std::size_t>(i)], msgs[static_cast<std::size_t>(i)],
                     &sigs[static_cast<std::size_t>(i)]});
  EXPECT_TRUE(schnorr_batch_verify(gp, batch));
}

TEST(SchnorrBatch, OneBadSignatureRejectsBatch) {
  GroupParams gp = toy();
  Prng prng(21);
  std::vector<SchnorrSigningKey> keys;
  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<SchnorrSignature> sigs;
  for (int i = 0; i < 5; ++i) {
    keys.push_back(SchnorrSigningKey::generate(gp, prng));
    msgs.push_back(bytes("m" + std::to_string(i)));
    sigs.push_back(keys.back().sign(msgs.back(), prng));
  }
  sigs[3].s = (sigs[3].s + Bigint(1)) % gp.q();  // corrupt one
  std::vector<SchnorrVerifyKey> vks;
  for (auto& k : keys) vks.push_back(k.verify_key());
  std::vector<BatchEntry> batch;
  for (int i = 0; i < 5; ++i)
    batch.push_back({&vks[static_cast<std::size_t>(i)], msgs[static_cast<std::size_t>(i)],
                     &sigs[static_cast<std::size_t>(i)]});
  EXPECT_FALSE(schnorr_batch_verify(gp, batch));
}

TEST(SchnorrBatch, SwappedMessagesRejected) {
  GroupParams gp = toy();
  Prng prng(22);
  SchnorrSigningKey k1 = SchnorrSigningKey::generate(gp, prng);
  SchnorrSigningKey k2 = SchnorrSigningKey::generate(gp, prng);
  auto m1 = bytes("alpha");
  auto m2 = bytes("beta");
  SchnorrSignature s1 = k1.sign(m1, prng);
  SchnorrSignature s2 = k2.sign(m2, prng);
  SchnorrVerifyKey v1 = k1.verify_key();
  SchnorrVerifyKey v2 = k2.verify_key();
  // Messages swapped between entries: both individually invalid.
  std::vector<BatchEntry> batch = {{&v1, m2, &s1}, {&v2, m1, &s2}};
  EXPECT_FALSE(schnorr_batch_verify(gp, batch));
}

TEST(SchnorrBatch, EmptyAndSingleton) {
  GroupParams gp = toy();
  Prng prng(23);
  EXPECT_TRUE(schnorr_batch_verify(gp, {}));
  SchnorrSigningKey k = SchnorrSigningKey::generate(gp, prng);
  auto m = bytes("solo");
  SchnorrSignature sig = k.sign(m, prng);
  SchnorrVerifyKey vk = k.verify_key();
  std::vector<BatchEntry> one = {{&vk, m, &sig}};
  EXPECT_TRUE(schnorr_batch_verify(gp, one));
  sig.s = (sig.s + Bigint(1)) % gp.q();
  std::vector<BatchEntry> bad = {{&vk, m, &sig}};
  EXPECT_FALSE(schnorr_batch_verify(gp, bad));
}

TEST(SchnorrBatch, MalformedEntriesRejected) {
  GroupParams gp = toy();
  Prng prng(24);
  SchnorrSigningKey k = SchnorrSigningKey::generate(gp, prng);
  auto m = bytes("x");
  SchnorrSignature sig = k.sign(m, prng);
  SchnorrVerifyKey vk = k.verify_key();
  SchnorrSignature out_of_range = sig;
  out_of_range.s = gp.q();
  std::vector<BatchEntry> batch = {{&vk, m, &out_of_range}};
  EXPECT_FALSE(schnorr_batch_verify(gp, batch));
  SchnorrSignature bad_r = sig;
  bad_r.r = gp.p() - Bigint(1);  // not in subgroup
  std::vector<BatchEntry> batch2 = {{&vk, m, &bad_r}};
  EXPECT_FALSE(schnorr_batch_verify(gp, batch2));
}

TEST(Schnorr, EmptyMessageSignable) {
  GroupParams gp = toy();
  Prng prng(7);
  SchnorrSigningKey sk = SchnorrSigningKey::generate(gp, prng);
  SchnorrSignature sig = sk.sign({}, prng);
  EXPECT_TRUE(sk.verify_key().verify({}, sig));
  EXPECT_FALSE(sk.verify_key().verify(bytes("a"), sig));
}

// The group operations `f` performs on `gp`: field muls on ec255, Montgomery
// multiplications on mod-p.
std::uint64_t ops_of(const GroupParams& gp, const std::function<void()>& f) {
  const std::uint64_t before = gp.group_op_count();
  f();
  return gp.group_op_count() - before;
}

// A check under a pinned key runs g and the key over their shift tables: at
// most 16 doublings (ec255) or 15 squarings (mod-p) instead of one per bit of
// q, about a third of the group operations once the key's table exists. The
// verdicts are the same either way.
TEST(SchnorrCost, CheckUnderAPinnedKeyCostsAThird) {
  struct Bound {
    ParamId id;
    std::uint64_t pinned_at_most;
    std::uint64_t unpinned_above;
  };
  for (const Bound& b : {Bound{ParamId::kEc255, 1000, 2400}, Bound{ParamId::kSec1024, 450, 1300}}) {
    const GroupParams pinned = GroupParams::named(b.id);
    const GroupParams unpinned = GroupParams::named(b.id);
    SCOPED_TRACE(pinned.backend_name());
    Prng prng(31);
    const SchnorrSigningKey sk = SchnorrSigningKey::generate(pinned, prng);
    pinned.pin_base(sk.verify_key().point());
    const SchnorrVerifyKey& with_pin = sk.verify_key();
    const SchnorrVerifyKey without_pin(unpinned, with_pin.point());
    const auto msg = bytes("pinned");
    const SchnorrSignature sig = sk.sign(msg, prng);
    const SchnorrSignature forged{sig.r, mpz::addmod(sig.s, Bigint(1), pinned.q())};
    (void)unpinned.pow_g(Bigint(1));  // g's table, on both sides
    // The first check under the key builds its table.
    EXPECT_TRUE(with_pin.verify(msg, sig));
    const std::uint64_t with = ops_of(pinned, [&] { EXPECT_TRUE(with_pin.verify(msg, sig)); });
    const std::uint64_t without =
        ops_of(unpinned, [&] { EXPECT_TRUE(without_pin.verify(msg, sig)); });
    EXPECT_LE(with, b.pinned_at_most);
    EXPECT_GT(without, b.unpinned_above);
    EXPECT_FALSE(with_pin.verify(msg, forged));
    EXPECT_FALSE(without_pin.verify(msg, forged));
  }
}

}  // namespace
}  // namespace dblind::zkp

#include "elgamal/elgamal.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "mpz/modmath.hpp"

namespace dblind::elgamal {
namespace {

using group::GroupParams;
using group::ParamId;
using mpz::Bigint;
using mpz::Prng;

GroupParams toy() { return GroupParams::named(ParamId::kToy64); }

TEST(ElGamal, EncryptDecryptRoundTrip) {
  GroupParams gp = toy();
  Prng prng(1);
  KeyPair kp = KeyPair::generate(gp, prng);
  for (int i = 0; i < 20; ++i) {
    Bigint m = gp.random_element(prng);
    Ciphertext c = kp.public_key().encrypt(m, prng);
    EXPECT_EQ(kp.decrypt(c), m);
  }
}

TEST(ElGamal, EncryptionIsRandomized) {
  GroupParams gp = toy();
  Prng prng(2);
  KeyPair kp = KeyPair::generate(gp, prng);
  Bigint m = gp.random_element(prng);
  Ciphertext c1 = kp.public_key().encrypt(m, prng);
  Ciphertext c2 = kp.public_key().encrypt(m, prng);
  EXPECT_NE(c1, c2);
  EXPECT_EQ(kp.decrypt(c1), kp.decrypt(c2));
}

TEST(ElGamal, KnownNonceMatchesDefinition) {
  GroupParams gp = toy();
  Prng prng(3);
  KeyPair kp = KeyPair::generate(gp, prng);
  Bigint m = gp.random_element(prng);
  Bigint r = gp.random_exponent(prng);
  Ciphertext c = kp.public_key().encrypt_with_nonce(m, r);
  EXPECT_EQ(c.a, gp.pow_g(r));
  EXPECT_EQ(c.b, gp.mul(m, gp.pow(kp.public_key().y(), r)));
}

TEST(ElGamal, RejectsBadPlaintextAndNonce) {
  GroupParams gp = toy();
  Prng prng(4);
  KeyPair kp = KeyPair::generate(gp, prng);
  // Non-residue plaintext.
  EXPECT_THROW((void)kp.public_key().encrypt(gp.p() - Bigint(1), prng), std::invalid_argument);
  EXPECT_THROW((void)kp.public_key().encrypt(Bigint(0), prng), std::invalid_argument);
  // Nonce 0 and >= q.
  Bigint m = gp.random_element(prng);
  EXPECT_THROW((void)kp.public_key().encrypt_with_nonce(m, Bigint(0)), std::invalid_argument);
  EXPECT_THROW((void)kp.public_key().encrypt_with_nonce(m, gp.q()), std::invalid_argument);
}

TEST(ElGamal, DecryptRejectsMalformed) {
  GroupParams gp = toy();
  Prng prng(5);
  KeyPair kp = KeyPair::generate(gp, prng);
  EXPECT_THROW((void)kp.decrypt({Bigint(0), Bigint(5)}), std::invalid_argument);
  EXPECT_THROW((void)kp.decrypt({Bigint(5), gp.p()}), std::invalid_argument);
}

TEST(ElGamal, PublicKeyValidatesY) {
  GroupParams gp = toy();
  EXPECT_THROW(PublicKey(gp, Bigint(0)), std::invalid_argument);
  EXPECT_THROW(PublicKey(gp, gp.p() - Bigint(1)), std::invalid_argument);  // non-residue
}

TEST(ElGamal, KeyPairFromPrivateValidates) {
  GroupParams gp = toy();
  EXPECT_THROW((void)KeyPair::from_private(gp, Bigint(0)), std::invalid_argument);
  EXPECT_THROW((void)KeyPair::from_private(gp, gp.q()), std::invalid_argument);
  KeyPair kp = KeyPair::from_private(gp, Bigint(12345));
  EXPECT_EQ(kp.public_key().y(), gp.pow_g(Bigint(12345)));
}

// --- §3 ciphertext algebra -------------------------------------------------

TEST(ElGamalAlgebra, InverseProperty) {
  // E(m)^{-1} ∈ E(m^{-1})
  GroupParams gp = toy();
  Prng prng(6);
  KeyPair kp = KeyPair::generate(gp, prng);
  Bigint m = gp.random_element(prng);
  Ciphertext c = kp.public_key().encrypt(m, prng);
  Ciphertext inv = kp.public_key().inverse(c);
  EXPECT_EQ(kp.decrypt(inv), gp.inv(m));
}

TEST(ElGamalAlgebra, JuxtapositionProperty) {
  // m' · E(m, r) = E(m'm, r)
  GroupParams gp = toy();
  Prng prng(7);
  KeyPair kp = KeyPair::generate(gp, prng);
  Bigint m = gp.random_element(prng);
  Bigint mp = gp.random_element(prng);
  Bigint r = gp.random_exponent(prng);
  Ciphertext c = kp.public_key().encrypt_with_nonce(m, r);
  Ciphertext juxta = kp.public_key().juxtapose(mp, c);
  // Same nonce r, product plaintext.
  EXPECT_EQ(juxta, kp.public_key().encrypt_with_nonce(gp.mul(m, mp), r));
  EXPECT_EQ(kp.decrypt(juxta), gp.mul(m, mp));
}

TEST(ElGamalAlgebra, MultiplicationProperty) {
  // E(m1) × E(m2) ∈ E(m1*m2)
  GroupParams gp = toy();
  Prng prng(8);
  KeyPair kp = KeyPair::generate(gp, prng);
  Bigint m1 = gp.random_element(prng);
  Bigint m2 = gp.random_element(prng);
  Ciphertext c1 = kp.public_key().encrypt(m1, prng);
  Ciphertext c2 = kp.public_key().encrypt(m2, prng);
  auto prod = kp.public_key().multiply(c1, c2);
  ASSERT_TRUE(prod.has_value());
  EXPECT_EQ(kp.decrypt(*prod), gp.mul(m1, m2));
}

TEST(ElGamalAlgebra, MultiplicationSideConditionDetected) {
  // r2 = q - r1 makes r1 + r2 ≡ 0, i.e. a == 1: the degenerate case the
  // paper's side condition catches (and that would otherwise leak m1*m2).
  GroupParams gp = toy();
  Prng prng(9);
  KeyPair kp = KeyPair::generate(gp, prng);
  Bigint m1 = gp.random_element(prng);
  Bigint m2 = gp.random_element(prng);
  Bigint r1 = gp.random_exponent(prng);
  Bigint r2 = gp.q() - r1;
  Ciphertext c1 = kp.public_key().encrypt_with_nonce(m1, r1);
  Ciphertext c2 = kp.public_key().encrypt_with_nonce(m2, r2);
  auto prod = kp.public_key().multiply(c1, c2);
  EXPECT_FALSE(prod.has_value());
  // And indeed the degenerate "ciphertext" would expose the plaintext:
  EXPECT_EQ(gp.mul(c1.b, c2.b), gp.mul(m1, m2));
}

TEST(ElGamalAlgebra, ProductOfMany) {
  GroupParams gp = toy();
  Prng prng(10);
  KeyPair kp = KeyPair::generate(gp, prng);
  std::vector<Ciphertext> cs;
  Bigint expect(1);
  for (int i = 0; i < 7; ++i) {
    Bigint m = gp.random_element(prng);
    expect = gp.mul(expect, m);
    cs.push_back(kp.public_key().encrypt(m, prng));
  }
  auto prod = kp.public_key().product(cs);
  ASSERT_TRUE(prod.has_value());
  EXPECT_EQ(kp.decrypt(*prod), expect);
}

TEST(ElGamalAlgebra, ProductToleratesDegenerateIntermediate) {
  // The side condition constrains only the total nonce sum; an intermediate
  // cancellation must not abort the fold.
  GroupParams gp = toy();
  Prng prng(11);
  KeyPair kp = KeyPair::generate(gp, prng);
  Bigint r1 = gp.random_exponent(prng);
  Bigint m1 = gp.random_element(prng);
  Bigint m2 = gp.random_element(prng);
  Bigint m3 = gp.random_element(prng);
  std::vector<Ciphertext> cs = {
      kp.public_key().encrypt_with_nonce(m1, r1),
      kp.public_key().encrypt_with_nonce(m2, gp.q() - r1),  // cancels r1
      kp.public_key().encrypt(m3, prng),
  };
  auto prod = kp.public_key().product(cs);
  ASSERT_TRUE(prod.has_value());
  EXPECT_EQ(kp.decrypt(*prod), gp.mul(gp.mul(m1, m2), m3));
}

TEST(ElGamalAlgebra, ProductDetectsTotalDegeneracy) {
  GroupParams gp = toy();
  Prng prng(12);
  KeyPair kp = KeyPair::generate(gp, prng);
  Bigint r1 = gp.random_exponent(prng);
  std::vector<Ciphertext> cs = {
      kp.public_key().encrypt_with_nonce(gp.random_element(prng), r1),
      kp.public_key().encrypt_with_nonce(gp.random_element(prng), gp.q() - r1),
  };
  EXPECT_FALSE(kp.public_key().product(cs).has_value());
}

TEST(ElGamalAlgebra, ProductOfEmptyThrows) {
  GroupParams gp = toy();
  Prng prng(13);
  KeyPair kp = KeyPair::generate(gp, prng);
  EXPECT_THROW((void)kp.public_key().product({}), std::invalid_argument);
}

TEST(ElGamal, WellFormedChecks) {
  GroupParams gp = toy();
  Prng prng(14);
  KeyPair kp = KeyPair::generate(gp, prng);
  Ciphertext good = kp.public_key().encrypt(gp.random_element(prng), prng);
  EXPECT_TRUE(kp.public_key().well_formed(good));
  EXPECT_FALSE(kp.public_key().well_formed({Bigint(0), good.b}));
  EXPECT_FALSE(kp.public_key().well_formed({good.a, gp.p()}));
}

// A bare component in [1, p - 1] that is not a quadratic residue is not a
// group element: the ciphertext is malformed, and decrypt refuses it rather
// than return a non-element. (-1 is a non-residue, since p = 3 mod 4.)
TEST(ElGamal, NonResidueComponentIsMalformed) {
  GroupParams gp = toy();
  Prng prng(15);
  KeyPair kp = KeyPair::generate(gp, prng);
  Ciphertext good = kp.public_key().encrypt(gp.random_element(prng), prng);
  const Bigint a = good.a;
  const Bigint b = good.b;
  for (const Ciphertext& c : {Ciphertext{gp.p() - a, b}, Ciphertext{a, gp.p() - b}}) {
    EXPECT_FALSE(kp.public_key().well_formed(c));
    EXPECT_THROW((void)kp.decrypt(c), std::invalid_argument);
  }
}

// Blinding/un-blinding algebra (paper Fig. 1/2, single-key core): verifies
// the derivation chain (mρ)·E_B(ρ)^{-1} ∈ E_B(m) used by step 4.
TEST(ElGamalAlgebra, BlindUnblindChain) {
  GroupParams gp = toy();
  Prng prng(15);
  KeyPair ka = KeyPair::generate(gp, prng);
  KeyPair kb = KeyPair::generate(gp, prng);
  Bigint m = gp.random_element(prng);
  Bigint rho = gp.random_element(prng);

  Ciphertext ea_m = ka.public_key().encrypt(m, prng);
  Ciphertext ea_rho = ka.public_key().encrypt(rho, prng);
  Ciphertext eb_rho = kb.public_key().encrypt(rho, prng);

  auto blinded = ka.public_key().multiply(ea_m, ea_rho);
  ASSERT_TRUE(blinded.has_value());
  Bigint m_rho = ka.decrypt(*blinded);
  EXPECT_EQ(m_rho, gp.mul(m, rho));

  Ciphertext eb_m = kb.public_key().juxtapose(m_rho, kb.public_key().inverse(eb_rho));
  EXPECT_EQ(kb.decrypt(eb_m), m);
}

}  // namespace
}  // namespace dblind::elgamal

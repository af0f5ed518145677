// ElGamal public-key encryption and the ciphertext algebra of §3.
//
// A ciphertext for m ∈ G_p is E(m, r) = (g^r, m·y^r). The paper's three
// operations — Inverse, Juxtaposition and Multiplication (the homomorphic
// property) — are what make re-encryption by blinding work, so they are
// first-class here, together with the `a != 1` side-condition check that
// guards ElGamal Multiplication against r1 + r2 = 0.
#pragma once

#include <optional>
#include <vector>

#include "group/params.hpp"
#include "mpz/bigint.hpp"
#include "mpz/random.hpp"

namespace dblind::elgamal {

using group::Element;
using group::GroupParams;
using mpz::Bigint;

struct Ciphertext {
  Element a;  // g^r
  Element b;  // m * y^r

  friend bool operator==(const Ciphertext&, const Ciphertext&) = default;
};

class PublicKey {
 public:
  // y = g^k. Validates y ∈ G_p and keeps it decoded (throws
  // std::invalid_argument).
  PublicKey(GroupParams params, const Element& y);

  [[nodiscard]] const GroupParams& params() const { return params_; }
  [[nodiscard]] const Element& y() const { return y_; }

  // E(m, r) with fresh random r ∈ Z_q^*. Precondition: m ∈ G_p (checked).
  [[nodiscard]] Ciphertext encrypt(const Element& m, mpz::Prng& prng) const;
  // E(m, r) with caller-chosen r (used by proofs that need to know r).
  [[nodiscard]] Ciphertext encrypt_with_nonce(const Element& m, const Bigint& r) const;

  // True iff both components are group elements — the well-formedness every
  // receiver checks before using a ciphertext. Free for decoded components.
  [[nodiscard]] bool well_formed(const Ciphertext& c) const;

  // -- §3 ciphertext algebra -------------------------------------------------
  // ElGamal Inverse: E(m)^{-1} ∈ E(m^{-1}).
  [[nodiscard]] Ciphertext inverse(const Ciphertext& c) const;
  // ElGamal Juxtaposition: m' · E(m, r) = E(m'·m, r).
  [[nodiscard]] Ciphertext juxtapose(const Element& m_prime, const Ciphertext& c) const;
  // ElGamal Multiplication: E(m1,r1) × E(m2,r2) ∈ E(m1·m2) provided
  // r1+r2 ∈ Z_q^*. Returns nullopt when the side condition fails (a == 1),
  // in which case the paper says to solicit fresh values.
  [[nodiscard]] std::optional<Ciphertext> multiply(const Ciphertext& c1,
                                                   const Ciphertext& c2) const;
  // Product of many ciphertexts (×_{i} E(m_i)); nullopt on degenerate result.
  [[nodiscard]] std::optional<Ciphertext> product(std::span<const Ciphertext> cs) const;

  friend bool operator==(const PublicKey&, const PublicKey&) = default;

 private:
  GroupParams params_;
  Element y_;
};

class KeyPair {
 public:
  // Fresh key: k uniform in [1, q), y = g^k.
  static KeyPair generate(const GroupParams& params, mpz::Prng& prng);
  // From an existing private key (e.g. reconstructed in tests).
  static KeyPair from_private(const GroupParams& params, Bigint k);

  [[nodiscard]] const PublicKey& public_key() const { return pub_; }
  [[nodiscard]] const Bigint& private_key() const { return k_; }

  // Decrypts c = (a, b) as b / a^k. Throws std::invalid_argument on
  // malformed ciphertexts.
  [[nodiscard]] Element decrypt(const Ciphertext& c) const;

 private:
  KeyPair(PublicKey pub, Bigint k) : pub_(std::move(pub)), k_(std::move(k)) {}

  PublicKey pub_;
  Bigint k_;
};

}  // namespace dblind::elgamal

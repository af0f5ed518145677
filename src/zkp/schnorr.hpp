// Schnorr signatures over the shared safe-prime group.
//
// Used for the per-server signing keys that make protocol messages
// self-verifying (§4.2.3), and as the base scheme for the threshold service
// signature (src/threshold/thresh_sign.*).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "group/params.hpp"
#include "mpz/bigint.hpp"
#include "mpz/random.hpp"

namespace dblind::zkp {

using group::Element;
using group::GroupParams;
using mpz::Bigint;

struct SchnorrSignature {
  Element r;  // commitment g^k
  Bigint s;  // response k + e*x mod q

  friend bool operator==(const SchnorrSignature&, const SchnorrSignature&) = default;
};

// The Fiat-Shamir challenge e = H(params, commit, point, msg) mod q used by
// sign/verify. Public so that the threshold signing scheme
// (threshold/thresh_sign.*) can produce signatures verifiable by the plain
// SchnorrVerifyKey.
[[nodiscard]] Bigint schnorr_challenge(const GroupParams& params, const Bigint& commit,
                                       const Bigint& point, std::span<const std::uint8_t> msg);

class SchnorrVerifyKey {
 public:
  // P = g^x; validates P ∈ G_p and keeps it decoded.
  SchnorrVerifyKey(GroupParams params, const Element& point);

  [[nodiscard]] const Element& point() const { return point_; }
  [[nodiscard]] const GroupParams& params() const { return params_; }

  [[nodiscard]] bool verify(std::span<const std::uint8_t> msg, const SchnorrSignature& sig) const;

  friend bool operator==(const SchnorrVerifyKey&, const SchnorrVerifyKey&) = default;

 private:
  GroupParams params_;
  Element point_;
};

class SchnorrSigningKey {
 public:
  static SchnorrSigningKey generate(const GroupParams& params, mpz::Prng& prng);
  static SchnorrSigningKey from_private(const GroupParams& params, Bigint x);

  [[nodiscard]] const SchnorrVerifyKey& verify_key() const { return vk_; }
  [[nodiscard]] const Bigint& secret() const { return x_; }

  [[nodiscard]] SchnorrSignature sign(std::span<const std::uint8_t> msg, mpz::Prng& prng) const;

 private:
  SchnorrSigningKey(SchnorrVerifyKey vk, Bigint x) : vk_(std::move(vk)), x_(std::move(x)) {}

  SchnorrVerifyKey vk_;
  Bigint x_;
};

// Batch verification of many Schnorr signatures: one combined equation
//   g^{Σ c_i s_i} == Π r_i^{c_i} · Π P_i^{c_i e_i}
// with per-signature coefficients c_i derived by hashing the whole batch
// (Fiat-Shamir style: the coefficients depend on every signature, so a
// forger cannot target them). Accepts iff (whp) every signature verifies —
// the right tool for all-or-nothing checks like the paper's reveal
// validation, at roughly 2-3x the speed of individual verification for
// moderate batch sizes.
struct BatchEntry {
  const SchnorrVerifyKey* key = nullptr;
  std::span<const std::uint8_t> msg;
  const SchnorrSignature* sig = nullptr;
};

[[nodiscard]] bool schnorr_batch_verify(const GroupParams& params,
                                        std::span<const BatchEntry> batch);

}  // namespace dblind::zkp

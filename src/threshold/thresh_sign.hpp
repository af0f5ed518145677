// Threshold Schnorr service signatures.
//
// The paper assumes a threshold signature protocol as a substrate ("invokes
// at service B threshold signature protocol...", Fig. 4 steps 5(c)/6(d))
// without fixing a scheme. We implement a quorum-based threshold Schnorr:
//
//   1. commit: each quorum member i samples a nonce k_i and publishes a hash
//      commitment to t_i = g^{k_i} (commit-then-reveal prevents a Byzantine
//      member from biasing the joint nonce),
//   2. reveal: members reveal t_i; everyone computes R = Π t_i^{λ_i},
//   3. respond: members send partial signatures s_i = k_i + e·x_i with
//      e = H(R, K_S, msg); partials are individually verifiable against the
//      member verification keys (g^{s_i} == t_i · h_i^e — identifiable
//      abort), and any full quorum of valid partials combines by Lagrange
//      into a standard Schnorr signature (R, s) under the service key.
//
// The combined signature verifies with the plain zkp::SchnorrVerifyKey, so
// relying parties need only the service public key — exactly the property
// the paper's architecture needs (§5, "Refresh is transparent outside the
// service").
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "hash/sha256.hpp"
#include "threshold/keygen.hpp"
#include "zkp/schnorr.hpp"

namespace dblind::threshold {

struct NonceCommitment {
  std::uint32_t index;
  hash::Digest digest;  // H(index, t_i)

  friend bool operator==(const NonceCommitment&, const NonceCommitment&) = default;
};

struct NonceReveal {
  std::uint32_t index;
  group::Element t;  // g^{k_i}

  friend bool operator==(const NonceReveal&, const NonceReveal&) = default;
};

struct PartialSignature {
  std::uint32_t index;
  Bigint s;  // k_i + e * x_i mod q

  friend bool operator==(const PartialSignature&, const PartialSignature&) = default;
};

// Per-member state for one signing session. Create one per (member, session);
// never reuse across messages — nonce reuse leaks the key share.
class SigningMember {
 public:
  // `share` is this member's key share x_i.
  SigningMember(const group::GroupParams& params, Share share, mpz::Prng& prng);

  [[nodiscard]] std::uint32_t index() const { return share_.index; }
  [[nodiscard]] const NonceCommitment& commitment() const { return commitment_; }
  [[nodiscard]] const NonceReveal& reveal() const { return reveal_; }

  // Computes this member's partial signature once the quorum's reveals are
  // known. `quorum` lists the indices participating (must include this
  // member); `service_y` is the service public key point. Verifies each
  // reveal against its commitment; returns nullopt (refuses to sign) on any
  // mismatch, preventing a nonce-biasing adversary from obtaining partials.
  [[nodiscard]] std::optional<PartialSignature> respond(
      std::span<const NonceCommitment> commitments, std::span<const NonceReveal> reveals,
      const group::Element& service_y, std::span<const std::uint8_t> msg);

 private:
  group::GroupParams params_;
  Share share_;
  Bigint nonce_;  // k_i
  NonceReveal reveal_;
  NonceCommitment commitment_;
  bool used_ = false;
};

// Hash commitment for a reveal (exposed for verification by coordinators).
[[nodiscard]] hash::Digest nonce_commitment_digest(const group::GroupParams& params,
                                                   const NonceReveal& reveal);

// R = Π t_i^{λ_i} over the quorum of reveals (distinct indices required).
[[nodiscard]] group::Element combine_nonce(const group::GroupParams& params,
                                           std::span<const NonceReveal> reveals);

// Checks one partial signature: g^{s_i} == t_i · h_i^{e·λ_i}... (see .cpp;
// the λ factor is applied at combination time, so the per-partial check is
// g^{s_i} == t_i · h_i^e with h_i from the Feldman commitments).
[[nodiscard]] bool verify_partial_signature(const group::GroupParams& params,
                                            const FeldmanCommitments& commitments,
                                            const NonceReveal& reveal,
                                            const PartialSignature& partial, const Bigint& e);

// Combines a full quorum of verified partials into (R, s). Throws
// std::invalid_argument on index mismatch between reveals and partials.
[[nodiscard]] zkp::SchnorrSignature combine_signature(const group::GroupParams& params,
                                                      std::span<const NonceReveal> reveals,
                                                      std::span<const PartialSignature> partials);

}  // namespace dblind::threshold

// Service key material: (n, f) threshold ElGamal keys.
//
// A distributed service's private key k_S never exists in one place; each
// server i holds a Shamir share x_i, and the Feldman commitments make every
// share publicly verifiable. Key material is produced either by a trusted
// dealer (simple, used by most tests/benches) or by a joint-Feldman DKG in
// which no party ever learns k_S.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "elgamal/elgamal.hpp"
#include "threshold/feldman.hpp"
#include "threshold/shamir.hpp"

namespace dblind::threshold {

struct ServiceConfig {
  std::size_t n;  // number of servers
  std::size_t f;  // tolerated compromises; key threshold is f+1

  [[nodiscard]] std::size_t quorum() const { return f + 1; }

  // The paper assumes 3f + 1 = n; protocols extend to 3f + 1 < n.
  [[nodiscard]] bool byzantine_safe() const { return 3 * f + 1 <= n; }
};

class ServiceKeyMaterial {
 public:
  // Trusted-dealer keygen: dealer samples k_S, shares it, then forgets it.
  static ServiceKeyMaterial dealer_keygen(const group::GroupParams& params,
                                          const ServiceConfig& cfg, mpz::Prng& prng);

  [[nodiscard]] const group::GroupParams& params() const { return params_; }
  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }
  // Service public key K_S (ElGamal).
  [[nodiscard]] const elgamal::PublicKey& public_key() const { return pub_; }
  // Feldman commitments for share verification.
  [[nodiscard]] const FeldmanCommitments& commitments() const { return commitments_; }
  // Private key share of server `index` (1-based).
  [[nodiscard]] const Share& share_of(std::uint32_t index) const;
  // Verification key h_i = g^{x_i} of server `index`.
  [[nodiscard]] group::Element verification_key_of(std::uint32_t index) const;

  ServiceKeyMaterial(group::GroupParams params, ServiceConfig cfg, elgamal::PublicKey pub,
                     FeldmanCommitments commitments, std::vector<Share> shares);

 private:
  group::GroupParams params_;
  ServiceConfig cfg_;
  elgamal::PublicKey pub_;
  FeldmanCommitments commitments_;
  std::vector<Share> shares_;  // shares_[i-1] belongs to server i
};

// --- Joint-Feldman distributed key generation -------------------------------
//
// Each of the n participants deals a random secret with Feldman VSS;
// participants verify the sub-shares they receive and complain about bad
// dealers, who are disqualified. The service key is the sum of the qualified
// dealers' secrets; no single party ever sees it. `cheaters` (for tests and
// fault-injection benches) lists dealers that send corrupted sub-shares.
struct DkgResult {
  ServiceKeyMaterial material;
  std::vector<std::uint32_t> disqualified;  // dealer indices caught cheating
};

[[nodiscard]] DkgResult run_joint_feldman_dkg(const group::GroupParams& params,
                                              const ServiceConfig& cfg, mpz::Prng& prng,
                                              const std::set<std::uint32_t>& cheaters = {});

}  // namespace dblind::threshold

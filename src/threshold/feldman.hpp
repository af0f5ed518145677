// Feldman verifiable secret sharing.
//
// The dealer publishes commitments C_j = g^{a_j} to the coefficients of the
// sharing polynomial; anyone can then check a share s_i against
// g^{s_i} == Π_j C_j^{i^j}. This is how servers verify key shares from the
// dealer / DKG and how threshold-decryption share proofs obtain the per-
// server verification keys h_i = g^{k_i}.
#pragma once

#include <span>
#include <vector>

#include "group/params.hpp"
#include "threshold/shamir.hpp"

namespace dblind::threshold {

struct FeldmanCommitments {
  // commitments_[j] = g^{a_j}; degree = size - 1.
  std::vector<group::Element> coefficients;

  friend bool operator==(const FeldmanCommitments&, const FeldmanCommitments&) = default;
};

// Commitments for an existing sharing polynomial.
[[nodiscard]] FeldmanCommitments feldman_commit(const group::GroupParams& params,
                                                std::span<const Bigint> poly_coeffs);

// g^{f(index)} computed from the public commitments — the verification key of
// the share at `index` (index 0 yields g^{secret}, the public key).
[[nodiscard]] group::Element feldman_eval(const group::GroupParams& params,
                                          const FeldmanCommitments& c, std::uint32_t index);

// Checks g^{share.value} == feldman_eval(share.index).
[[nodiscard]] bool feldman_verify(const group::GroupParams& params, const FeldmanCommitments& c,
                                  const Share& share);

}  // namespace dblind::threshold

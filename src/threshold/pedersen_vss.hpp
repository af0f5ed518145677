// Pedersen verifiable secret sharing (information-theoretically hiding VSS).
//
// Feldman VSS publishes g^{a_j}: verifiers learn the sharing polynomial "in
// the exponent" — in particular g^{secret}. That is fine for key shares
// (g^k IS the public key), but not for sharing arbitrary secrets. Pedersen
// VSS commits to each coefficient with a Pedersen commitment
// E_j = g^{a_j} · h^{b_j} instead: the published values reveal nothing about
// the secret, and each participant receives a share PAIR (s_i, t_i) =
// (f(i), f'(i)) checkable against g^{s_i} h^{t_i} == Π E_j^{i^j}.
//
// Included as the library's hardening extension for sharing application
// secrets (the paper's PSS-based alternative of §5 needs exactly this when
// the stored values must stay information-theoretically hidden).
#pragma once

#include <span>
#include <vector>

#include "threshold/shamir.hpp"
#include "zkp/pedersen.hpp"

namespace dblind::threshold {

struct PedersenShare {
  std::uint32_t index = 0;
  Bigint value;     // f(index)
  Bigint blinding;  // f'(index)

  friend bool operator==(const PedersenShare&, const PedersenShare&) = default;
};

struct PedersenDeal {
  std::vector<group::Element> commitments;  // E_j = g^{a_j} h^{b_j}
  std::vector<PedersenShare> shares;     // shares[i-1] for participant i
};

// Shares `secret` among 1..n with threshold f+1 under `pp`.
[[nodiscard]] PedersenDeal pedersen_share(const zkp::PedersenParams& pp, const Bigint& secret,
                                          std::size_t n, std::size_t f, mpz::Prng& prng);

// Verifies one share pair against the public commitments.
[[nodiscard]] bool pedersen_verify(const zkp::PedersenParams& pp,
                                   std::span<const group::Element> commitments,
                                   const PedersenShare& share);

// Reconstructs the secret from >= f+1 distinct share pairs (values only —
// blinding shares are needed only for verification).
[[nodiscard]] Bigint pedersen_reconstruct(const zkp::PedersenParams& pp,
                                          std::span<const PedersenShare> shares);

}  // namespace dblind::threshold

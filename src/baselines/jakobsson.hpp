// Baseline: Jakobsson's quorum-controlled asymmetric proxy re-encryption
// (PKC'99), as characterized in the paper's §5 and footnote 11.
//
// Idea: E_A(m, r) = (g^r, m·y_A^r). Encrypting the second component under
// K_B and then decrypting under k_A yields a ciphertext under K_B:
//
//   (g^r, m·y_A^r)  --partial-encrypt-->  m·y_A^r·y_B^{r'}
//                   --threshold-decrypt-->  m·y_B^{r'}
//   output: (g^{r'}, m·y_B^{r'}) = E_B(m, r').
//
// Each quorum server i of service A contributes, in ONE round, both a
// partial encryption (r'_i with g^{r'_i}, y_B^{r'_i} and a Chaum-Pedersen
// proof — the role the paper's "translation certificates" play) and a
// partial decryption (d_i = (g^r)^{x_i} with a share-correctness proof).
//
// Structural contrast with the paper's protocol (what the benches measure):
// every step runs on service A, and nothing can start before E_A(m) is
// known — no pre-computation, no offloading to B.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "threshold/thresh_decrypt.hpp"
#include "zkp/chaum_pedersen.hpp"

namespace dblind::baselines {

using mpz::Bigint;

struct JakobssonPartial {
  std::uint32_t index = 0;
  group::Element enc_g;  // g^{r'_i}
  group::Element enc_y;  // y_B^{r'_i}
  zkp::DlogEqProof enc_proof;        // DLOG(r'_i, g, g^{r'_i}, y_B, y_B^{r'_i})
  threshold::DecryptionShare dec;    // d_i = a^{x_i} with proof

  friend bool operator==(const JakobssonPartial&, const JakobssonPartial&) = default;
};

// Server i's one-round contribution for re-encrypting `c` (under A) to B.
[[nodiscard]] JakobssonPartial jakobsson_partial(const group::GroupParams& params,
                                                 const elgamal::Ciphertext& c,
                                                 const threshold::Share& a_share,
                                                 const group::Element& y_b,
                                                 std::string_view context, mpz::Prng& prng);

// Verifies both halves of a partial against A's Feldman commitments.
[[nodiscard]] bool jakobsson_verify_partial(const group::GroupParams& params,
                                            const threshold::FeldmanCommitments& a_commitments,
                                            const elgamal::Ciphertext& c, const group::Element& y_b,
                                            const JakobssonPartial& partial,
                                            std::string_view context);

// Combines f+1 verified partials into E_B(m). Throws std::invalid_argument
// on duplicates/empty.
[[nodiscard]] elgamal::Ciphertext jakobsson_combine(const group::GroupParams& params,
                                                    const elgamal::Ciphertext& c,
                                                    std::span<const JakobssonPartial> partials);

}  // namespace dblind::baselines

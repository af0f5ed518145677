// Baseline: PSS-based secret transfer (paper §5, "Proactive Secret-Sharing").
//
// Instead of storing E_A(m), service A stores m itself as Shamir shares.
// Transferring m to service B is a share *resharing*: each A server i deals
// its share s_i to B's servers with a fresh degree-f_B polynomial (Feldman-
// committed), and B server j combines the sub-shares it received from a
// quorum Q with Lagrange weights: s'_j = Σ_{i∈Q} λ_i · sub_{i,j}. The result
// is a fresh, independent (n_B, f_B) sharing of m.
//
// The resharing is threshold/reshare.hpp's: the same algorithm reconfigures
// a service key and, onto the same roster, proactively refreshes it. A PSS
// vault runs it once PER STORED SECRET, so its recurring refresh cost is
// proportional to the number of secrets stored — the drawback the paper
// cites as motivation for re-encryption (§5: "a service that stores a lot
// then incurs a significant recurring overhead").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "threshold/feldman.hpp"
#include "threshold/shamir.hpp"

namespace dblind::baselines {

struct PssTransferResult {
  std::vector<threshold::Share> b_shares;
  threshold::FeldmanCommitments b_commitments;
  std::uint64_t messages = 0;  // point-to-point sub-share messages
  std::uint64_t bytes = 0;     // approximate wire bytes
};

// Full transfer of a secret shared at A to an (n_b, f_b) service B: every
// dealer in `a_quorum` (distinct ranks) re-shares its share, B checks every
// deal against A's commitments and every sub-share against its deal, then
// combines. Returns B's new shares (b_shares[j-1] is rank j's) and their
// joint commitments. Throws std::runtime_error if a check fails.
[[nodiscard]] PssTransferResult pss_transfer(const group::GroupParams& params,
                                             std::span<const threshold::Share> a_quorum,
                                             const threshold::FeldmanCommitments& a_commitments,
                                             std::size_t n_b, std::size_t f_b, mpz::Prng& prng);

}  // namespace dblind::baselines

// Blinding-contribution bundles: the offline half of a contribution.
//
// Everything expensive a contributor does for one Fig. 4 instance — sampling
// ρ, computing the dual encryptions E_A(ρ)/E_B(ρ), and the commit-phase
// exponentiations of the three VDE subproofs — depends only on the service
// keys, never on the transfer being served. A ContributionBundle captures
// that offline work. ProtocolServer derives one bundle per instance from the
// instance's keyed prng stream, ahead of the init for instance {t, 1, 0}
// (Blinding::precompute) and on demand for any other. The online remainder
// (Fiat-Shamir challenge binding + response arithmetic,
// zkp::vde_prove_online) costs zero group exponentiations.
//
// Security invariants (enforced by lint_crypto.py's pool-reuse rule):
//   * All bundle randomness comes from an mpz::Prng (the instance's keyed
//     stream) — never ad-hoc entropy.
//   * Bundles are move-only and consumed at most once: ρ and the VDE
//     announcement randomness become public-equation material the moment a
//     proof is finished, so finishing twice with different challenges would
//     leak the witnesses.
//   * Bundles never enter ProtocolServer::snapshot(): ρ values are secrets,
//     and a restored server derives fresh ones under a new incarnation root.
#pragma once

#include "core/config.hpp"
#include "zkp/vde.hpp"

namespace dblind::core {

// One precomputed contribution: the blinding factor, both encryptions, their
// nonces (the VDE witnesses) and the offline half of the VDE proof.
// Move-only: a bundle holds single-use secret randomness.
struct ContributionBundle {
  group::Element rho;
  mpz::Bigint r1, r2;        // encryption nonces (VDE witnesses)
  elgamal::Ciphertext ea;    // E_A(rho, r1)
  elgamal::Ciphertext eb;    // E_B(rho, r2)
  zkp::VdeOffline vde;       // announcements for the proof over (ea, eb)

  ContributionBundle() = default;
  ContributionBundle(ContributionBundle&&) = default;
  ContributionBundle& operator=(ContributionBundle&&) = default;
  ContributionBundle(const ContributionBundle&) = delete;
  ContributionBundle& operator=(const ContributionBundle&) = delete;
};

// Computes one bundle, drawing rho, r1, r2 and then the three VDE
// announcement exponents from `prng` in that order.
[[nodiscard]] ContributionBundle make_contribution_bundle(const SystemConfig& cfg,
                                                          mpz::Prng& prng);

}  // namespace dblind::core

// Shamir re-sharing of a threshold key onto a new roster and/or threshold.
//
// This is the one way a key sharing changes. Reconfiguration installs a new
// server set and/or threshold (n', f') while keeping the service key — and
// therefore the service public key clients hold — unchanged. §5's proactive
// refresh is the special case (n', f') = (n, f) over the same roster: every
// share changes, so shares stolen before and after a refresh do not combine.
//
// Mechanism (Desmedt-Jajodia style re-sharing): each old server i in a
// quorum Q (|Q| = f+1) deals a fresh degree-f' polynomial Q_i with
// Q_i(0) = s_i (its OLD share), publishing Feldman commitments D_i. The
// commitment D_i[0] = g^{s_i} is publicly checkable against the old joint
// commitments, so a dealer cannot re-share a wrong value. New server j's
// share is the Lagrange combination at the OLD indices:
//
//     s'_j = Σ_{i ∈ Q} λ_i · Q_i(j)      (λ_i w.r.t. the index set Q at 0)
//
// which interpolates to Σ λ_i Q_i(0) = Σ λ_i s_i = s at j = 0 — the same
// key, now shared with threshold f'+1 among n' servers. The new joint
// commitments are C'_k = Π_i D_i[k]^{λ_i}, so C'_0 = g^s: the public key is
// untouched.
//
// SECRECY: re-sharing sub-shares are NOT harmless — any f'+1 sub-shares of
// one dealer reveal that dealer's old share, and a full deal set reveals the
// key. Sub-shares must therefore travel point-to-point to their recipient
// only (core/reconfig enforces this); the commitments alone are public.
#pragma once

#include <set>
#include <vector>

#include "threshold/feldman.hpp"
#include "threshold/keygen.hpp"
#include "threshold/shamir.hpp"

namespace dblind::threshold {

// One old server's re-sharing contribution. `commitments` is public;
// `subshares[j-1]` (the value Q_i(j) for new server j) is secret and must
// only ever reach new server j.
struct ReshareDeal {
  std::uint32_t dealer = 0;        // OLD rank of the dealing server
  FeldmanCommitments commitments;  // D_i; degree = new_f, D_i[0] = g^{s_i}
  std::vector<Share> subshares;    // subshares[j-1] = {j, Q_i(j)}, j = 1..new_n
};

// Deals a re-sharing of `old_share` onto a (new_n, new_f) roster.
[[nodiscard]] ReshareDeal reshare_deal(const group::GroupParams& params, const Share& old_share,
                                       std::size_t new_n, std::size_t new_f, mpz::Prng& prng);

// Public check of a deal's commitments: correct degree for new_f, and
// constant term equal to the dealer's old verification key
// g^{s_i} = feldman_eval(old_commitments, dealer). Anyone can run this; it
// never needs the sub-shares.
[[nodiscard]] bool reshare_verify_commitments(const group::GroupParams& params,
                                              const FeldmanCommitments& old_commitments,
                                              const ReshareDeal& deal, std::size_t new_f);

// Recipient-side check of one sub-share against the dealer's (already
// commitment-verified) deal: g^{sub} == feldman_eval(D_i, recipient).
[[nodiscard]] bool reshare_verify_subshare(const group::GroupParams& params,
                                           const FeldmanCommitments& deal_commitments,
                                           const Share& subshare);

// New share of new-roster server `recipient` from a dealer quorum's
// sub-shares. `dealers[k]` is the OLD rank that dealt `subs[k]` (each subs[k]
// must be that dealer's Q_i(recipient)); dealer ranks must be distinct.
[[nodiscard]] Share reshare_apply(const group::GroupParams& params,
                                  std::span<const std::uint32_t> dealers,
                                  std::span<const Bigint> subs, std::uint32_t recipient);

// New joint commitments from the quorum's deal commitments:
// C'_k = Π_i D_i[k]^{λ_i}. C'_0 equals the old C_0 (the public key base).
[[nodiscard]] FeldmanCommitments reshare_commitments(const group::GroupParams& params,
                                                     std::span<const std::uint32_t> dealers,
                                                     std::span<const FeldmanCommitments> deals);

// Convenience (tests / trusted setup): full re-share of `old_material` onto
// a (new_n, new_f) roster using dealer quorum `dealers` (defaults to old
// ranks 1..f+1). Verifies everything; throws on any failure. The returned
// material has the SAME public key as the input.
[[nodiscard]] ServiceKeyMaterial reshare_service(const ServiceKeyMaterial& old_material,
                                                 const ServiceConfig& new_cfg, mpz::Prng& prng,
                                                 const std::set<std::uint32_t>& dealers = {});

}  // namespace dblind::threshold

// Random-linear-combination batch verification for Chaum-Pedersen proofs.
//
// A Chaum-Pedersen proof passes iff two product equations hold; k proofs can
// therefore be checked together by raising each equation to a fresh random
// 128-bit exponent and multiplying everything into one identity test
//
//   Π_i base1_i^{c1_i·s_i} · x_i^{-c1_i·e_i} · t1_i^{-c1_i}
//       · base2_i^{c2_i·s_i} · z_i^{-c2_i·e_i} · t2_i^{-c2_i}  ==  1   (mod p)
//
// evaluated as a single multi-exponentiation (duplicate bases merged, the
// generator g routed through its fixed-base table). If any individual proof
// is invalid the combined identity fails except with probability
// 2^-kBatchRandomizerBits (2^-|q| for toy groups with |q| < 128), so a batch
// accept/reject agrees with per-proof verification up to that bound. The
// randomizers MUST be fresh and unpredictable to the prover — they come from
// mpz::Prng, never constants (enforced by tools/lint_crypto.py). A failed
// batch rejects its message as a whole.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>

#include "mpz/random.hpp"
#include "zkp/chaum_pedersen.hpp"

namespace dblind::zkp {

// Width of the per-equation random exponents; the batch soundness error is
// 2^-min(kBatchRandomizerBits, |q|).
inline constexpr std::size_t kBatchRandomizerBits = 128;

struct CpBatchItem {
  DlogStatement stmt;
  DlogEqProof proof;
  std::string context;
};

// Process-wide outcome counters for combined-identity batch checks (every
// cp_batch_verify call, including the vde and decryption-share wrappers).
// `rejected` counts combined checks that failed, each rejecting the message
// it checked. Relaxed atomics; exposed so obs::MetricsRegistry can attach
// them (attach_counter) without zkp depending on obs.
struct BatchVerifyCounts {
  std::atomic<std::uint64_t> combined{0};
  std::atomic<std::uint64_t> rejected{0};
};
BatchVerifyCounts& batch_verify_counts();

// True iff every item would pass dlog_verify (up to the soundness error
// above). Structural checks (subgroup membership, response range) are done
// per item before the combined identity, so malformed elements can never
// cancel each other out. An empty span verifies trivially.
[[nodiscard]] bool cp_batch_verify(const GroupParams& params, std::span<const CpBatchItem> items,
                                   mpz::Prng& prng);

}  // namespace dblind::zkp

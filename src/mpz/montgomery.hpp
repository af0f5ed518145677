// Montgomery-form modular multiplication and exponentiation.
//
// All the hot paths in the library (ElGamal, Chaum-Pedersen, VDE, threshold
// shares) reduce to modular exponentiation over a fixed safe-prime modulus,
// so a reusable per-modulus context pays for its setup almost immediately.
//
// Every exponentiation, one base or many, fixed or not, runs one pass over
// width-5 unsigned sliding windows (odd powers b, b^3, ..., b^31 per base).
// A base with a shift table enters as one 16-bit chunk per table row and so
// needs at most 15 squarings however long its exponent; any other base gets
// its odd powers built per call and enters whole. All terms share one
// squaring chain, sized by the longest digit string. The pass branches on
// exponent digits and reads table entries at digit-dependent indices: it
// makes no constant-time claim.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "mpz/bigint.hpp"

namespace dblind::mpz {

class ShiftTable;

class MontgomeryCtx {
 public:
  // One term of an exponentiation: base^exp, the base given by its shift
  // table when it has one (then `base` is not read).
  struct Term {
    const ShiftTable* table = nullptr;
    Bigint base;
    Bigint exp;
  };

  // Precondition: `modulus` is odd and > 1 (checked; throws
  // std::invalid_argument otherwise).
  explicit MontgomeryCtx(Bigint modulus);

  [[nodiscard]] const Bigint& modulus() const { return n_; }

  // (a * b) mod n, for 0 <= a, b < n.
  [[nodiscard]] Bigint mul(const Bigint& a, const Bigint& b) const;

  // (base ^ exp) mod n, for 0 <= base < n and exp >= 0: a one-term pass.
  [[nodiscard]] Bigint pow(const Bigint& base, const Bigint& exp) const;
  // The same over the base's shift table, for exp of at most
  // table.exp_bits() bits.
  [[nodiscard]] Bigint pow(const ShiftTable& table, const Bigint& exp) const;

  // Π bases[i]^{exps[i]} mod n: an n-term pass over whole bases.
  // Preconditions: equal-length spans, bases in [0, n), exps >= 0.
  [[nodiscard]] Bigint multi_pow(std::span<const Bigint> bases,
                                 std::span<const Bigint> exps) const;

  // Π term.base^{term.exp} mod n: the one pass (see the top of this file). A
  // zero exponent costs nothing, not even its base's odd powers.
  // Preconditions: every exp >= 0; a whole base in [0, n); a table built over
  // this context, and its exp at most table->exp_bits() bits. Throws
  // std::invalid_argument otherwise.
  [[nodiscard]] Bigint multi_pow(std::span<const Term> terms) const;

  // Montgomery multiplications performed through this context since
  // construction (squarings included). Monotone, thread-safe, and — unlike
  // wall-clock time — identical across machines for a deterministic run, so
  // the bench regression gate keys off it.
  [[nodiscard]] std::uint64_t mul_count() const {
    return mul_count_.load(std::memory_order_relaxed);
  }

  // The counter cell itself, for obs::ScopedCounterDelta phase attribution
  // and obs::MetricsRegistry::attach_counter. Read-only; stays valid for
  // the context's lifetime.
  [[nodiscard]] const std::atomic<std::uint64_t>& mul_count_cell() const {
    return mul_count_;
  }

 private:
  friend class ShiftTable;
  using Limbs = std::vector<std::uint64_t>;

  // Montgomery reduction of a (<= 2k-limb) product; result < n in Montgomery
  // domain semantics.
  [[nodiscard]] Limbs redc(Limbs t) const;
  [[nodiscard]] Limbs mont_mul(std::span<const std::uint64_t> a,
                               std::span<const std::uint64_t> b) const;
  [[nodiscard]] Limbs to_mont(const Bigint& a) const;
  [[nodiscard]] Bigint from_mont(const Limbs& a) const;
  // The odd powers a, a^3, ..., a^31 of a Montgomery-form `a`, k limbs each,
  // back to back: 1 squaring and 15 multiplications.
  [[nodiscard]] Limbs odd_powers(const Limbs& a) const;

  Bigint n_;
  std::size_t k_ = 0;        // limb count of n
  std::uint64_t n0inv_ = 0;  // -n^{-1} mod 2^64
  Bigint rr_;                // R^2 mod n, R = 2^{64k}
  Limbs one_mont_;           // R mod n
  // Instrumentation counter, deliberately NOT a dblind::Mutex-guarded field
  // (see the guarded-vs-atomic policy in docs/STATIC_ANALYSIS.md): it is a
  // monotone statistic with no invariant tying it to other state, every
  // access is a single relaxed atomic op, and callers that need a
  // consistent before/after pair (bench gates, ScopedCounterDelta) bracket
  // a quiescent region themselves. A mutex here would serialize every
  // mont-mul in the hot path for nothing.
  mutable std::atomic<std::uint64_t> mul_count_{0};
};

// A shift table of a base b: row j holds the odd powers of b^{2^{16j}}, for
// j = 0 .. ceil(exp_bits / 16) - 1. An exponent enters the pass as one 16-bit
// chunk per row, chunk j over row j, each recoded on its own (a window
// reads zeros above its chunk). So the pass over a table needs at most 15
// squarings and about three multiplications per chunk. Building one costs
// 16 multiplications per row and 16 squarings between rows: 2,033 for a
// 1023-bit q, whose 64 rows take 128 KB at 1024 bits.
class ShiftTable {
 public:
  static constexpr std::size_t kChunkBits = 16;

  // Precondition: 0 <= base < ctx.modulus() (checked; throws
  // std::invalid_argument). The context must outlive the table.
  ShiftTable(const MontgomeryCtx& ctx, const Bigint& base, std::size_t exp_bits);

  // The widest exponent a pass over this table takes.
  [[nodiscard]] std::size_t exp_bits() const { return rows_ * kChunkBits; }

 private:
  friend class MontgomeryCtx;
  const MontgomeryCtx* ctx_;
  std::size_t rows_;
  // Row j's odd powers, Montgomery form, as MontgomeryCtx::odd_powers
  // returns them; the rows back to back.
  std::vector<std::uint64_t> powers_;
};

}  // namespace dblind::mpz

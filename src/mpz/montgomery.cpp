#include "mpz/montgomery.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dblind::mpz {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// Inverse of odd x modulo 2^64 via Newton iteration (5 steps double precision
// each time: 4 -> 8 -> 16 -> 32 -> 64 bits).
u64 inv64(u64 x) {
  assert(x & 1);
  u64 inv = x;  // correct mod 2^3 for odd x (x*x ≡ 1 mod 8)
  for (int i = 0; i < 5; ++i) inv *= 2 - x * inv;
  return inv;
}

constexpr std::size_t kWindow = 5;
// b, b^3, ..., b^31: the entries a width-5 window digit reads.
constexpr std::size_t kOddPowers = std::size_t{1} << (kWindow - 1);

// Calls emit(pos, digit) for the width-5 unsigned sliding-window digits of
// bits [lo, lo + width) of `exp`, pos counted from lo: each digit odd in
// [1, 31], any two at least five positions apart. A window reads zeros at and
// above lo + width, so every digit stays inside its chunk.
template <typename Emit>
void recode(const Bigint& exp, std::size_t lo, std::size_t width, Emit&& emit) {
  for (std::size_t pos = 0; pos < width;) {
    if (!exp.bit(lo + pos)) {
      ++pos;
      continue;
    }
    unsigned digit = 0;
    for (std::size_t b = std::min(pos + kWindow, width); b-- > pos;)
      digit = (digit << 1) | (exp.bit(lo + b) ? 1U : 0U);
    emit(pos, digit);
    pos += kWindow;
  }
}

// One multiplication of the pass: at chain position `pos`, multiply by
// b^digit, read from b's odd powers `powers` (laid out as odd_powers returns
// them).
struct Mul {
  std::size_t pos;
  unsigned digit;
  const u64* powers;
};

}  // namespace

MontgomeryCtx::MontgomeryCtx(Bigint modulus) : n_(std::move(modulus)) {
  if (n_.is_negative() || n_.is_zero() || !n_.is_odd() || n_ == Bigint(1))
    throw std::invalid_argument("MontgomeryCtx: modulus must be odd and > 1");
  k_ = n_.limbs().size();
  n0inv_ = ~inv64(n_.limbs()[0]) + 1;  // -n^{-1} mod 2^64
  // R = 2^{64k}; rr_ = R^2 mod n computed with plain bigint arithmetic (setup
  // only, so the slow path is fine).
  Bigint r = Bigint(1).shl(64 * k_);
  rr_ = (r * r) % n_;
  Bigint one_m = r % n_;
  one_mont_.assign(k_, 0);
  auto lm = one_m.limbs();
  for (std::size_t i = 0; i < lm.size(); ++i) one_mont_[i] = lm[i];
}

MontgomeryCtx::Limbs MontgomeryCtx::redc(Limbs t) const {
  // CIOS-style reduction: t has 2k (+1 carry) limbs; after k rounds of adding
  // m*n and shifting, the result is < 2n, then a conditional subtract.
  t.resize(2 * k_ + 1, 0);
  const auto n = n_.limbs();
  for (std::size_t i = 0; i < k_; ++i) {
    u64 m = t[i] * n0inv_;
    u64 carry = 0;
    for (std::size_t j = 0; j < k_; ++j) {
      u128 cur = static_cast<u128>(m) * n[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    std::size_t idx = i + k_;
    while (carry != 0) {
      u128 cur = static_cast<u128>(t[idx]) + carry;
      t[idx] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
      ++idx;
    }
  }
  Limbs out(t.begin() + static_cast<std::ptrdiff_t>(k_),
            t.begin() + static_cast<std::ptrdiff_t>(2 * k_ + 1));
  // out may be >= n (it is < 2n); subtract n once if needed.
  // Compare out (k_+1 limbs) against n (k_ limbs).
  bool ge = out[k_] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = k_; i-- > 0;) {
      if (out[i] != n[i]) {
        ge = out[i] > n[i];
        break;
      }
    }
  }
  if (ge) {
    u64 borrow = 0;
    for (std::size_t i = 0; i < k_; ++i) {
      u64 ai = out[i], bi = n[i];
      u64 d = ai - bi - borrow;
      borrow = (ai < bi || (ai == bi && borrow)) ? 1 : 0;
      out[i] = d;
    }
    out[k_] -= borrow;
  }
  out.resize(k_);
  return out;
}

MontgomeryCtx::Limbs MontgomeryCtx::mont_mul(std::span<const u64> a,
                                             std::span<const u64> b) const {
  mul_count_.fetch_add(1, std::memory_order_relaxed);
  Limbs t(2 * k_ + 1, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0) continue;
    u64 carry = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      u128 cur = static_cast<u128>(a[i]) * b[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    std::size_t idx = i + b.size();
    while (carry != 0) {
      u128 cur = static_cast<u128>(t[idx]) + carry;
      t[idx] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
      ++idx;
    }
  }
  return redc(std::move(t));
}

MontgomeryCtx::Limbs MontgomeryCtx::to_mont(const Bigint& a) const {
  assert(!a.is_negative() && a < n_);
  Limbs al(k_, 0);
  auto src = a.limbs();
  for (std::size_t i = 0; i < src.size(); ++i) al[i] = src[i];
  Limbs rrl(k_, 0);
  auto rr = rr_.limbs();
  for (std::size_t i = 0; i < rr.size(); ++i) rrl[i] = rr[i];
  return mont_mul(al, rrl);
}

Bigint MontgomeryCtx::from_mont(const Limbs& a) const {
  Limbs t(a.begin(), a.end());
  t.resize(2 * k_ + 1, 0);
  Limbs r = redc(std::move(t));
  std::vector<std::uint8_t> be(r.size() * 8);
  for (std::size_t i = 0; i < r.size(); ++i) {
    for (std::size_t b = 0; b < 8; ++b)
      be[be.size() - 1 - (i * 8 + b)] = static_cast<std::uint8_t>(r[i] >> (8 * b));
  }
  return Bigint::from_bytes_be(be);
}

Bigint MontgomeryCtx::mul(const Bigint& a, const Bigint& b) const {
  return from_mont(mont_mul(to_mont(a), to_mont(b)));
}

MontgomeryCtx::Limbs MontgomeryCtx::odd_powers(const Limbs& a) const {
  Limbs out(kOddPowers * k_);
  std::copy(a.begin(), a.end(), out.begin());
  const Limbs sq = mont_mul(a, a);
  for (std::size_t i = 1; i < kOddPowers; ++i) {
    const Limbs next = mont_mul(std::span<const u64>(out).subspan((i - 1) * k_, k_), sq);
    std::copy(next.begin(), next.end(), out.begin() + static_cast<std::ptrdiff_t>(i * k_));
  }
  return out;
}

Bigint MontgomeryCtx::pow(const Bigint& base, const Bigint& exp) const {
  const Term term{nullptr, base, exp};
  return multi_pow(std::span<const Term>(&term, 1));
}

Bigint MontgomeryCtx::pow(const ShiftTable& table, const Bigint& exp) const {
  const Term term{&table, {}, exp};
  return multi_pow(std::span<const Term>(&term, 1));
}

Bigint MontgomeryCtx::multi_pow(std::span<const Bigint> bases,
                                std::span<const Bigint> exps) const {
  if (bases.size() != exps.size())
    throw std::invalid_argument("MontgomeryCtx::multi_pow: length mismatch");
  std::vector<Term> terms;
  terms.reserve(bases.size());
  for (std::size_t i = 0; i < bases.size(); ++i) terms.push_back({nullptr, bases[i], exps[i]});
  return multi_pow(terms);
}

// Every term is recoded into (position, digit, odd powers) multiplications
// first; the pass then walks one squaring chain from the highest position
// down, and starts it at the first multiplication rather than at 1.
Bigint MontgomeryCtx::multi_pow(std::span<const Term> terms) const {
  std::vector<Mul> muls;
  std::vector<Limbs> odd;  // the whole bases' odd powers
  odd.reserve(terms.size());
  for (const Term& term : terms) {
    if (term.exp.is_negative())
      throw std::invalid_argument("MontgomeryCtx::multi_pow: negative exponent");
    if (term.table != nullptr) {
      if (term.table->ctx_ != this)
        throw std::invalid_argument("MontgomeryCtx::multi_pow: table of another modulus");
      if (term.exp.bit_length() > term.table->exp_bits())
        throw std::invalid_argument("MontgomeryCtx::multi_pow: exponent wider than its table");
      for (std::size_t j = 0; j < term.table->rows_; ++j) {
        const u64* row = term.table->powers_.data() + j * kOddPowers * k_;
        recode(term.exp, j * ShiftTable::kChunkBits, ShiftTable::kChunkBits,
               [&](std::size_t pos, unsigned digit) { muls.push_back({pos, digit, row}); });
      }
    } else {
      if (term.base.is_negative() || term.base >= n_)
        throw std::invalid_argument("MontgomeryCtx::multi_pow: base out of range");
      const std::size_t first = muls.size();
      recode(term.exp, 0, term.exp.bit_length(),
             [&](std::size_t pos, unsigned digit) { muls.push_back({pos, digit, nullptr}); });
      if (muls.size() == first) continue;  // zero exponent: its odd powers are never read
      odd.push_back(odd_powers(to_mont(term.base)));
      for (std::size_t i = first; i < muls.size(); ++i) muls[i].powers = odd.back().data();
    }
  }
  std::sort(muls.begin(), muls.end(), [](const Mul& a, const Mul& b) { return a.pos > b.pos; });

  Limbs acc;  // empty until the first multiplication: 1
  const std::size_t top = muls.empty() ? 0 : muls.front().pos + 1;
  std::size_t next = 0;
  for (std::size_t i = top; i-- > 0;) {
    if (!acc.empty()) acc = mont_mul(acc, acc);
    for (; next < muls.size() && muls[next].pos == i; ++next) {
      const std::span<const u64> power(muls[next].powers + (muls[next].digit / 2) * k_, k_);
      acc = acc.empty() ? Limbs(power.begin(), power.end()) : mont_mul(acc, power);
    }
  }
  return from_mont(acc.empty() ? one_mont_ : acc);
}

ShiftTable::ShiftTable(const MontgomeryCtx& ctx, const Bigint& base, std::size_t exp_bits)
    : ctx_(&ctx), rows_(std::max<std::size_t>(1, (exp_bits + kChunkBits - 1) / kChunkBits)) {
  if (base.is_negative() || base >= ctx.modulus())
    throw std::invalid_argument("ShiftTable: base out of range");
  powers_.reserve(rows_ * kOddPowers * ctx.k_);
  MontgomeryCtx::Limbs row_base = ctx.to_mont(base);
  for (std::size_t j = 0; j < rows_; ++j) {
    const MontgomeryCtx::Limbs row = ctx.odd_powers(row_base);
    powers_.insert(powers_.end(), row.begin(), row.end());
    if (j + 1 == rows_) break;
    for (std::size_t b = 0; b < kChunkBits; ++b) row_base = ctx.mont_mul(row_base, row_base);
  }
}

}  // namespace dblind::mpz

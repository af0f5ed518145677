// Field arithmetic over GF(2^255 - 19) on 5 radix-2^51 limbs.
//
// This is the scalar (CPU) field layer under the Ristretto-style EC group
// backend (group/ristretto.hpp). Representation and reduction strategy follow
// the classic curve25519 "donna-c64" shape: limbs are unsigned 64-bit values
// nominally < 2^51, products go through unsigned __int128, and carries fold
// the 2^255 overflow back in via * 19. Operations are constant-length (no
// secret-dependent branches or table indices at this layer).
//
// Inlining: the add/sub/mul/square layer is defined here, in the header, and
// the multiply and square are forced inline, so the point formulas and the
// inverse-square-root chain compile to straight-line limb code without a call
// per field operation. That has to come from the header: the library is also
// compiled by plain -O2 builds without link-time optimisation. The chains
// (invert, (p-5)/8 power, sqrt ratio) and the byte conversions stay in
// fe25519.cpp, with the inline ops expanded inside them.
//
// Squaring: fe_sq takes the 15 distinct limb products of a*a (the 10 cross
// products doubled), against 25 for fe_mul(a, a); fe_sq_n repeats it.
//
// Limb bounds, per op (input -> output; "carried" means every limb < 2^52,
// which is what the carry chain, fe_mul, fe_sq, fe_add, fe_sub and fe_from_bytes
// return: limb 1 < 2^51 + 2^13, the others < 2^51):
//   fe_mul, fe_sq, fe_sq_n  inputs < 2^54 -> carried. The last step folds
//                            the top carry (< 5 * 2^(2*54-51)) times 19 into
//                            limb 0 in 64 bits, which caps the inputs there.
//   fe_add                   inputs < 2^62 -> carried (the sum and its
//                            carries fit 64 bits).
//   fe_sub, fe_neg           a < 2^62, b at most 2p limb-wise (any carried
//                            b) -> carried (2p is added before b is taken).
//   fe_mul_small             a carried, k < 2^32 -> carried.
// Every op carries; none skips a carry, so no caller has to track bounds.
//
// Instrumentation: every mul/square bumps a thread-local counter
// (fe_mul_count()), one per multiply or square, so the group backend can
// attribute deterministic op costs to protocol phases the same way
// MontgomeryCtx::mul_count() does for mod-p — one atomic flush per group op
// (or per deferred encode), not per field mul. The counter is an inline
// thread_local with constant initialisation, so the increment is one
// thread-pointer-relative add.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace dblind::mpz {

namespace fe_detail {
// The thread's field-mul count (constant-initialised: no TLS guard).
inline thread_local std::uint64_t mul_count = 0;
}  // namespace fe_detail

// Thread-local count of field multiplications (squares included) performed by
// this thread since thread start. The EC group backend snapshots it around
// each group operation and each deferred encode, and flushes the delta into
// the shared atomic counter of the backend that made the element.
inline std::uint64_t& fe_mul_count() { return fe_detail::mul_count; }

struct Fe25519 {
  // Limbs in radix 2^51: value = sum l[i] * 2^(51*i); see the bounds above.
  std::array<std::uint64_t, 5> l{0, 0, 0, 0, 0};

  static Fe25519 zero() { return Fe25519{}; }
  static Fe25519 one() { return Fe25519{{1, 0, 0, 0, 0}}; }
};

namespace fe_detail {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr u64 kMask = (u64{1} << 51) - 1;
// 2p in radix-2^51 limbs, added before subtraction so limbs stay nonnegative.
constexpr u64 kTwoP0 = 0xFFFFFFFFFFFDA;
constexpr u64 kTwoP1234 = 0xFFFFFFFFFFFFE;

// Carry chain folding the 2^255 overflow back via * 19; any limbs < 2^64 -
// 2^13 in, carried out.
inline void carry(Fe25519& r) {
  u64 c;
  c = r.l[0] >> 51; r.l[0] &= kMask; r.l[1] += c;
  c = r.l[1] >> 51; r.l[1] &= kMask; r.l[2] += c;
  c = r.l[2] >> 51; r.l[2] &= kMask; r.l[3] += c;
  c = r.l[3] >> 51; r.l[3] &= kMask; r.l[4] += c;
  c = r.l[4] >> 51; r.l[4] &= kMask; r.l[0] += c * 19;
  c = r.l[0] >> 51; r.l[0] &= kMask; r.l[1] += c;
}

// Carries the five 128-bit column sums of a product down to 51-bit limbs.
[[gnu::always_inline]] inline Fe25519 reduce_columns(u128 t0, u128 t1, u128 t2, u128 t3,
                                                     u128 t4) {
  Fe25519 r;
  u64 c;
  r.l[0] = (u64)t0 & kMask; c = (u64)(t0 >> 51);
  t1 += c;
  r.l[1] = (u64)t1 & kMask; c = (u64)(t1 >> 51);
  t2 += c;
  r.l[2] = (u64)t2 & kMask; c = (u64)(t2 >> 51);
  t3 += c;
  r.l[3] = (u64)t3 & kMask; c = (u64)(t3 >> 51);
  t4 += c;
  r.l[4] = (u64)t4 & kMask; c = (u64)(t4 >> 51);
  r.l[0] += c * 19;
  c = r.l[0] >> 51; r.l[0] &= kMask; r.l[1] += c;
  return r;
}

}  // namespace fe_detail

// r = a + b.
inline Fe25519 fe_add(const Fe25519& a, const Fe25519& b) {
  Fe25519 r;
  for (int i = 0; i < 5; ++i) r.l[i] = a.l[i] + b.l[i];
  fe_detail::carry(r);
  return r;
}

// r = a - b (adds 2p first so limbs stay nonnegative).
inline Fe25519 fe_sub(const Fe25519& a, const Fe25519& b) {
  using fe_detail::kTwoP0;
  using fe_detail::kTwoP1234;
  Fe25519 r;
  r.l[0] = a.l[0] + kTwoP0 - b.l[0];
  r.l[1] = a.l[1] + kTwoP1234 - b.l[1];
  r.l[2] = a.l[2] + kTwoP1234 - b.l[2];
  r.l[3] = a.l[3] + kTwoP1234 - b.l[3];
  r.l[4] = a.l[4] + kTwoP1234 - b.l[4];
  fe_detail::carry(r);
  return r;
}

// r = -a.
inline Fe25519 fe_neg(const Fe25519& a) { return fe_sub(Fe25519::zero(), a); }

// r = a * b: 25 limb products.
[[gnu::always_inline]] inline Fe25519 fe_mul(const Fe25519& a, const Fe25519& b) {
  using fe_detail::u128;
  using fe_detail::u64;
  ++fe_mul_count();
  const u64 a0 = a.l[0], a1 = a.l[1], a2 = a.l[2], a3 = a.l[3], a4 = a.l[4];
  const u64 b0 = b.l[0], b1 = b.l[1], b2 = b.l[2], b3 = b.l[3], b4 = b.l[4];
  const u64 b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19, b4_19 = b4 * 19;
  const u128 t0 = (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 + (u128)a3 * b2_19 +
                  (u128)a4 * b1_19;
  const u128 t1 = (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 + (u128)a3 * b3_19 +
                  (u128)a4 * b2_19;
  const u128 t2 = (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 + (u128)a3 * b4_19 +
                  (u128)a4 * b3_19;
  const u128 t3 = (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 + (u128)a3 * b0 +
                  (u128)a4 * b4_19;
  const u128 t4 = (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 + (u128)a3 * b1 +
                  (u128)a4 * b0;
  return fe_detail::reduce_columns(t0, t1, t2, t3, t4);
}

// r = a^2: 15 limb products, counted as one multiplication.
[[gnu::always_inline]] inline Fe25519 fe_sq(const Fe25519& a) {
  using fe_detail::u128;
  using fe_detail::u64;
  ++fe_mul_count();
  const u64 a0 = a.l[0], a1 = a.l[1], a2 = a.l[2], a3 = a.l[3], a4 = a.l[4];
  const u64 d0 = a0 * 2, d1 = a1 * 2;
  const u64 a3_19 = a3 * 19, a4_19 = a4 * 19;
  const u64 d2_19 = a2 * 38, d4_19 = a4 * 38;
  // Column k sums a_i a_j over i + j = k, plus 19 times i + j = k + 5.
  const u128 t0 = (u128)a0 * a0 + (u128)d4_19 * a1 + (u128)d2_19 * a3;
  const u128 t1 = (u128)d0 * a1 + (u128)d4_19 * a2 + (u128)a3_19 * a3;
  const u128 t2 = (u128)d0 * a2 + (u128)a1 * a1 + (u128)d4_19 * a3;
  const u128 t3 = (u128)d0 * a3 + (u128)d1 * a2 + (u128)a4_19 * a4;
  const u128 t4 = (u128)d0 * a4 + (u128)d1 * a3 + (u128)a2 * a2;
  return fe_detail::reduce_columns(t0, t1, t2, t3, t4);
}

// r = a^(2^n): n squarings.
inline Fe25519 fe_sq_n(Fe25519 a, int n) {
  for (int i = 0; i < n; ++i) a = fe_sq(a);
  return a;
}

// r = a * k for small k.
inline Fe25519 fe_mul_small(const Fe25519& a, std::uint64_t k) {
  using fe_detail::u128;
  using fe_detail::u64;
  Fe25519 r;
  u64 c = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 t = (u128)a.l[i] * k + c;
    r.l[i] = (u64)t & fe_detail::kMask;
    c = (u64)(t >> 51);
  }
  r.l[0] += c * 19;
  fe_detail::carry(r);
  return r;
}

// Constant-time conditional move: a = b when flag, untouched otherwise.
inline void fe_cmov(Fe25519& a, const Fe25519& b, bool flag) {
  const std::uint64_t mask = ~(static_cast<std::uint64_t>(flag) - 1);
  for (int i = 0; i < 5; ++i) a.l[i] ^= mask & (a.l[i] ^ b.l[i]);
}

// r = a^-1 (a^(p-2) by Fermat; a must be nonzero — returns 0 for 0).
Fe25519 fe_invert(const Fe25519& a);
// r = a^((p-5)/8) — the core of the combined sqrt/inverse-sqrt ladder.
Fe25519 fe_pow22523(const Fe25519& a);

// Canonical little-endian 32-byte encoding (value fully reduced < p, high bit
// of byte 31 clear).
void fe_to_bytes(std::span<std::uint8_t, 32> out, const Fe25519& a);
// Decode 32 little-endian bytes; the top bit of byte 31 is ignored (callers
// that require canonicality must compare a re-encoding). Value is reduced.
Fe25519 fe_from_bytes(std::span<const std::uint8_t, 32> in);

// True iff a == 0 (after full reduction).
bool fe_is_zero(const Fe25519& a);
// "Negative" per RFC 9496 / Ed25519 convention: the low bit of the canonical
// encoding.
bool fe_is_negative(const Fe25519& a);
// True iff a == b as field elements.
bool fe_eq(const Fe25519& a, const Fe25519& b);
// |a|: a if nonnegative else -a.
Fe25519 fe_abs(const Fe25519& a);

// (was_square, r) with r = sqrt(u/v) (or sqrt(i*u/v) when u/v is non-square),
// r nonnegative. The workhorse of Ristretto decode/encode (RFC 9496 §4.2).
struct SqrtRatioResult {
  bool was_square = false;
  Fe25519 root;
};
SqrtRatioResult fe_sqrt_ratio_m1(const Fe25519& u, const Fe25519& v);

}  // namespace dblind::mpz

// Field arithmetic over GF(2^255 - 19) on 5 radix-2^51 limbs.
//
// This is the scalar (CPU) field layer under the Ristretto-style EC group
// backend (group/ristretto.hpp). Representation and reduction strategy follow
// the classic curve25519 "donna-c64" shape: limbs are unsigned 64-bit values
// nominally < 2^51, products go through unsigned __int128, and carries fold
// the 2^255 overflow back in via * 19. Operations are constant-length (no
// secret-dependent branches or table indices at this layer).
//
// Instrumentation: every mul/square bumps a thread-local counter
// (fe_mul_count()) so the group backend can attribute deterministic op costs
// to protocol phases the same way MontgomeryCtx::mul_count() does for mod-p —
// one atomic flush per group op, not per field mul.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace dblind::mpz {

// Thread-local count of field multiplications (squares included) performed by
// this thread since thread start. The EC group backend snapshots it around
// each group operation and flushes the delta into its shared atomic counter.
std::uint64_t& fe_mul_count();

struct Fe25519 {
  // Limbs in radix 2^51: value = sum l[i] * 2^(51*i), each l[i] < 2^52 when
  // reduced (< 2^55 transiently between additions).
  std::array<std::uint64_t, 5> l{0, 0, 0, 0, 0};

  static Fe25519 zero() { return Fe25519{}; }
  static Fe25519 one() { return Fe25519{{1, 0, 0, 0, 0}}; }
};

// r = a + b (no reduction beyond limb headroom; inputs must be reduced).
Fe25519 fe_add(const Fe25519& a, const Fe25519& b);
// r = a - b (adds 2p first so limbs stay nonnegative).
Fe25519 fe_sub(const Fe25519& a, const Fe25519& b);
// r = -a.
Fe25519 fe_neg(const Fe25519& a);
// r = a * b, carried back below 2^52 per limb.
Fe25519 fe_mul(const Fe25519& a, const Fe25519& b);
// r = a^2.
Fe25519 fe_sq(const Fe25519& a);
// r = a * k for small k.
Fe25519 fe_mul_small(const Fe25519& a, std::uint64_t k);
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
// Constant-time conditional move: a = b when flag, untouched otherwise.
void fe_cmov(Fe25519& a, const Fe25519& b, bool flag);
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

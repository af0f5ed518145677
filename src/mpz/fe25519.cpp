#include "mpz/fe25519.hpp"

#include <cstring>

namespace dblind::mpz {

namespace {

using fe_detail::kMask;
using u64 = std::uint64_t;

u64 load64(const std::uint8_t* in) {
  u64 v = 0;
  std::memcpy(&v, in, 8);
  return v;  // little-endian hosts only; the repo already assumes LE codecs
}

void store64(std::uint8_t* out, u64 v) { std::memcpy(out, &v, 8); }

// Fully reduce into [0, p) (curve25519-donna-c64 contract step).
void fe_reduce_full(Fe25519& t) {
  fe_detail::carry(t);
  fe_detail::carry(t);
  // t in [0, 2^255). Add 19: values in [p, 2^255) wrap past 2^255 once we add
  // 2^255 - 19 below; values in [0, p) do not.
  t.l[0] += 19;
  fe_detail::carry(t);
  t.l[0] += (u64{1} << 51) - 19;
  t.l[1] += (u64{1} << 51) - 1;
  t.l[2] += (u64{1} << 51) - 1;
  t.l[3] += (u64{1} << 51) - 1;
  t.l[4] += (u64{1} << 51) - 1;
  // t is now offset by exactly 2^255; carry without folding and drop bit 255.
  u64 c;
  c = t.l[0] >> 51; t.l[0] &= kMask; t.l[1] += c;
  c = t.l[1] >> 51; t.l[1] &= kMask; t.l[2] += c;
  c = t.l[2] >> 51; t.l[2] &= kMask; t.l[3] += c;
  c = t.l[3] >> 51; t.l[3] &= kMask; t.l[4] += c;
  t.l[4] &= kMask;
}

// z^(2^250 - 1) — the shared prefix of the p-2 and (p-5)/8 addition chains.
// Also yields z^11 which the invert tail needs.
struct ChainResult {
  Fe25519 z2_250_0;
  Fe25519 z11;
};

ChainResult fe_chain_250(const Fe25519& z) {
  Fe25519 z2 = fe_sq(z);
  Fe25519 z8 = fe_sq_n(z2, 2);
  Fe25519 z9 = fe_mul(z8, z);
  Fe25519 z11 = fe_mul(z9, z2);
  Fe25519 z2_5_0 = fe_mul(fe_sq(z11), z9);                // 2^5 - 1
  Fe25519 z2_10_0 = fe_mul(fe_sq_n(z2_5_0, 5), z2_5_0);   // 2^10 - 1
  Fe25519 z2_20_0 = fe_mul(fe_sq_n(z2_10_0, 10), z2_10_0);
  Fe25519 z2_40_0 = fe_mul(fe_sq_n(z2_20_0, 20), z2_20_0);
  Fe25519 z2_50_0 = fe_mul(fe_sq_n(z2_40_0, 10), z2_10_0);
  Fe25519 z2_100_0 = fe_mul(fe_sq_n(z2_50_0, 50), z2_50_0);
  Fe25519 z2_200_0 = fe_mul(fe_sq_n(z2_100_0, 100), z2_100_0);
  Fe25519 z2_250_0 = fe_mul(fe_sq_n(z2_200_0, 50), z2_50_0);
  return {z2_250_0, z11};
}

}  // namespace

Fe25519 fe_invert(const Fe25519& a) {
  ChainResult c = fe_chain_250(a);
  // 2^255 - 2^5, then * z^11: exponent 2^255 - 21 = p - 2.
  return fe_mul(fe_sq_n(c.z2_250_0, 5), c.z11);
}

Fe25519 fe_pow22523(const Fe25519& a) {
  ChainResult c = fe_chain_250(a);
  // 2^252 - 4, then * z: exponent 2^252 - 3 = (p - 5) / 8.
  return fe_mul(fe_sq_n(c.z2_250_0, 2), a);
}

void fe_to_bytes(std::span<std::uint8_t, 32> out, const Fe25519& a) {
  Fe25519 t = a;
  fe_reduce_full(t);
  store64(out.data(), t.l[0] | (t.l[1] << 51));
  store64(out.data() + 8, (t.l[1] >> 13) | (t.l[2] << 38));
  store64(out.data() + 16, (t.l[2] >> 26) | (t.l[3] << 25));
  store64(out.data() + 24, (t.l[3] >> 39) | (t.l[4] << 12));
}

Fe25519 fe_from_bytes(std::span<const std::uint8_t, 32> in) {
  Fe25519 r;
  r.l[0] = load64(in.data()) & kMask;
  r.l[1] = (load64(in.data() + 6) >> 3) & kMask;
  r.l[2] = (load64(in.data() + 12) >> 6) & kMask;
  r.l[3] = (load64(in.data() + 19) >> 1) & kMask;
  r.l[4] = (load64(in.data() + 24) >> 12) & kMask;
  return r;
}

bool fe_is_zero(const Fe25519& a) {
  std::uint8_t b[32];
  fe_to_bytes(std::span<std::uint8_t, 32>(b), a);
  std::uint8_t acc = 0;
  for (std::uint8_t v : b) acc |= v;
  return acc == 0;
}

bool fe_is_negative(const Fe25519& a) {
  std::uint8_t b[32];
  fe_to_bytes(std::span<std::uint8_t, 32>(b), a);
  return (b[0] & 1) != 0;
}

bool fe_eq(const Fe25519& a, const Fe25519& b) { return fe_is_zero(fe_sub(a, b)); }

Fe25519 fe_abs(const Fe25519& a) {
  Fe25519 r = a;
  fe_cmov(r, fe_neg(a), fe_is_negative(a));
  return r;
}

namespace {

// sqrt(-1) = 2^((p-1)/4) mod p, precomputed limbs (verified against the
// field-fuzz test's Bigint oracle and fe_sqrt_ratio_m1(1, 1-trick) cases).
constexpr Fe25519 kSqrtM1{{0x61b274a0ea0b0, 0xd5a5fc8f189d, 0x7ef5e9cbd0c60,
                           0x78595a6804c9e, 0x2b8324804fc1d}};

}  // namespace

SqrtRatioResult fe_sqrt_ratio_m1(const Fe25519& u, const Fe25519& v) {
  // RFC 9496 §4.2 (p == 5 mod 8 case).
  Fe25519 v3 = fe_mul(fe_sq(v), v);
  Fe25519 v7 = fe_mul(fe_sq(v3), v);
  Fe25519 r = fe_mul(fe_mul(u, v3), fe_pow22523(fe_mul(u, v7)));
  Fe25519 check = fe_mul(v, fe_sq(r));

  Fe25519 neg_u = fe_neg(u);
  bool correct_sign = fe_eq(check, u);
  bool flipped_sign = fe_eq(check, neg_u);
  bool flipped_sign_i = fe_eq(check, fe_mul(neg_u, kSqrtM1));

  Fe25519 r_prime = fe_mul(r, kSqrtM1);
  fe_cmov(r, r_prime, flipped_sign || flipped_sign_i);

  SqrtRatioResult out;
  out.root = fe_abs(r);
  out.was_square = correct_sign || flipped_sign;
  return out;
}

}  // namespace dblind::mpz

#include "group/ristretto.hpp"

#include <algorithm>
#include <cstdlib>

#include "mpz/fe25519.hpp"

namespace dblind::group::ec {

namespace {

using mpz::fe_abs;
using mpz::fe_add;
using mpz::fe_cmov;
using mpz::fe_eq;
using mpz::fe_from_bytes;
using mpz::fe_invert;
using mpz::fe_is_negative;
using mpz::fe_is_zero;
using mpz::fe_mul;
using mpz::fe_neg;
using mpz::fe_sq;
using mpz::fe_sqrt_ratio_m1;
using mpz::fe_sub;
using mpz::fe_to_bytes;

// Curve and Ristretto constants (limbs generated from the exact values in
// RFC 7748 / RFC 9496 and cross-checked by tests/group/ristretto_test.cpp
// against the published generator-multiple vectors).
constexpr Fe25519 kD{{0x34dca135978a3, 0x1a8283b156ebd, 0x5e7a26001c029,
                      0x739c663a03cbb, 0x52036cee2b6ff}};
constexpr Fe25519 k2D{{0x69b9426b2f159, 0x35050762add7a, 0x3cf44c0038052,
                       0x6738cc7407977, 0x2406d9dc56dff}};
constexpr Fe25519 kSqrtM1{{0x61b274a0ea0b0, 0xd5a5fc8f189d, 0x7ef5e9cbd0c60,
                           0x78595a6804c9e, 0x2b8324804fc1d}};
constexpr Fe25519 kInvSqrtAMinusD{{0xfdaa805d40ea, 0x2eb482e57d339, 0x7610274bc58,
                                   0x6510b613dc8ff, 0x786c8905cfaff}};
// Generator: the Ed25519 base point (x even, y = 4/5).
constexpr Fe25519 kBaseX{{0x62d608f25d51a, 0x412a4b4f6592a, 0x75b7171a4b31d,
                          0x1ff60527118fe, 0x216936d3cd6e5}};
constexpr Fe25519 kBaseY{{0x6666666666658, 0x4cccccccccccc, 0x1999999999999,
                          0x3333333333333, 0x6666666666666}};
constexpr Fe25519 kBaseT{{0x68ab3a5b7dda3, 0xeea2a5eadbb, 0x2af8df483c27e,
                          0x332b375274732, 0x67875f0fd78b7}};

// Bit-window digit of a little-endian scalar: bits [w*i, w*i + w) (comb).
unsigned digit_of(const ScalarBytes& s, unsigned w, unsigned i) {
  const unsigned bit = w * i;
  const unsigned byte = bit / 8;
  if (byte >= 32) return 0;
  unsigned v = s[byte] >> (bit % 8);
  if (bit % 8 + w > 8 && byte + 1 < 32) v |= unsigned{s[byte + 1]} << (8 - bit % 8);
  return v & ((1U << w) - 1U);
}

// Completed point (ref10's p1p1): X = E*F, Y = G*H, Z = F*G, T = E*H. Both
// the doubling and the addition end here, and the last three or four
// products are taken only when the next step is known: a doubling never
// reads T, so a step that feeds a doubling skips it.
struct Completed {
  Fe25519 E, F, G, H;
};

Point finish(const Completed& c, bool with_t) {
  return Point{fe_mul(c.E, c.F), fe_mul(c.G, c.H), fe_mul(c.F, c.G),
               with_t ? fe_mul(c.E, c.H) : Fe25519::zero()};
}

Cached to_cached(const Point& p) {
  return Cached{fe_add(p.Y, p.X), fe_sub(p.Y, p.X), fe_add(p.Z, p.Z), fe_mul(p.T, k2D)};
}

Cached neg_cached(const Cached& c) { return Cached{c.YminusX, c.YplusX, c.Z2, fe_neg(c.T2d)}; }

// Unified extended-coordinate addition (add-2008-hwcd-3, a = -1). Complete
// for ed25519 (a square, d non-square), so identity and doubling inputs need
// no special cases.
Completed add_completed(const Point& a, const Cached& b) {
  Fe25519 A = fe_mul(fe_sub(a.Y, a.X), b.YminusX);
  Fe25519 B = fe_mul(fe_add(a.Y, a.X), b.YplusX);
  Fe25519 C = fe_mul(a.T, b.T2d);
  Fe25519 D = fe_mul(a.Z, b.Z2);
  return Completed{fe_sub(B, A), fe_sub(D, C), fe_add(D, C), fe_add(B, A)};
}

// dbl-2008-hwcd (a = -1) up to the completed point: 4S, reading X, Y, Z only.
Completed dbl_completed(const Point& a) {
  Fe25519 A = fe_sq(a.X);
  Fe25519 B = fe_sq(a.Y);
  Fe25519 ZZ = fe_sq(a.Z);
  Fe25519 E = fe_sub(fe_sub(fe_sq(fe_add(a.X, a.Y)), A), B);
  Fe25519 G = fe_sub(B, A);
  return Completed{E, fe_sub(G, fe_add(ZZ, ZZ)), G, fe_neg(fe_add(A, B))};
}

}  // namespace

const ScalarBytes& group_order_le() {
  static const ScalarBytes ell = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                                  0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                                  0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                                  0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10};
  return ell;
}

Point identity() {
  return Point{Fe25519::zero(), Fe25519::one(), Fe25519::one(), Fe25519::zero()};
}

const Point& base_point() {
  static const Point base{kBaseX, kBaseY, Fe25519::one(), kBaseT};
  return base;
}

Point add(const Point& a, const Point& b) { return finish(add_completed(a, to_cached(b)), true); }

Point dbl(const Point& a) { return finish(dbl_completed(a), true); }

Point neg(const Point& a) { return Point{fe_neg(a.X), a.Y, a.Z, fe_neg(a.T)}; }

bool eq(const Point& a, const Point& b) {
  // RFC 9496 §4.3.3: equal iff X1*Y2 == Y1*X2 or Y1*Y2 == X1*X2 (the second
  // disjunct catches the torsion-rotated representatives).
  return fe_eq(fe_mul(a.X, b.Y), fe_mul(a.Y, b.X)) ||
         fe_eq(fe_mul(a.Y, b.Y), fe_mul(a.X, b.X));
}

bool is_identity(const Point& a) { return eq(a, identity()); }

EncodedPoint encode(const Point& a) {
  // RFC 9496 §4.3.2.
  Fe25519 u1 = fe_mul(fe_add(a.Z, a.Y), fe_sub(a.Z, a.Y));
  Fe25519 u2 = fe_mul(a.X, a.Y);
  Fe25519 inv_sqrt =
      fe_sqrt_ratio_m1(Fe25519::one(), fe_mul(u1, fe_sq(u2))).root;
  Fe25519 den1 = fe_mul(inv_sqrt, u1);
  Fe25519 den2 = fe_mul(inv_sqrt, u2);
  Fe25519 z_inv = fe_mul(fe_mul(den1, den2), a.T);

  Fe25519 ix0 = fe_mul(a.X, kSqrtM1);
  Fe25519 iy0 = fe_mul(a.Y, kSqrtM1);
  Fe25519 enchanted = fe_mul(den1, kInvSqrtAMinusD);
  const bool rotate = fe_is_negative(fe_mul(a.T, z_inv));

  Fe25519 x = a.X, y = a.Y, den_inv = den2;
  fe_cmov(x, iy0, rotate);
  fe_cmov(y, ix0, rotate);
  fe_cmov(den_inv, enchanted, rotate);

  Fe25519 y_neg = fe_neg(y);
  fe_cmov(y, y_neg, fe_is_negative(fe_mul(x, z_inv)));

  Fe25519 s = fe_abs(fe_mul(den_inv, fe_sub(a.Z, y)));
  EncodedPoint out;
  fe_to_bytes(std::span<std::uint8_t, 32>(out), s);
  return out;
}

std::optional<Point> decode(std::span<const std::uint8_t, 32> in) {
  // RFC 9496 §4.3.1. Canonicality first: the bytes must round-trip (rejects
  // values >= p and a set high bit) and s must be non-negative.
  Fe25519 s = fe_from_bytes(in);
  EncodedPoint canon;
  fe_to_bytes(std::span<std::uint8_t, 32>(canon), s);
  for (std::size_t i = 0; i < 32; ++i)
    if (canon[i] != in[i]) return std::nullopt;
  if (fe_is_negative(s)) return std::nullopt;

  Fe25519 ss = fe_sq(s);
  Fe25519 u1 = fe_sub(Fe25519::one(), ss);
  Fe25519 u2 = fe_add(Fe25519::one(), ss);
  Fe25519 u2_sqr = fe_sq(u2);
  Fe25519 v = fe_sub(fe_neg(fe_mul(kD, fe_sq(u1))), u2_sqr);
  auto [was_square, inv_sqrt] =
      fe_sqrt_ratio_m1(Fe25519::one(), fe_mul(v, u2_sqr));
  if (!was_square) return std::nullopt;

  Fe25519 den_x = fe_mul(inv_sqrt, u2);
  Fe25519 den_y = fe_mul(fe_mul(inv_sqrt, den_x), v);
  Fe25519 x = fe_abs(fe_mul(fe_add(s, s), den_x));
  Fe25519 y = fe_mul(u1, den_y);
  Fe25519 t = fe_mul(x, y);
  if (fe_is_negative(t) || fe_is_zero(y)) return std::nullopt;
  return Point{x, y, Fe25519::one(), t};
}

Point scalar_mul(const Point& base, const ScalarBytes& scalar) {
  return multi_scalar_mul(std::span<const Point>(&base, 1),
                          std::span<const ScalarBytes>(&scalar, 1));
}

CombTable::CombTable(const Point& base, unsigned window_bits) : window_(window_bits) {
  const unsigned positions = (255 + window_ - 1) / window_ + 1;
  const std::size_t row_len = std::size_t{1} << window_;
  // The identity in cached form (1, 1, 2, 0). Digit 0 never reads it.
  const Fe25519 one = Fe25519::one();
  const Cached cached_identity{one, one, fe_add(one, one), Fe25519::zero()};
  table_.resize(positions);
  Point pos_base = base;
  for (unsigned i = 0; i < positions; ++i) {
    auto& row = table_[i];
    row.resize(row_len);
    row[0] = cached_identity;
    const Cached step = to_cached(pos_base);
    Point multiple = pos_base;
    row[1] = step;
    for (std::size_t j = 2; j < row_len; ++j) {
      multiple = finish(add_completed(multiple, step), true);
      row[j] = to_cached(multiple);
    }
    for (unsigned b = 0; b < window_; ++b) pos_base = dbl(pos_base);
  }
}

Point CombTable::mul(const ScalarBytes& scalar) const {
  Point acc = identity();
  for (unsigned i = 0; i < table_.size(); ++i) {
    const unsigned d = digit_of(scalar, window_, i);
    if (d != 0) acc = finish(add_completed(acc, table_[i][d]), true);
  }
  return acc;
}

namespace {

// Width-5 signed sliding window (wNAF): scalar = sum digits[i] * 2^i with
// every digit 0 or odd in [-15, 15], and any two nonzero digits at least five
// positions apart. A 256-bit input may carry one digit into position 256.
constexpr unsigned kWindow = 5;
constexpr std::size_t kDigits = 257;
using Digits = std::array<std::int8_t, kDigits>;

// Returns one past the highest nonzero digit (0 for a zero scalar).
std::size_t recode_wnaf(const ScalarBytes& s, Digits& digits) {
  std::array<std::uint64_t, 5> word{};  // word[4] stays 0: reads past bit 255
  for (std::size_t i = 0; i < 32; ++i) word[i / 8] |= std::uint64_t{s[i]} << (8 * (i % 8));
  constexpr unsigned kMask = (1U << kWindow) - 1;
  digits.fill(0);
  std::size_t top = 0;
  unsigned carry = 0;
  for (unsigned pos = 0; pos < kDigits;) {
    const unsigned w = pos / 64, bit = pos % 64;
    std::uint64_t bits = word[w] >> bit;
    if (bit + kWindow > 64 && w + 1 < word.size()) bits |= word[w + 1] << (64 - bit);
    const unsigned window = carry + static_cast<unsigned>(bits & kMask);
    if ((window & 1) == 0) {
      ++pos;
      continue;
    }
    // window is odd in [1, 31]: keep it below 16, else take window - 32 and
    // carry 1 into the next window.
    carry = window >> (kWindow - 1);
    const int digit = static_cast<int>(window) - static_cast<int>(carry << kWindow);
    digits[pos] = static_cast<std::int8_t>(digit);
    top = pos + 1;
    pos += kWindow;
  }
  return top;
}

}  // namespace

// Straus: every base gets a table of its odd multiples P, 3P, ..., 15P, and
// all bases share one doubling chain that starts at the highest nonzero digit
// across all scalars, so the chain follows the longest scalar. Negative
// digits add the negated table entry. Each step's completed point is
// finished only once the next step is known, so T is computed only ahead of
// an addition and for the result.
Point multi_scalar_mul(std::span<const Point> bases, std::span<const ScalarBytes> scalars) {
  constexpr std::size_t kTable = std::size_t{1} << (kWindow - 2);  // odd multiples 1..15
  const std::size_t n = bases.size();
  std::vector<Digits> digits(n);
  std::vector<std::array<Cached, kTable>> tables(n);
  std::size_t top = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t len = recode_wnaf(scalars[k], digits[k]);
    if (len == 0) continue;  // zero scalar: its table is never read
    top = std::max(top, len);
    const Cached twice = to_cached(dbl(bases[k]));
    Point odd = bases[k];
    tables[k][0] = to_cached(odd);
    for (std::size_t j = 1; j < kTable; ++j) {
      odd = finish(add_completed(odd, twice), true);
      tables[k][j] = to_cached(odd);
    }
  }

  Point acc = identity();
  Completed step{};
  bool pending = false;  // `step` holds acc's next value, not yet finished
  auto settle = [&](bool with_t) {
    if (pending) acc = finish(step, with_t);
    pending = false;
  };
  for (std::size_t i = top; i-- > 0;) {
    if (i + 1 != top) {
      settle(false);
      step = dbl_completed(acc);
      pending = true;
    }
    for (std::size_t k = 0; k < n; ++k) {
      const int d = digits[k][i];
      if (d == 0) continue;
      settle(true);
      const Cached& entry = tables[k][static_cast<std::size_t>(std::abs(d)) / 2];
      step = add_completed(acc, d > 0 ? entry : neg_cached(entry));
      pending = true;
    }
  }
  settle(true);
  return acc;
}

}  // namespace dblind::group::ec

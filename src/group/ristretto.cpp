#include "group/ristretto.hpp"

#include <algorithm>
#include <cstdlib>
#include <vector>

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

namespace {

constexpr unsigned kWindow = 5;
using Words = std::array<std::uint64_t, 4>;

Words words_of(const ScalarBytes& s) {
  Words w{};
  for (std::size_t i = 0; i < 32; ++i) w[i / 8] |= std::uint64_t{s[i]} << (8 * (i % 8));
  return w;
}

// a < b, as 256-bit little-endian integers.
bool less(const Words& a, const Words& b) {
  for (std::size_t i = a.size(); i-- > 0;)
    if (a[i] != b[i]) return a[i] < b[i];
  return false;
}

// a - b for a >= b.
Words minus(const Words& a, const Words& b) {
  Words out{};
  unsigned borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::uint64_t d = a[i] - b[i];
    out[i] = d - borrow;
    borrow = (a[i] < b[i] || d < borrow) ? 1 : 0;
  }
  return out;
}

// Appends the width-5 signed sliding-window digits of carry + (the low `bits`
// bits of `words`): each digit odd in [-15, 15], any two at least five
// positions apart, all below position `bits`. Returns the carry left at
// position `bits` (0 or 1): the windows read zeros above the top word, so a
// carry only forms where a window still covers a set bit, at most at `bits`.
template <typename Emit>
unsigned recode(std::span<const std::uint64_t> words, unsigned bits, unsigned carry, Emit&& emit) {
  constexpr unsigned kMask = (1U << kWindow) - 1;
  for (unsigned pos = 0; pos < bits;) {
    const unsigned w = pos / 64, bit = pos % 64;
    std::uint64_t window_bits = words[w] >> bit;
    if (bit + kWindow > 64 && w + 1 < words.size()) window_bits |= words[w + 1] << (64 - bit);
    const unsigned window = carry + static_cast<unsigned>(window_bits & kMask);
    if ((window & 1) == 0) {
      ++pos;
      continue;
    }
    // window is odd in [1, 31]: keep it below 16, else take window - 32 and
    // carry 1 into the next window.
    carry = window >> (kWindow - 1);
    emit(pos, static_cast<int>(window) - static_cast<int>(carry << kWindow));
    pos += kWindow;
  }
  return carry;
}

OddMultiples odd_multiples(const Point& p) {
  OddMultiples out;
  const Cached twice = to_cached(dbl(p));
  Point odd = p;
  out[0] = to_cached(odd);
  for (std::size_t j = 1; j < out.size(); ++j) {
    odd = finish(add_completed(odd, twice), true);
    out[j] = to_cached(odd);
  }
  return out;
}

// One nonzero digit of the pass: at chain position `pos`, add digit times
// the base of `table`.
struct Add {
  unsigned pos;
  int digit;
  const OddMultiples* table;
};

}  // namespace

ShiftTable::ShiftTable(const Point& base) {
  Point row_base = base;
  for (unsigned j = 0; j < kRows; ++j) {
    rows_[j] = odd_multiples(row_base);
    if (j + 1 == kRows) break;
    // 2^16 times the row's base; only the last doubling's T is read.
    for (unsigned b = 0; b < kChunkBits; ++b)
      row_base = finish(dbl_completed(row_base), b + 1 == kChunkBits);
  }
}

// Every term is recoded into (position, digit, table) additions first; the
// pass then walks one doubling chain from the highest position down. Each
// step's completed point is finished only once the next step is known, so T
// is computed only ahead of an addition and for the result.
Point multi_scalar_mul(std::span<const Term> terms) {
  static const Words order = words_of(group_order_le());
  static const Words half_order = [] {  // floor(ell / 2): ell is odd
    Words h = order;
    for (std::size_t i = 0; i < h.size(); ++i)
      h[i] = (h[i] >> 1) | (i + 1 < h.size() ? h[i + 1] << 63 : 0);
    return h;
  }();

  std::vector<Add> adds;
  adds.reserve(64 * terms.size());   // a 16-bit chunk has at most 4 digits
  std::vector<OddMultiples> tables;  // the point terms' odd multiples
  tables.reserve(terms.size());
  for (const Term& term : terms) {
    Words w = words_of(term.scalar);
    // ell/2 < e < ell enters as ell - e with its digits negated.
    const int sign = less(half_order, w) && less(w, order) ? -1 : 1;
    if (sign < 0) w = minus(order, w);
    if (term.table != nullptr) {
      unsigned carry = 0;
      for (unsigned j = 0; j < ShiftTable::kRows; ++j) {
        const unsigned shift = j * ShiftTable::kChunkBits;
        const std::uint64_t chunk = (w[shift / 64] >> (shift % 64)) & 0xffff;
        const OddMultiples* row = &term.table->row(j);
        carry = recode(std::span<const std::uint64_t>(&chunk, 1), ShiftTable::kChunkBits, carry,
                       [&](unsigned pos, int d) { adds.push_back({pos, sign * d, row}); });
      }
      // A carry out of the top chunk (inputs of 2^255 - 2^240 and up) is
      // 2^16 times row 15's base.
      if (carry != 0)
        adds.push_back({ShiftTable::kChunkBits, sign, &term.table->row(ShiftTable::kRows - 1)});
    } else {
      const std::size_t first = adds.size();
      const unsigned carry = recode(w, 256, 0, [&](unsigned pos, int d) {
        adds.push_back({pos, sign * d, nullptr});
      });
      if (carry != 0) adds.push_back({256, sign, nullptr});
      if (adds.size() == first) continue;  // zero scalar: its odd multiples are never read
      tables.push_back(odd_multiples(term.base));
      for (std::size_t i = first; i < adds.size(); ++i) adds[i].table = &tables.back();
    }
  }
  std::sort(adds.begin(), adds.end(), [](const Add& a, const Add& b) { return a.pos > b.pos; });

  Point acc = identity();
  Completed step{};
  bool pending = false;  // `step` holds acc's next value, not yet finished
  auto settle = [&](bool with_t) {
    if (pending) acc = finish(step, with_t);
    pending = false;
  };
  const std::size_t top = adds.empty() ? 0 : adds.front().pos + 1;
  std::size_t next = 0;
  for (std::size_t i = top; i-- > 0;) {
    if (i + 1 != top) {
      settle(false);
      step = dbl_completed(acc);
      pending = true;
    }
    for (; next < adds.size() && adds[next].pos == i; ++next) {
      settle(true);
      const Add& a = adds[next];
      const Cached& entry = (*a.table)[static_cast<std::size_t>(std::abs(a.digit)) / 2];
      step = add_completed(acc, a.digit > 0 ? entry : neg_cached(entry));
      pending = true;
    }
  }
  settle(true);
  return acc;
}

Point multi_scalar_mul(std::span<const Point> bases, std::span<const ScalarBytes> scalars) {
  std::vector<Term> terms(bases.size());
  for (std::size_t i = 0; i < bases.size(); ++i) {
    terms[i].base = bases[i];
    terms[i].scalar = scalars[i];
  }
  return multi_scalar_mul(terms);
}

Point scalar_mul(const Point& base, const ScalarBytes& scalar) {
  const Term term{nullptr, base, scalar};
  return multi_scalar_mul(std::span<const Term>(&term, 1));
}

}  // namespace dblind::group::ec

// ristretto255: a prime-order group over Curve25519 (RFC 9496).
//
// Points live on the twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2 over
// GF(2^255-19) in extended homogeneous coordinates (X:Y:Z:T) with x = X/Z,
// y = Y/Z, x*y = T/Z. The Ristretto encoding quotients out the {±1, ±i}
// torsion so the abstraction exposed here is a clean prime-order group of
// order ell = 2^252 + 27742317777372353535851937790883648493 with canonical
// 32-byte encodings: every group element has exactly one valid encoding, and
// decode rejects everything else (non-canonical field element, negative s,
// off-curve / wrong-coset values). That canonicality is what lets a
// group::Element carry its encoding for equality, map keys and transcripts
// beside its decoded Point, with the two always in agreement.
//
// Every variable-base multiplication, one base or many, runs one Straus
// kernel over width-5 signed sliding windows (odd multiples P..15P per base,
// one shared doubling chain sized by the longest scalar); fixed bases get
// comb tables mirroring mpz::FixedBasePow. The kernels branch on scalar
// digits and make no constant-time claim.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mpz/fe25519.hpp"

namespace dblind::group::ec {

using mpz::Fe25519;

// 32-byte little-endian scalar. The group backend reduces it below the group
// order; the kernels accept any 256-bit value.
using ScalarBytes = std::array<std::uint8_t, 32>;
// Canonical 32-byte ristretto255 element encoding.
using EncodedPoint = std::array<std::uint8_t, 32>;

struct Point {
  Fe25519 X, Y, Z, T;
};

// A point in cached form (Y+X, Y-X, 2Z, 2dT), the addend of an addition:
// adding it costs 8M (4M before the finishing products), against 9M for a
// Point, and negating it costs none. The same 160 bytes as a Point.
struct Cached {
  Fe25519 YplusX, YminusX, Z2, T2d;
};

// Group order ell as little-endian bytes (= 2^252 + 27742...493).
const ScalarBytes& group_order_le();

[[nodiscard]] Point identity();
[[nodiscard]] const Point& base_point();

// Unified addition (9M) and doubling (4S+4M; 4S+3M inside the Straus chain
// when the next step is another doubling).
[[nodiscard]] Point add(const Point& a, const Point& b);
[[nodiscard]] Point dbl(const Point& a);
[[nodiscard]] Point neg(const Point& a);
// Ristretto equality (coset-aware; NOT coordinate equality).
[[nodiscard]] bool eq(const Point& a, const Point& b);
[[nodiscard]] bool is_identity(const Point& a);

// Canonical encoding; decode(encode(P)) == P and encode(decode(s)) == s.
[[nodiscard]] EncodedPoint encode(const Point& a);
// Rejects non-canonical / invalid encodings with nullopt.
[[nodiscard]] std::optional<Point> decode(std::span<const std::uint8_t, 32> in);

// scalar * P: the one-base call of multi_scalar_mul.
[[nodiscard]] Point scalar_mul(const Point& base, const ScalarBytes& scalar);

// Fixed-base comb: table[i][j] = (j << (w*i)) * base, held in cached form,
// so a 253-bit scalar costs one 8M addition per nonzero digit (at most
// ceil(253/w)) and zero doublings (mirrors mpz::FixedBasePow for the mod-p
// backend).
class CombTable {
 public:
  CombTable(const Point& base, unsigned window_bits);
  [[nodiscard]] Point mul(const ScalarBytes& scalar) const;

 private:
  unsigned window_;
  std::vector<std::vector<Cached>> table_;  // [digit position][digit value]
};

// sum scalars[i] * bases[i] (bases and scalars have equal length). The chain
// starts at the highest nonzero digit across all scalars, so short scalars
// get short chains, as in MontgomeryCtx::pow/multi_pow.
[[nodiscard]] Point multi_scalar_mul(std::span<const Point> bases,
                                     std::span<const ScalarBytes> scalars);

}  // namespace dblind::group::ec

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
// Every multiplication, one base or many, fixed or not, runs one signed
// Straus pass over width-5 signed sliding windows (odd multiples P..15P per
// base). A scalar above ell/2 enters negated (ell - e, with every digit
// negated), so a Lagrange coefficient of -1 costs one addition. A base with a
// shift table enters as sixteen 16-bit chunks, one per table row, and so
// needs at most 16 doublings instead of 253; any other base gets its odd multiples
// built per call and enters whole. All terms share one doubling chain, sized
// by the longest digit string. The pass branches on scalar digits and reads
// table entries at digit-dependent indices: it makes no constant-time claim.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

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

// The odd multiples B, 3B, ..., 15B of one base in cached form: the entries
// a width-5 signed window digit reads.
using OddMultiples = std::array<Cached, 8>;

// A shift table of a base P: row j holds the odd multiples of 2^{16j}·P for
// j = 0..15, 20 KB in all. A scalar enters the Straus pass as sixteen 16-bit
// chunks, chunk j over row j, each recoded on its own: its carry out of bit
// 16 goes into the next chunk, and the top chunk's into position 16 of row
// 15 (only for inputs of 2^255 - 2^240 and up; a reduced scalar is below
// 2^253). So the pass over a table needs at most 16
// doublings and about three additions per chunk. Building one costs 2,863
// field muls: 16 rows of odd multiples and 240 doublings.
class ShiftTable {
 public:
  static constexpr unsigned kChunkBits = 16;
  static constexpr unsigned kRows = 256 / kChunkBits;

  explicit ShiftTable(const Point& base);
  [[nodiscard]] const OddMultiples& row(unsigned j) const { return rows_[j]; }

 private:
  std::array<OddMultiples, kRows> rows_;
};

// One term of a multiplication: scalar · base, the base given by its shift
// table when it has one (then `base` is not read), else as a point.
struct Term {
  const ShiftTable* table = nullptr;
  Point base{};
  ScalarBytes scalar{};
};

// Σ scalar·base over `terms`: the one signed Straus pass (see the top of
// this file). A zero scalar costs nothing, not even its base's odd multiples.
[[nodiscard]] Point multi_scalar_mul(std::span<const Term> terms);
// The same over bases given as points (bases and scalars have equal length).
[[nodiscard]] Point multi_scalar_mul(std::span<const Point> bases,
                                     std::span<const ScalarBytes> scalars);
// scalar * P: a one-term pass.
[[nodiscard]] Point scalar_mul(const Point& base, const ScalarBytes& scalar);

}  // namespace dblind::group::ec

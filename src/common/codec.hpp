// Canonical binary encoding: the byte-level primitives.
//
// Self-verifying messages (§4.2.3) are signed over, hashed over, and nested
// inside each other, so every message needs one canonical byte form. The
// format is deliberately simple: fixed-width little-endian integers and
// length-prefixed byte strings; Bigints carry a sign byte plus the minimal
// big-endian magnitude (zero is the one byte 00, never negative). Reader
// performs strict bounds checking, rejects any other magnitude form, and
// decode functions reject trailing garbage, so a byte string has at most one
// valid parse and a value exactly one byte form.
// A Reader may carry the group its elements belong to; group::read_element
// (group/params.hpp) then decodes and validates each element as it is read.
// group/codec.hpp composes these primitives into whole wire types.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "mpz/bigint.hpp"

namespace dblind::group {
class GroupParams;
}  // namespace dblind::group

namespace dblind::common {

class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void bytes(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    out_.insert(out_.end(), b.begin(), b.end());
  }
  void str(std::string_view s) {
    bytes(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(s.data()),
                                        s.size()));
  }
  void digest(const std::array<std::uint8_t, 32>& d) { out_.insert(out_.end(), d.begin(), d.end()); }
  void bigint(const mpz::Bigint& v) {
    u8(v.is_negative() ? 1 : 0);
    bytes(v.to_bytes_be());
  }

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }
  [[nodiscard]] const std::vector<std::uint8_t>& view() const { return out_; }

 private:
  std::vector<std::uint8_t> out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data,
                  const group::GroupParams* group = nullptr)
      : data_(data), group_(group) {}

  // The group element reads validate against; null for a group-less parse,
  // whose elements stay bare.
  [[nodiscard]] const group::GroupParams* group() const { return group_; }

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::vector<std::uint8_t> bytes() {
    std::uint32_t len = u32();
    need(len);
    std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return out;
  }
  std::string str() {
    auto b = bytes();
    return {b.begin(), b.end()};
  }
  std::array<std::uint8_t, 32> digest() {
    std::array<std::uint8_t, 32> d{};
    const std::uint8_t* p = consume(d.size());
    std::copy_n(p, d.size(), d.begin());
    return d;
  }
  mpz::Bigint bigint() {
    std::uint8_t neg = u8();
    if (neg > 1) throw CodecError("bigint: bad sign byte");
    auto mag = bytes();
    if (mag.empty() || (mag.size() > 1 && mag[0] == 0))
      throw CodecError("bigint: magnitude not minimal");
    if (neg && mag[0] == 0) throw CodecError("bigint: negative zero");
    mpz::Bigint v = mpz::Bigint::from_bytes_be(mag);
    return neg ? v.negated() : v;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  // Reads an element count and validates it against the bytes actually left
  // (each element needs at least `min_elem_bytes`, the size of its shortest
  // accepted encoding). Prevents adversarial counts from driving huge
  // allocations before any data is parsed.
  std::uint32_t count(std::size_t min_elem_bytes) {
    std::uint32_t n = u32();
    if (min_elem_bytes != 0 && n > remaining() / min_elem_bytes)
      throw CodecError("count exceeds available data");
    return n;
  }

  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  // Decoders call this after parsing a top-level object.
  void expect_done() const {
    if (!done()) throw CodecError("trailing bytes after message");
  }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > data_.size()) throw CodecError("unexpected end of input");
  }

  // Bounds-checks and advances in one step; returns the start of the
  // consumed region. Keeping check and pointer formation together lets the
  // compiler see reads can't precede a successful check.
  const std::uint8_t* consume(std::size_t n) {
    need(n);
    const std::uint8_t* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  const group::GroupParams* group_ = nullptr;
};

}  // namespace dblind::common

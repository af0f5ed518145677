// Group element: canonical encoding plus, once known, the backend-native form.
//
// Every element has the canonical encoding the protocol has always used
// (mod-p: the residue; ec255: the RFC 9496 32-byte string read as a
// little-endian integer), so equality, ordering, map keys, transcripts and
// Writer output depend on the encoding alone. A *decoded* element also
// carries what the backend needs to compute with it without re-validating:
//
//   ec255 — a shared immutable ec::Native: the extended point and the
//           encoding, in one allocation that every copy shares (so copies
//           are cheap and concurrent readers need no locks). An operation's
//           result computes its encoding on first read, once for all copies
//           (a thread-safe once-memo), and charges that encode to the op
//           counter of the backend that made it; a result nothing reads is
//           never encoded. A decoded wire value comes with its encoding.
//   mod-p — nothing extra: the residue is the native form, and the element is
//           only marked as validated by the backend instance that made it.
//
// Decoded elements come from GroupParams operations, from GroupParams::decode,
// and from group-aware codec reads (group::read_element on a Reader that
// carries the group). A *bare* element (encoding only) is what a plain Bigint
// converts to; every operation accepts it and decodes it per use, as before
// elements were typed.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <utility>

#include "mpz/bigint.hpp"

namespace dblind::group {

namespace ec {
class Native;  // group/backend_ec.hpp
}  // namespace ec

namespace backend {
class Group;
}  // namespace backend

class Element {
 public:
  // Bare element with encoding 0 (the ec255 identity encoding; not a mod-p
  // element).
  Element() = default;
  // Bare element: the encoding only, validated (if at all) by each use.
  Element(mpz::Bigint encoding)  // NOLINT(google-explicit-constructor)
      : enc_(std::move(encoding)) {}

  // The canonical encoding, so an Element reads wherever a Bigint did. (Like
  // encoding(), the reference lives as long as the element does.)
  operator const mpz::Bigint&() const { return encoding(); }  // NOLINT(google-explicit-constructor)
  // Reading it is what encodes an ec255 operation result (first read only).
  [[nodiscard]] const mpz::Bigint& encoding() const {
    return native_ ? native_encoding() : enc_;
  }

  // True iff the element carries a backend-native, validated form.
  [[nodiscard]] bool is_decoded() const { return owner_ != 0; }

  friend bool operator==(const Element& a, const Element& b) {
    return a.encoding() == b.encoding();
  }
  friend bool operator==(const Element& a, const mpz::Bigint& b) { return a.encoding() == b; }
  friend std::strong_ordering operator<=>(const Element& a, const Element& b) {
    return a.encoding() <=> b.encoding();
  }
  friend std::strong_ordering operator<=>(const Element& a, const mpz::Bigint& b) {
    return a.encoding() <=> b;
  }

 private:
  friend class backend::Group;  // the only code that makes or opens decoded elements

  Element(mpz::Bigint encoding, std::uint64_t owner) : enc_(std::move(encoding)), owner_(owner) {}
  Element(std::shared_ptr<const ec::Native> native, std::uint64_t owner)
      : owner_(owner), native_(std::move(native)) {}

  // The ec255 encoding, computed on the first read of any copy
  // (group/backend_ec.cpp).
  [[nodiscard]] const mpz::Bigint& native_encoding() const;

  mpz::Bigint enc_;  // bare and mod-p elements; empty beside a native form
  // Backend::Group::owner() of the backend that validated this element; 0
  // for a bare element.
  std::uint64_t owner_ = 0;
  std::shared_ptr<const ec::Native> native_;  // ec255 native form
};

}  // namespace dblind::group

// Backend-neutral group interface.
//
// Every protocol layer (ElGamal, Chaum-Pedersen/VDE, Schnorr, Feldman VSS,
// threshold decrypt, re-sharing) is generic algebra over a
// cyclic group of prime order q: elements, mul, pow, multi-pow, canonical
// encode/decode. `GroupParams` (group/params.hpp) stays the facade every
// call site uses; it delegates to one of these backends:
//
//   backend::ModP  — the original safe-prime Z_p* QR subgroup (p = 2q+1,
//                    Montgomery arithmetic, 512–2048-bit elements). The
//                    differential oracle.
//   backend::Ec    — ristretto255: a prime-order group over Curve25519 with
//                    32-byte canonical encodings (group/ristretto.hpp).
//
// Operations take and return group::Element (group/element.hpp): the
// canonical encoding — a mod-p residue, or the ristretto 32-byte string read
// as a little-endian integer — plus, for a decoded element, the backend's
// native form. An operation reads the native form of a decoded input and
// decodes only bare inputs, and returns its result decoded. A mod-p result is
// its residue; an ec255 result is its point, encoded only when something
// reads the encoding (element.hpp), so an operation never encodes an input or
// a result itself.
// Group order scalars are plain Bigints mod q in both backends, so exponent
// arithmetic (Shamir shares, challenges, blinding factors) is
// backend-independent.
//
// Op-count instrumentation mirrors MontgomeryCtx::mul_count(): op_count()
// counts Montgomery multiplications (ModP) or field multiplications (Ec);
// op_cost_weight() converts either into approximate 64x64-bit word
// multiplications so cross-backend bench gates compare a common unit.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "group/element.hpp"
#include "mpz/bigint.hpp"
#include "mpz/random.hpp"

namespace dblind::group::backend {

using mpz::Bigint;

enum class Kind : std::uint8_t {
  kModP = 0,
  kEc255 = 1,
};

class Group {
 public:
  virtual ~Group() = default;

  [[nodiscard]] virtual Kind kind() const = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;

  // Field modulus (ModP: p; Ec: 2^255 - 19). Only used for transcript
  // domain separation and display — element validity goes through in_group.
  [[nodiscard]] virtual const Bigint& p() const = 0;
  // Prime group order q.
  [[nodiscard]] virtual const Bigint& q() const = 0;
  // The generator (decoded).
  [[nodiscard]] virtual const Element& g() const = 0;
  [[nodiscard]] virtual std::size_t bits() const = 0;

  // The neutral element (ModP: 1; Ec: 0, the all-zero ristretto encoding),
  // decoded. Call sites must use this instead of Bigint(1).
  [[nodiscard]] virtual const Element& identity() const = 0;
  // Membership: free for an element this backend decoded, one decode for a
  // bare one.
  [[nodiscard]] virtual bool in_group(const Element& x) const = 0;
  // Validates x and returns it decoded; nullopt when it is not a canonical
  // element encoding. An element this backend already decoded passes free.
  [[nodiscard]] virtual std::optional<Element> decode(const Element& x) const = 0;

  [[nodiscard]] virtual Element pow_g(const Bigint& e) const = 0;
  [[nodiscard]] virtual Element pow(const Element& b, const Bigint& e) const = 0;
  virtual void pin_base(const Element& b) const = 0;
  [[nodiscard]] virtual Element pow_fixed(const Element& b, const Bigint& e) const = 0;
  [[nodiscard]] virtual Element mul(const Element& a, const Element& b) const = 0;
  [[nodiscard]] virtual Element pow2(const Element& a, const Bigint& ea, const Element& b,
                                     const Bigint& eb) const = 0;
  [[nodiscard]] virtual Element multi_pow(std::span<const Element> bases,
                                          std::span<const Bigint> exps) const = 0;
  // Π bases[i]^{exps[i]} == expect, without encoding the product.
  [[nodiscard]] virtual bool multi_pow_equals(std::span<const Element> bases,
                                              std::span<const Bigint> exps,
                                              const Element& expect) const = 0;
  // Group inverse (ModP: a^-1 mod p; Ec: point negation).
  [[nodiscard]] virtual Element inv(const Element& a) const = 0;

  [[nodiscard]] virtual std::size_t pinned_table_count() const = 0;

  // Injective value -> element embedding; inverse of decode_message. The
  // valid input range is [1, max_message_value()].
  [[nodiscard]] virtual Element encode_message(const Bigint& v) const = 0;
  [[nodiscard]] virtual Bigint decode_message(const Element& elem) const = 0;
  [[nodiscard]] virtual const Bigint& max_message_value() const = 0;

  // Fixed-width canonical wire encoding (ModP: big-endian residue; Ec: the
  // 32-byte RFC 9496 encoding). A function of the encoding alone, so an
  // Element passes without a copy.
  [[nodiscard]] virtual std::vector<std::uint8_t> element_bytes(const Bigint& x) const = 0;
  [[nodiscard]] virtual std::size_t element_size() const = 0;

  // Deterministic op counter shared by all copies of the owning GroupParams.
  [[nodiscard]] virtual std::uint64_t op_count() const = 0;
  [[nodiscard]] virtual const std::atomic<std::uint64_t>* op_cell() const = 0;
  // Approximate 64x64 word-multiplications per counted op (bench gates use
  // op_count() * op_cost_weight() as the cross-backend cost unit).
  [[nodiscard]] virtual std::uint64_t op_cost_weight() const = 0;

 protected:
  // Element plumbing, reserved to the backends. `owner` identifies the
  // validating backend: every Ec shares one owner (the curve is fixed), every
  // ModP instance gets its own (validity depends on its p).
  [[nodiscard]] static Element decoded(Bigint encoding, std::uint64_t owner) {
    return {std::move(encoding), owner};
  }
  [[nodiscard]] static Element decoded(std::shared_ptr<const ec::Native> native,
                                       std::uint64_t owner) {
    return {std::move(native), owner};
  }
  [[nodiscard]] static std::uint64_t owner_of(const Element& x) { return x.owner_; }
  [[nodiscard]] static const ec::Native* native_of(const Element& x) { return x.native_.get(); }
};

}  // namespace dblind::group::backend

// Group parameters for ElGamal — the facade over the group backends.
//
// The paper (§3) fixes large primes p, q with p = 2q + 1 and works in the
// cyclic subgroup G_p ⊆ Z_p* of order q with generator g. Everything the
// protocol does with that group is generic prime-order algebra, so the same
// facade now fronts two backends (group/backend.hpp):
//
//   mod-p  (backend::ModP) — the paper's safe-prime QR subgroup; the
//          differential oracle. Named ids kToy64 .. kSec2048.
//   ec255  (backend::Ec)   — ristretto255, a prime-order group over
//          Curve25519 with 32-byte canonical encodings. Named id kEc255.
//
// Group elements are group::Element values (group/element.hpp): the
// backend's canonical encoding, so call sites (ciphertexts, proofs,
// commitments, transcripts, codecs) stay backend-agnostic, plus the native
// form once decoded. Every operation returns a decoded element; a bare one
// (a plain Bigint) is accepted anywhere and decoded per use. Wire values are
// decoded and validated once, by read_element on a Reader that carries the
// group. Use identity()/is_identity() instead of Bigint(1) — the EC identity
// encodes as 0.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "group/backend.hpp"
#include "group/element.hpp"
#include "mpz/bigint.hpp"
#include "mpz/random.hpp"

namespace dblind::group {

using mpz::Bigint;

// Named, pre-generated parameter sets. The mod-p sets embed safe primes found
// once offline with 40-round Miller-Rabin (see tests/group/params_test.cpp
// for re-verification); kEc255 is the fixed ristretto255 group.
enum class ParamId : std::uint8_t {
  kToy64 = 0,  // tests only — breakable, never for real secrets
  kTest128,
  kTest256,
  kSec512,
  kSec1024,  // "realistic" for the paper's 2005 setting
  kSec2048,
  kEc255,  // ristretto255 (~128-bit security, 32-byte elements)
};

using backend::Kind;

class GroupParams {
 public:
  // Fixed named parameters; cheap (values are embedded constants).
  static GroupParams named(ParamId id);
  // `id` unless the DBLIND_BACKEND environment variable overrides the
  // backend ("ec"/"ec255" -> kEc255, "modp" or unset -> `id`). This is how
  // the CI backend matrix retargets default-parameter tests and harnesses
  // without touching each call site.
  static GroupParams named_or_env(ParamId id);
  // Fresh safe-prime group of `bits` bits; expensive for large sizes.
  // (mod-p only: the EC group is fixed, not generated.)
  static GroupParams generate(std::size_t bits, mpz::Prng& prng);
  // Explicit mod-p values; validates p = 2q+1, primality (with `prng`), and
  // that g generates the order-q subgroup. Throws std::invalid_argument.
  static GroupParams from_values(Bigint p, Bigint q, Bigint g, mpz::Prng& prng);
  // Explicit mod-p values with structural checks only (p = 2q+1, g^q == 1) —
  // for material loaded from trusted local storage where primality was
  // already established. Throws std::invalid_argument on structural
  // violations.
  static GroupParams from_values_trusted(Bigint p, Bigint q, Bigint g);

  // Which backend this group runs on.
  [[nodiscard]] Kind backend_kind() const { return impl_->kind(); }
  [[nodiscard]] std::string_view backend_name() const { return impl_->name(); }

  // Field modulus (mod-p: p; ec255: 2^255 - 19, display/transcript use only).
  [[nodiscard]] const Bigint& p() const { return impl_->p(); }
  // Prime group order.
  [[nodiscard]] const Bigint& q() const { return impl_->q(); }
  // The generator (decoded).
  [[nodiscard]] const Element& g() const { return impl_->g(); }
  [[nodiscard]] std::size_t bits() const { return impl_->bits(); }

  // The neutral element (mod-p: 1; ec255: encoding 0), decoded.
  [[nodiscard]] const Element& identity() const { return impl_->identity(); }
  [[nodiscard]] bool is_identity(const Bigint& x) const { return x == impl_->identity(); }

  // True iff x is a canonical group-element encoding (mod-p: nonzero QR).
  // Free for an element this group decoded; one decode for a bare one.
  [[nodiscard]] bool in_group(const Element& x) const { return impl_->in_group(x); }
  // x validated and decoded; nullopt unless x is a canonical group-element
  // encoding. Free for an element this group already decoded.
  [[nodiscard]] std::optional<Element> decode(const Element& x) const {
    return impl_->decode(x);
  }
  // True iff x in [0, q).
  [[nodiscard]] bool is_exponent(const Bigint& x) const {
    return !x.is_negative() && x < impl_->q();
  }

  // g^e (e reduced mod q first).
  [[nodiscard]] Element pow_g(const Bigint& e) const { return impl_->pow_g(e); }
  // b^e.
  [[nodiscard]] Element pow(const Element& b, const Bigint& e) const {
    return impl_->pow(b, e);
  }
  // Pins `b` as a protocol base, shared const across all copies of this
  // GroupParams (and threads) for as long as any copy lives. The pinned set
  // grows only through explicit pins: a hostile peer spraying fresh bases
  // cannot touch it. Idempotent; pinning g itself is a no-op (g always has
  // its table). Pinning registers b; its shift table is built when an
  // operation first names b, inside that operation, and every operation then
  // reads it (pow, pow2, multi_pow, multi_pow_equals too), as g's. A table
  // holds the odd powers of b^{2^{16j}} per 16-bit chunk j of an exponent, so
  // b^e needs at most 15 squarings (mod-p) or 16 doublings (ec255), not one
  // per bit of q. ec255's table takes 20 KB; mod-p's 128 KB at 1024 bits.
  // ProtocolServer's constructor pins y_A, y_B and y_A·y_B, which no reshare
  // changes, and every server key and both service signing keys, which it
  // pins again after an install.
  void pin_base(const Element& b) const { impl_->pin_base(b); }
  // b^e: the same as pow(). Never inserts into any cache, so it is safe on
  // the prover hot path even for ad-hoc bases. ec255 also matches a base
  // whose encoding nothing has read yet to g and the pinned bases by point,
  // where pow() takes it as unpinned.
  [[nodiscard]] Element pow_fixed(const Element& b, const Bigint& e) const {
    return impl_->pow_fixed(b, e);
  }
  // Group operation a·b.
  [[nodiscard]] Element mul(const Element& a, const Element& b) const {
    return impl_->mul(a, b);
  }
  // a^ea · b^eb (one two-term pass; exponents reduced mod q).
  [[nodiscard]] Element pow2(const Element& a, const Bigint& ea, const Element& b,
                             const Bigint& eb) const {
    return impl_->pow2(a, ea, b, eb);
  }
  // Π bases[i]^{exps[i]}: one pass, pinned bases and g over their shift
  // tables (mod-p: unsigned width-5 windows; ec255: the signed Straus pass).
  // Exponents are reduced mod q.
  [[nodiscard]] Element multi_pow(std::span<const Element> bases,
                                  std::span<const Bigint> exps) const {
    return impl_->multi_pow(bases, exps);
  }
  // The same over bare bases (each decoded per call).
  [[nodiscard]] Element multi_pow(std::span<const Bigint> bases,
                                  std::span<const Bigint> exps) const {
    const std::vector<Element> bare(bases.begin(), bases.end());
    return impl_->multi_pow(bare, exps);
  }
  // Π bases[i]^{exps[i]} == expect, without encoding the product: the
  // verification equations' comparison, after the same pass as multi_pow.
  // ec255 compares points (coset-aware ec::eq); mod-p compares residues.
  [[nodiscard]] bool multi_pow_equals(std::span<const Element> bases,
                                      std::span<const Bigint> exps,
                                      const Element& expect) const {
    return impl_->multi_pow_equals(bases, exps, expect);
  }
  // Group inverse a^{-1}.
  [[nodiscard]] Element inv(const Element& a) const { return impl_->inv(a); }

  // Pinned base count (tests/observability); a base's table may not be built
  // yet.
  [[nodiscard]] std::size_t pinned_table_count() const {
    return impl_->pinned_table_count();
  }

  // Uniformly random group element (random exponent applied to g).
  [[nodiscard]] Element random_element(mpz::Prng& prng) const {
    return impl_->pow_g(random_exponent(prng));
  }
  // Uniformly random exponent in [1, q).
  [[nodiscard]] Bigint random_exponent(mpz::Prng& prng) const {
    return prng.uniform_nonzero_below(impl_->q());
  }

  // -- Message encoding (§3 requires m ∈ G_p) -------------------------------
  //
  // Injective value -> element embedding, inverted by decode_message. Valid
  // inputs are [1, max_message_value()] (mod-p: q, via the QR-or-negate map;
  // ec255: 2^232 - 1, embedded in the canonical encoding's payload bytes).
  // Throws std::invalid_argument outside that range.
  [[nodiscard]] Element encode_message(const Bigint& v) const {
    return impl_->encode_message(v);
  }
  [[nodiscard]] Bigint decode_message(const Element& elem) const {
    return impl_->decode_message(elem);
  }
  [[nodiscard]] const Bigint& max_message_value() const {
    return impl_->max_message_value();
  }
  // Convenience: encode/decode short byte strings (must fit below
  // max_message_value once framed).
  [[nodiscard]] Element encode_bytes(std::span<const std::uint8_t> bytes) const;
  [[nodiscard]] std::vector<std::uint8_t> decode_bytes(const Element& elem) const;

  // Canonical serialized form of an element (mod-p: fixed-width big-endian
  // residue; ec255: the 32-byte RFC 9496 encoding), used in hashes and
  // message encodings.
  [[nodiscard]] std::vector<std::uint8_t> element_bytes(const Bigint& x) const {
    return impl_->element_bytes(x);
  }
  [[nodiscard]] std::size_t element_size() const { return impl_->element_size(); }

  // Deterministic group-op counter shared by all copies of this GroupParams:
  // Montgomery multiplications (mod-p) or field multiplications (ec255). The
  // bench regression gates diff this across runs.
  [[nodiscard]] std::uint64_t group_op_count() const { return impl_->op_count(); }
  // The underlying counter cell (valid while any copy of this GroupParams is
  // alive) — lets obs::ScopedCounterDelta attribute group ops to a protocol
  // phase without repeated lookups.
  [[nodiscard]] const std::atomic<std::uint64_t>* group_op_cell() const {
    return impl_->op_cell();
  }
  // Approximate 64x64-bit word multiplications per counted op — the common
  // unit for cross-backend cost comparisons (bench_check PR 10 gate).
  [[nodiscard]] std::uint64_t op_cost_weight() const { return impl_->op_cost_weight(); }

  friend bool operator==(const GroupParams& a, const GroupParams& b) {
    return a.impl_->kind() == b.impl_->kind() && a.impl_->p() == b.impl_->p() &&
           a.impl_->g() == b.impl_->g();
  }

 private:
  explicit GroupParams(std::shared_ptr<const backend::Group> impl)
      : impl_(std::move(impl)) {}

  // Shared so that copies of GroupParams (passed around freely by services,
  // servers, and messages) reuse one backend instance — one Montgomery
  // context / fixed-base table cache / op counter per group.
  std::shared_ptr<const backend::Group> impl_;
};

// Reads one group element written by Writer::bigint. When the reader
// carries a group (Reader(bytes, &params)) the element is decoded and
// validated once, here, and anything that is not a canonical element
// encoding throws common::CodecError before it can cost an exponentiation;
// a group-less reader returns it bare.
[[nodiscard]] Element read_element(common::Reader& r);

}  // namespace dblind::group

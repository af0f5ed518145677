// Safe-prime Z_p* backend behind the backend::Group interface. p = 2q + 1,
// elements live in the order-q quadratic-residue subgroup, g = 4 for the
// named parameter sets. It is the differential oracle the EC backend is
// tested against. Exponentiations run MontgomeryCtx's one pass, g and every
// pinned base over their shift tables, and pin like backend::Ec's.
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "core/sync.hpp"
#include "group/backend.hpp"
#include "mpz/montgomery.hpp"

namespace dblind::group::backend {

class ModP final : public Group {
 public:
  ModP(Bigint p, Bigint q, Bigint g);

  [[nodiscard]] Kind kind() const override { return Kind::kModP; }
  [[nodiscard]] std::string_view name() const override { return "modp"; }
  [[nodiscard]] const Bigint& p() const override { return p_; }
  [[nodiscard]] const Bigint& q() const override { return q_; }
  [[nodiscard]] const Element& g() const override { return g_; }
  [[nodiscard]] std::size_t bits() const override { return p_.bit_length(); }

  [[nodiscard]] const Element& identity() const override { return identity_; }
  [[nodiscard]] bool in_group(const Element& x) const override;
  [[nodiscard]] std::optional<Element> decode(const Element& x) const override;

  [[nodiscard]] Element pow_g(const Bigint& e) const override;
  [[nodiscard]] Element pow(const Element& b, const Bigint& e) const override;
  void pin_base(const Element& b) const override;
  // Every operation reads the pinned tables: the same as pow.
  [[nodiscard]] Element pow_fixed(const Element& b, const Bigint& e) const override {
    return pow(b, e);
  }
  [[nodiscard]] Element mul(const Element& a, const Element& b) const override;
  [[nodiscard]] Element pow2(const Element& a, const Bigint& ea, const Element& b,
                             const Bigint& eb) const override;
  [[nodiscard]] Element multi_pow(std::span<const Element> bases,
                                  std::span<const Bigint> exps) const override;
  [[nodiscard]] bool multi_pow_equals(std::span<const Element> bases,
                                      std::span<const Bigint> exps,
                                      const Element& expect) const override;
  [[nodiscard]] Element inv(const Element& a) const override;

  [[nodiscard]] std::size_t pinned_table_count() const override;

  [[nodiscard]] Element encode_message(const Bigint& v) const override;
  [[nodiscard]] Bigint decode_message(const Element& elem) const override;
  [[nodiscard]] const Bigint& max_message_value() const override { return q_; }

  [[nodiscard]] std::vector<std::uint8_t> element_bytes(const Bigint& x) const override;
  [[nodiscard]] std::size_t element_size() const override { return (bits() + 7) / 8; }

  [[nodiscard]] std::uint64_t op_count() const override { return mont_.mul_count(); }
  [[nodiscard]] const std::atomic<std::uint64_t>* op_cell() const override {
    return &mont_.mul_count_cell();
  }
  // One Montgomery multiplication on a k-limb modulus is k*k word
  // multiplications for the product plus about the same again for the
  // reduction: ~2k^2.
  [[nodiscard]] std::uint64_t op_cost_weight() const override {
    const std::uint64_t k = (bits() + 63) / 64;
    return 2 * k * k;
  }

 private:
  // True iff this instance validated x: its residue is a group element.
  [[nodiscard]] bool mine(const Element& x) const { return owner_of(x) == owner_; }
  // `v` as an element, decoded iff every element it was computed from was a
  // validated group element (then so is v).
  [[nodiscard]] Element result(Bigint v, bool valid) const {
    return valid ? decoded(std::move(v), owner_) : Element(std::move(v));
  }
  // b's residue mod p.
  [[nodiscard]] Bigint residue(const Element& b) const;
  // The shift table of `base` (a residue) when it is g or a pinned base,
  // built when an operation first names it; null for any other base.
  [[nodiscard]] const mpz::ShiftTable* table_of(const Bigint& base) const;
  // The term b^e, e reduced mod q: b's table when it has one (see table_of),
  // else its residue.
  [[nodiscard]] mpz::MontgomeryCtx::Term term(const Element& b, const Bigint& e) const;
  // Π bases[i]^{exps[i]}: one pass over their terms.
  [[nodiscard]] Bigint pass(std::span<const Element> bases, std::span<const Bigint> exps) const;

  Bigint p_, q_;
  // Unique per instance and never reused, so an element validated under one
  // modulus never passes as validated under another.
  std::uint64_t owner_;
  Element g_, identity_;
  mpz::MontgomeryCtx mont_;
  struct TableCache {
    std::once_flag g_once;
    std::unique_ptr<const mpz::ShiftTable> g_table;
    mutable Mutex mu;
    // Keyed by residue; a table is null until an operation names its base.
    // Entries are never erased, so a table outlives every pass that reads it.
    mutable std::map<Bigint, std::unique_ptr<const mpz::ShiftTable>> pinned GUARDED_BY(mu);
  };
  mutable TableCache cache_;
};

}  // namespace dblind::group::backend

// Safe-prime Z_p* backend: the original GroupParams arithmetic, verbatim,
// behind the backend::Group interface. p = 2q + 1, elements live in the
// order-q quadratic-residue subgroup, g = 4 for the named parameter sets.
// Kept bit-identical to the pre-backend code — it is the differential oracle
// the EC backend is tested against, and the default build's behavior must
// not move.
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
  [[nodiscard]] bool in_zp_star(const Element& x) const override;
  [[nodiscard]] std::optional<Element> decode(const Element& x) const override;

  [[nodiscard]] Element pow_g(const Bigint& e) const override;
  [[nodiscard]] Element pow(const Element& b, const Bigint& e) const override;
  void pin_base(const Element& b) const override;
  // A check's multi-exponentiation reads no pinned table here, so a key's
  // table would cost its build and memory and save nothing.
  void pin_key(const Element& /*b*/) const override {}
  [[nodiscard]] Element pow_fixed(const Element& b, const Bigint& e) const override;
  [[nodiscard]] Element mul(const Element& a, const Element& b) const override;
  [[nodiscard]] Element pow2(const Element& a, const Bigint& ea, const Element& b,
                             const Bigint& eb) const override;
  [[nodiscard]] Element multi_pow(std::span<const Element> bases,
                                  std::span<const Bigint> exps) const override;
  // Two bases run Shamir's joint window (pow2); more run one
  // multi-exponentiation over every base but g, with g through its comb.
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

  Bigint p_, q_;
  // Unique per instance and never reused, so an element validated under one
  // modulus never passes as validated under another.
  std::uint64_t owner_;
  Element g_, identity_;
  mpz::MontgomeryCtx mont_;
  // Fixed-base tables: g's, built on first use, and the pinned bases' (see
  // GroupParams docs).
  struct FixedBaseCache {
    std::once_flag once;
    std::unique_ptr<const mpz::FixedBasePow> g_pow;
    mutable Mutex mu;
    static constexpr std::size_t kPinnedWindowBits = 5;
    mutable std::map<Bigint, std::shared_ptr<const mpz::FixedBasePow>> pinned GUARDED_BY(mu);
  };
  mutable FixedBaseCache cache_;
};

}  // namespace dblind::group::backend

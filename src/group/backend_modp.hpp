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
  [[nodiscard]] const Bigint& g() const override { return g_; }
  [[nodiscard]] std::size_t bits() const override { return p_.bit_length(); }

  [[nodiscard]] Bigint identity() const override { return Bigint(1); }
  [[nodiscard]] bool in_group(const Bigint& x) const override;
  [[nodiscard]] bool in_zp_star(const Bigint& x) const override;

  [[nodiscard]] Bigint pow_g(const Bigint& e) const override;
  [[nodiscard]] Bigint pow(const Bigint& b, const Bigint& e) const override;
  void pin_base(const Bigint& b) const override;
  [[nodiscard]] Bigint pow_fixed(const Bigint& b, const Bigint& e) const override;
  [[nodiscard]] Bigint mul(const Bigint& a, const Bigint& b) const override;
  [[nodiscard]] Bigint pow2(const Bigint& a, const Bigint& ea, const Bigint& b,
                            const Bigint& eb) const override;
  [[nodiscard]] Bigint multi_pow(std::span<const Bigint> bases,
                                 std::span<const Bigint> exps) const override;
  [[nodiscard]] Bigint inv(const Bigint& a) const override;

  void reset_base_caches() const override;
  [[nodiscard]] std::size_t pinned_table_count() const override;

  [[nodiscard]] Bigint hash_to_group(std::string_view label) const override;
  [[nodiscard]] Bigint encode_message(const Bigint& v) const override;
  [[nodiscard]] Bigint decode_message(const Bigint& elem) const override;
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
  Bigint p_, q_, g_;
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

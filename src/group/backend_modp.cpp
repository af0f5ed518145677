#include "group/backend_modp.hpp"

#include <algorithm>
#include <stdexcept>

#include "hash/sha256.hpp"
#include "mpz/modmath.hpp"

namespace dblind::group::backend {

ModP::ModP(Bigint p, Bigint q, Bigint g)
    : p_(std::move(p)), q_(std::move(q)), g_(std::move(g)), mont_(p_) {}

bool ModP::in_group(const Bigint& x) const {
  if (!in_zp_star(x)) return false;
  return mpz::jacobi(x, p_) == 1;  // QR subgroup == order-q subgroup for safe primes
}

bool ModP::in_zp_star(const Bigint& x) const {
  return !x.is_negative() && !x.is_zero() && x < p_;
}

Bigint ModP::pow_g(const Bigint& e) const {
  std::call_once(cache_.once, [&] {
    cache_.g_pow = std::make_unique<const mpz::FixedBasePow>(mont_, g_, q_.bit_length());
  });
  return cache_.g_pow->pow(mpz::mod(e, q_));
}

Bigint ModP::pow(const Bigint& b, const Bigint& e) const {
  return mont_.pow(mpz::mod(b, p_), mpz::mod(e, q_));
}

void ModP::pin_base(const Bigint& b) const {
  Bigint base = mpz::mod(b, p_);
  if (base == g_) return;  // pow_g's comb table already covers g
  MutexLock lock(cache_.mu);
  if (cache_.pinned.contains(base)) return;
  cache_.pinned.emplace(
      base, std::make_shared<const mpz::FixedBasePow>(mont_, base, q_.bit_length(),
                                                      FixedBaseCache::kPinnedWindowBits));
}

Bigint ModP::pow_fixed(const Bigint& b, const Bigint& e) const {
  Bigint base = mpz::mod(b, p_);
  if (base == g_) return pow_g(e);
  std::shared_ptr<const mpz::FixedBasePow> table;
  {
    MutexLock lock(cache_.mu);
    auto it = cache_.pinned.find(base);
    if (it != cache_.pinned.end()) table = it->second;
  }
  if (!table) return mont_.pow(base, mpz::mod(e, q_));  // not pinned: no insertion
  return table->pow(mpz::mod(e, q_));
}

void ModP::reset_base_caches() const {
  MutexLock lock(cache_.mu);
  cache_.pinned.clear();  // g's call_once comb is separate and stays
}

std::size_t ModP::pinned_table_count() const {
  MutexLock lock(cache_.mu);
  return cache_.pinned.size();
}

Bigint ModP::pow2(const Bigint& a, const Bigint& ea, const Bigint& b,
                  const Bigint& eb) const {
  return mont_.pow2(mpz::mod(a, p_), mpz::mod(ea, q_), mpz::mod(b, p_), mpz::mod(eb, q_));
}

Bigint ModP::multi_pow(std::span<const Bigint> bases, std::span<const Bigint> exps) const {
  std::vector<Bigint> reduced(bases.begin(), bases.end());
  for (Bigint& b : reduced) {
    if (b.is_negative() || b >= p_) b = mpz::mod(b, p_);
  }
  return mont_.multi_pow(reduced, exps);
}

Bigint ModP::mul(const Bigint& a, const Bigint& b) const {
  return mont_.mul(mpz::mod(a, p_), mpz::mod(b, p_));
}

Bigint ModP::inv(const Bigint& a) const { return mpz::invmod(a, p_); }

Bigint ModP::hash_to_group(std::string_view label) const {
  // Expand the label to >= |p| + 64 bits of digest material so the reduction
  // mod p is statistically uniform, then square to land in the QR subgroup.
  const std::size_t need = element_size() + 8;
  std::vector<std::uint8_t> material;
  std::uint32_t counter = 0;
  for (;;) {
    material.clear();
    while (material.size() < need) {
      hash::Sha256 h;
      h.update("dblind/hash-to-group/v1");
      h.update(label);
      std::uint8_t ctr_bytes[4] = {static_cast<std::uint8_t>(counter),
                                   static_cast<std::uint8_t>(counter >> 8),
                                   static_cast<std::uint8_t>(counter >> 16),
                                   static_cast<std::uint8_t>(counter >> 24)};
      h.update(std::span<const std::uint8_t>(ctr_bytes, 4));
      hash::Digest d = h.finish();
      material.insert(material.end(), d.begin(), d.end());
      ++counter;
    }
    Bigint v = mpz::mod(Bigint::from_bytes_be(material), p_);
    Bigint e = mont_.mul(v, v);  // v^2: a quadratic residue
    if (in_group(e) && e != Bigint(1)) return e;
    // v was 0, 1 or p-1 (astronomically unlikely); extend and retry.
  }
}

Bigint ModP::encode_message(const Bigint& v) const {
  if (v.is_negative() || v.is_zero() || v > q_)
    throw std::invalid_argument("encode_message: value must be in [1, q]");
  if (mpz::jacobi(v, p_) == 1) return v;
  return p_ - v;
}

Bigint ModP::decode_message(const Bigint& elem) const {
  if (!in_group(elem)) throw std::invalid_argument("decode_message: not a group element");
  if (elem <= q_) return elem;
  return p_ - elem;
}

std::vector<std::uint8_t> ModP::element_bytes(const Bigint& x) const {
  return x.to_bytes_be(element_size());
}

}  // namespace dblind::group::backend

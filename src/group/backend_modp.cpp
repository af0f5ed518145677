#include "group/backend_modp.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "mpz/modmath.hpp"

namespace dblind::group::backend {

namespace {

// Ec owns 1; ModP instances count up from 2.
std::uint64_t next_owner() {
  static std::atomic<std::uint64_t> next{2};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

ModP::ModP(Bigint p, Bigint q, Bigint g)
    : p_(std::move(p)),
      q_(std::move(q)),
      owner_(next_owner()),
      g_(decoded(std::move(g), owner_)),
      identity_(decoded(Bigint(1), owner_)),
      mont_(p_) {}

bool ModP::in_group(const Element& x) const {
  if (mine(x)) return true;
  if (!in_zp_star(x)) return false;
  return mpz::jacobi(x, p_) == 1;  // QR subgroup == order-q subgroup for safe primes
}

bool ModP::in_zp_star(const Element& x) const {
  if (mine(x)) return true;
  const Bigint& v = x;
  return !v.is_negative() && !v.is_zero() && v < p_;
}

std::optional<Element> ModP::decode(const Element& x) const {
  if (!in_group(x)) return std::nullopt;
  return decoded(x.encoding(), owner_);
}

Element ModP::pow_g(const Bigint& e) const {
  std::call_once(cache_.once, [&] {
    cache_.g_pow = std::make_unique<const mpz::FixedBasePow>(mont_, g_, q_.bit_length());
  });
  return decoded(cache_.g_pow->pow(mpz::mod(e, q_)), owner_);
}

Element ModP::pow(const Element& b, const Bigint& e) const {
  return result(mont_.pow(mpz::mod(b, p_), mpz::mod(e, q_)), mine(b));
}

void ModP::pin_base(const Element& b) const {
  Bigint base = mpz::mod(b, p_);
  if (base == g_) return;  // pow_g's comb table already covers g
  MutexLock lock(cache_.mu);
  if (cache_.pinned.contains(base)) return;
  cache_.pinned.emplace(
      base, std::make_shared<const mpz::FixedBasePow>(mont_, base, q_.bit_length(),
                                                      FixedBaseCache::kPinnedWindowBits));
}

Element ModP::pow_fixed(const Element& b, const Bigint& e) const {
  Bigint base = mpz::mod(b, p_);
  if (base == g_) return pow_g(e);
  std::shared_ptr<const mpz::FixedBasePow> table;
  {
    MutexLock lock(cache_.mu);
    auto it = cache_.pinned.find(base);
    if (it != cache_.pinned.end()) table = it->second;
  }
  if (!table) return result(mont_.pow(base, mpz::mod(e, q_)), mine(b));  // not pinned: no insertion
  return result(table->pow(mpz::mod(e, q_)), mine(b));
}

std::size_t ModP::pinned_table_count() const {
  MutexLock lock(cache_.mu);
  return cache_.pinned.size();
}

Element ModP::pow2(const Element& a, const Bigint& ea, const Element& b,
                   const Bigint& eb) const {
  return result(
      mont_.pow2(mpz::mod(a, p_), mpz::mod(ea, q_), mpz::mod(b, p_), mpz::mod(eb, q_)),
      mine(a) && mine(b));
}

Element ModP::multi_pow(std::span<const Element> bases, std::span<const Bigint> exps) const {
  std::vector<Bigint> reduced;
  reduced.reserve(bases.size());
  bool valid = true;
  for (const Element& b : bases) {
    const Bigint& v = b;
    reduced.push_back(v.is_negative() || v >= p_ ? mpz::mod(v, p_) : v);
    valid = valid && mine(b);
  }
  return result(mont_.multi_pow(reduced, exps), valid);
}

bool ModP::multi_pow_equals(std::span<const Element> bases, std::span<const Bigint> exps,
                            const Element& expect) const {
  if (bases.size() == 2) return pow2(bases[0], exps[0], bases[1], exps[1]) == expect;
  std::vector<Element> rest;
  std::vector<Bigint> rest_exps;
  rest.reserve(bases.size());
  rest_exps.reserve(exps.size());
  Bigint g_exp(0);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    if (bases[i] == g_) {
      g_exp = mpz::addmod(g_exp, exps[i], q_);
    } else {
      rest.push_back(bases[i]);
      rest_exps.push_back(exps[i]);
    }
  }
  Element acc = multi_pow(rest, rest_exps);
  if (!g_exp.is_zero()) acc = mul(acc, pow_g(g_exp));
  return acc == expect;
}

Element ModP::mul(const Element& a, const Element& b) const {
  return result(mont_.mul(mpz::mod(a, p_), mpz::mod(b, p_)), mine(a) && mine(b));
}

Element ModP::inv(const Element& a) const { return result(mpz::invmod(a, p_), mine(a)); }

Element ModP::encode_message(const Bigint& v) const {
  if (v.is_negative() || v.is_zero() || v > q_)
    throw std::invalid_argument("encode_message: value must be in [1, q]");
  // p = 3 mod 4 makes -1 a non-residue, so exactly one of v, p - v is a QR.
  if (mpz::jacobi(v, p_) == 1) return decoded(v, owner_);
  return decoded(p_ - v, owner_);
}

Bigint ModP::decode_message(const Element& elem) const {
  if (!in_group(elem)) throw std::invalid_argument("decode_message: not a group element");
  if (elem <= q_) return elem;
  return p_ - elem;
}

std::vector<std::uint8_t> ModP::element_bytes(const Bigint& x) const {
  return x.to_bytes_be(element_size());
}

}  // namespace dblind::group::backend

#include "group/backend_modp.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <stdexcept>
#include <vector>

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
  const Bigint& v = x;
  if (v.is_negative() || v.is_zero() || v >= p_) return false;
  return mpz::jacobi(v, p_) == 1;  // QR subgroup == order-q subgroup for safe primes
}

std::optional<Element> ModP::decode(const Element& x) const {
  if (!in_group(x)) return std::nullopt;
  return decoded(x.encoding(), owner_);
}

Bigint ModP::residue(const Element& b) const {
  const Bigint& v = b;
  return v.is_negative() || v >= p_ ? mpz::mod(v, p_) : v;
}

const mpz::ShiftTable* ModP::table_of(const Bigint& base) const {
  if (base == g_.encoding()) {
    std::call_once(cache_.g_once, [&] {
      cache_.g_table = std::make_unique<const mpz::ShiftTable>(mont_, base, q_.bit_length());
    });
    return cache_.g_table.get();
  }
  MutexLock lock(cache_.mu);
  auto it = cache_.pinned.find(base);
  if (it == cache_.pinned.end()) return nullptr;
  if (!it->second)
    it->second = std::make_unique<const mpz::ShiftTable>(mont_, base, q_.bit_length());
  return it->second.get();
}

mpz::MontgomeryCtx::Term ModP::term(const Element& b, const Bigint& e) const {
  Bigint base = residue(b);
  const mpz::ShiftTable* table = table_of(base);
  return {table, table != nullptr ? Bigint() : std::move(base), mpz::mod(e, q_)};
}

Bigint ModP::pass(std::span<const Element> bases, std::span<const Bigint> exps) const {
  if (bases.size() != exps.size()) throw std::invalid_argument("modp: length mismatch");
  std::vector<mpz::MontgomeryCtx::Term> terms;
  terms.reserve(bases.size());
  for (std::size_t i = 0; i < bases.size(); ++i) terms.push_back(term(bases[i], exps[i]));
  return mont_.multi_pow(terms);
}

Element ModP::pow_g(const Bigint& e) const {
  return decoded(mont_.pow(*table_of(g_.encoding()), mpz::mod(e, q_)), owner_);
}

Element ModP::pow(const Element& b, const Bigint& e) const {
  return result(pass(std::span<const Element>(&b, 1), std::span<const Bigint>(&e, 1)), mine(b));
}

void ModP::pin_base(const Element& b) const {
  Bigint base = residue(b);
  if (base == g_.encoding()) return;  // g has its own table
  MutexLock lock(cache_.mu);
  cache_.pinned.try_emplace(std::move(base), nullptr);
}

std::size_t ModP::pinned_table_count() const {
  MutexLock lock(cache_.mu);
  return cache_.pinned.size();
}

Element ModP::pow2(const Element& a, const Bigint& ea, const Element& b,
                   const Bigint& eb) const {
  const std::array<Element, 2> bases = {a, b};
  const std::array<Bigint, 2> exps = {ea, eb};
  return result(pass(bases, exps), mine(a) && mine(b));
}

Element ModP::multi_pow(std::span<const Element> bases, std::span<const Bigint> exps) const {
  return result(pass(bases, exps),
                std::all_of(bases.begin(), bases.end(), [&](const Element& b) { return mine(b); }));
}

bool ModP::multi_pow_equals(std::span<const Element> bases, std::span<const Bigint> exps,
                            const Element& expect) const {
  return pass(bases, exps) == expect.encoding();
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

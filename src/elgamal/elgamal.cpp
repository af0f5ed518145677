#include "elgamal/elgamal.hpp"

#include <stdexcept>

namespace dblind::elgamal {

namespace {

Element decoded_key(const GroupParams& params, const Element& y) {
  std::optional<Element> key = params.decode(y);
  if (!key) throw std::invalid_argument("PublicKey: y is not a group element");
  return *std::move(key);
}

}  // namespace

PublicKey::PublicKey(GroupParams params, const Element& y)
    : params_(std::move(params)), y_(decoded_key(params_, y)) {}

Ciphertext PublicKey::encrypt(const Element& m, mpz::Prng& prng) const {
  return encrypt_with_nonce(m, params_.random_exponent(prng));
}

Ciphertext PublicKey::encrypt_with_nonce(const Element& m, const Bigint& r) const {
  if (!params_.in_group(m))
    throw std::invalid_argument("encrypt: plaintext is not a group element");
  if (r.is_zero() || r.is_negative() || r >= params_.q())
    throw std::invalid_argument("encrypt: nonce out of Z_q^*");
  // pow_fixed: y's fixed-base table when y is a pinned protocol base (the
  // service keys are pinned by ProtocolServer), plain pow otherwise — same
  // values.
  return {params_.pow_g(r), params_.mul(m, params_.pow_fixed(y_, r))};
}

bool PublicKey::well_formed(const Ciphertext& c) const {
  return params_.in_group(c.a) && params_.in_group(c.b);
}

Ciphertext PublicKey::inverse(const Ciphertext& c) const {
  return {params_.inv(c.a), params_.inv(c.b)};
}

Ciphertext PublicKey::juxtapose(const Element& m_prime, const Ciphertext& c) const {
  return {c.a, params_.mul(m_prime, c.b)};
}

std::optional<Ciphertext> PublicKey::multiply(const Ciphertext& c1, const Ciphertext& c2) const {
  Ciphertext out{params_.mul(c1.a, c2.a), params_.mul(c1.b, c2.b)};
  // Side condition of ElGamal Multiplication: r1 + r2 must stay in Z_q^*,
  // checked without knowing r1, r2 by testing a != 1 (§3).
  if (params_.is_identity(out.a)) return std::nullopt;
  return out;
}

std::optional<Ciphertext> PublicKey::product(std::span<const Ciphertext> cs) const {
  if (cs.empty()) throw std::invalid_argument("product: empty ciphertext list");
  // Fold componentwise without intermediate degeneracy checks: the paper's
  // side condition constrains only the *total* r_1 + ... + r_k, so a zero
  // partial sum that a later factor cancels out again is fine.
  Ciphertext acc = cs[0];
  for (std::size_t i = 1; i < cs.size(); ++i) {
    acc.a = params_.mul(acc.a, cs[i].a);
    acc.b = params_.mul(acc.b, cs[i].b);
  }
  if (params_.is_identity(acc.a)) return std::nullopt;
  return acc;
}

KeyPair KeyPair::generate(const GroupParams& params, mpz::Prng& prng) {
  return from_private(params, params.random_exponent(prng));
}

KeyPair KeyPair::from_private(const GroupParams& params, Bigint k) {
  if (k.is_zero() || k.is_negative() || k >= params.q())
    throw std::invalid_argument("KeyPair: private key out of Z_q^*");
  Element y = params.pow_g(k);
  return KeyPair(PublicKey(params, y), std::move(k));
}

Element KeyPair::decrypt(const Ciphertext& c) const {
  const GroupParams& params = pub_.params();
  if (!pub_.well_formed(c)) throw std::invalid_argument("decrypt: malformed ciphertext");
  Element ak = params.pow(c.a, k_);
  return params.mul(c.b, params.inv(ak));
}

}  // namespace dblind::elgamal

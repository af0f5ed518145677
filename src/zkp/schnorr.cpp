#include "zkp/schnorr.hpp"

#include <array>
#include <optional>
#include <stdexcept>

#include "mpz/modmath.hpp"
#include "hash/sha256.hpp"
#include "zkp/transcript.hpp"

namespace dblind::zkp {

Bigint schnorr_challenge(const GroupParams& params, const Bigint& commit, const Bigint& point,
                         std::span<const std::uint8_t> msg) {
  Transcript t("dblind/schnorr-sig/v1");
  t.absorb(params.p()).absorb(params.g()).absorb(commit).absorb(point).absorb_bytes(msg);
  return t.challenge(params.q());
}

namespace {

Element decoded_point(const GroupParams& params, const Element& point) {
  std::optional<Element> p = params.decode(point);
  if (!p) throw std::invalid_argument("SchnorrVerifyKey: point is not a group element");
  return *std::move(p);
}

}  // namespace

SchnorrVerifyKey::SchnorrVerifyKey(GroupParams params, const Element& point)
    : params_(std::move(params)), point_(decoded_point(params_, point)) {}

bool SchnorrVerifyKey::verify(std::span<const std::uint8_t> msg,
                              const SchnorrSignature& sig) const {
  if (!params_.in_group(sig.r)) return false;
  if (sig.s.is_negative() || sig.s >= params_.q()) return false;
  Bigint e = schnorr_challenge(params_, sig.r, point_, msg);
  // g^s == r * P^e, checked as g^s * P^{-e} == r (one double exponentiation,
  // compared without encoding it).
  const std::array<Element, 2> bases = {params_.g(), point_};
  const std::array<Bigint, 2> exps = {sig.s, mpz::submod(Bigint(0), e, params_.q())};
  return params_.multi_pow_equals(bases, exps, sig.r);
}

SchnorrSigningKey SchnorrSigningKey::generate(const GroupParams& params, mpz::Prng& prng) {
  return from_private(params, params.random_exponent(prng));
}

SchnorrSigningKey SchnorrSigningKey::from_private(const GroupParams& params, Bigint x) {
  if (x.is_zero() || x.is_negative() || x >= params.q())
    throw std::invalid_argument("SchnorrSigningKey: secret out of Z_q^*");
  SchnorrVerifyKey vk(params, params.pow_g(x));
  return SchnorrSigningKey(std::move(vk), std::move(x));
}

SchnorrSignature SchnorrSigningKey::sign(std::span<const std::uint8_t> msg,
                                         mpz::Prng& prng) const {
  const GroupParams& params = vk_.params();
  Bigint k = params.random_exponent(prng);
  Element r = params.pow_g(k);
  Bigint e = schnorr_challenge(params, r, vk_.point(), msg);
  Bigint s = mpz::addmod(k, mpz::mulmod(e, x_, params.q()), params.q());
  return {std::move(r), std::move(s)};
}

bool schnorr_batch_verify(const GroupParams& params, std::span<const BatchEntry> batch) {
  if (batch.empty()) return true;
  // Derive batch coefficients c_i from the whole batch contents. 128-bit
  // coefficients keep soundness error negligible while halving the exponent
  // width of the r_i terms.
  Transcript seed("dblind/schnorr-batch/v1");
  std::vector<Bigint> challenges;
  for (const BatchEntry& e : batch) {
    if (e.key == nullptr || e.sig == nullptr) return false;
    if (!params.in_group(e.sig->r)) return false;
    if (e.sig->s.is_negative() || e.sig->s >= params.q()) return false;
    seed.absorb(e.key->point()).absorb(e.sig->r).absorb(e.sig->s).absorb_bytes(e.msg);
    challenges.push_back(schnorr_challenge(params, e.sig->r, e.key->point(), e.msg));
  }
  hash::Digest d = seed.digest();
  std::vector<Bigint> coeff;
  coeff.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Transcript t("dblind/schnorr-batch/coeff/v1");
    t.absorb_bytes(d);
    t.absorb(Bigint(static_cast<std::uint64_t>(i)));
    // 128-bit coefficient.
    hash::Digest ci = t.digest();
    coeff.push_back(Bigint::from_bytes_be(std::span<const std::uint8_t>(ci.data(), 16)));
  }

  // LHS exponent and RHS base/exponent lists.
  Bigint lhs_exp(0);
  std::vector<Element> bases;
  std::vector<Bigint> exps;
  bases.reserve(2 * batch.size());
  exps.reserve(2 * batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    lhs_exp = mpz::addmod(lhs_exp, mpz::mulmod(coeff[i], batch[i].sig->s, params.q()),
                          params.q());
    bases.push_back(batch[i].sig->r);
    exps.push_back(mpz::mod(coeff[i], params.q()));
    bases.push_back(batch[i].key->point());
    exps.push_back(mpz::mulmod(coeff[i], challenges[i], params.q()));
  }
  return params.multi_pow_equals(bases, exps, params.pow_g(lhs_exp));
}

}  // namespace dblind::zkp

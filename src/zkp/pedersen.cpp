#include "zkp/pedersen.hpp"

#include "mpz/modmath.hpp"

namespace dblind::zkp {

PedersenParams::PedersenParams(group::GroupParams params, std::string_view domain)
    : params_(std::move(params)), h_(params_.hash_to_group(domain)) {
  // h is exponentiated on every commit for the scheme's lifetime: pin it so
  // commit() combs both bases.
  params_.pin_base(h_);
}

group::Element PedersenParams::commit(const mpz::Bigint& v, const mpz::Bigint& r) const {
  return params_.mul(params_.pow_g(v), params_.pow_fixed(h_, r));
}

PedersenParams::Opening PedersenParams::commit_random(const mpz::Bigint& v,
                                                      mpz::Prng& prng) const {
  Opening o;
  o.randomness = params_.random_exponent(prng);
  o.commitment = commit(v, o.randomness);
  return o;
}

bool PedersenParams::open(const group::Element& commitment, const mpz::Bigint& v,
                          const mpz::Bigint& r) const {
  if (!params_.in_group(commitment)) return false;
  return commitment == commit(v, r);
}

group::Element PedersenParams::add(const group::Element& c1,
                                   const group::Element& c2) const {
  return params_.mul(c1, c2);
}

}  // namespace dblind::zkp

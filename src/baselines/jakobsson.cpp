#include "baselines/jakobsson.hpp"

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpz/modmath.hpp"

namespace dblind::baselines {

namespace {

std::string enc_context(std::string_view context) {
  return "dblind/jakobsson/enc/" + std::string(context);
}

std::string dec_context(std::string_view context) {
  return "dblind/jakobsson/dec/" + std::string(context);
}

}  // namespace

JakobssonPartial jakobsson_partial(const group::GroupParams& params, const elgamal::Ciphertext& c,
                                   const threshold::Share& a_share, const group::Element& y_b,
                                   std::string_view context, mpz::Prng& prng) {
  JakobssonPartial out;
  out.index = a_share.index;
  Bigint r_prime = params.random_exponent(prng);
  out.enc_g = params.pow_g(r_prime);
  out.enc_y = params.pow(y_b, r_prime);
  zkp::DlogStatement stmt{params.g(), out.enc_g, y_b, out.enc_y};
  out.enc_proof = zkp::dlog_prove(params, stmt, r_prime, enc_context(context), prng);
  out.dec = threshold::make_decryption_share(params, c, a_share, dec_context(context), prng);
  return out;
}

bool jakobsson_verify_partial(const group::GroupParams& params,
                              const threshold::FeldmanCommitments& a_commitments,
                              const elgamal::Ciphertext& c, const group::Element& y_b,
                              const JakobssonPartial& partial, std::string_view context) {
  if (partial.index == 0 || partial.index != partial.dec.index) return false;
  zkp::DlogStatement stmt{params.g(), partial.enc_g, y_b, partial.enc_y};
  if (!zkp::dlog_verify(params, stmt, partial.enc_proof, enc_context(context))) return false;
  return threshold::verify_decryption_share(params, a_commitments, c, partial.dec,
                                            dec_context(context));
}

elgamal::Ciphertext jakobsson_combine(const group::GroupParams& params,
                                      const elgamal::Ciphertext& c,
                                      std::span<const JakobssonPartial> partials) {
  if (partials.empty()) throw std::invalid_argument("jakobsson_combine: no partials");
  std::set<std::uint32_t> seen;
  std::vector<std::uint32_t> indices;
  for (const JakobssonPartial& p : partials) {
    if (!seen.insert(p.index).second)
      throw std::invalid_argument("jakobsson_combine: duplicate index");
    indices.push_back(p.index);
  }
  // a' = Π g^{r'_i},  y' = Π y_B^{r'_i},  a^{k_A} = Π d_i^{λ_i}.
  group::Element a_prime = params.identity(), y_prime = params.identity(),
                 a_ka = params.identity();
  for (const JakobssonPartial& p : partials) {
    a_prime = params.mul(a_prime, p.enc_g);
    y_prime = params.mul(y_prime, p.enc_y);
    Bigint lambda = threshold::lagrange_at_zero(indices, p.index, params.q());
    a_ka = params.mul(a_ka, params.pow(p.dec.d, lambda));
  }
  // E_B(m) = (a', b · y' / a^{k_A}) = (g^{r'}, m·y_B^{r'}).
  group::Element b_out = params.mul(c.b, params.mul(y_prime, params.inv(a_ka)));
  return {std::move(a_prime), std::move(b_out)};
}

}  // namespace dblind::baselines

#include "threshold/keygen.hpp"

#include <stdexcept>

#include "mpz/modmath.hpp"

namespace dblind::threshold {

ServiceKeyMaterial::ServiceKeyMaterial(group::GroupParams params, ServiceConfig cfg,
                                       elgamal::PublicKey pub, FeldmanCommitments commitments,
                                       std::vector<Share> shares)
    : params_(std::move(params)),
      cfg_(cfg),
      pub_(std::move(pub)),
      commitments_(std::move(commitments)),
      shares_(std::move(shares)) {
  if (shares_.size() != cfg_.n)
    throw std::invalid_argument("ServiceKeyMaterial: share count != n");
  for (std::size_t i = 0; i < shares_.size(); ++i) {
    if (shares_[i].index != i + 1)
      throw std::invalid_argument("ServiceKeyMaterial: shares must be indexed 1..n in order");
    if (!feldman_verify(params_, commitments_, shares_[i]))
      throw std::invalid_argument("ServiceKeyMaterial: share fails Feldman verification");
  }
  if (feldman_eval(params_, commitments_, 0) != pub_.y())
    throw std::invalid_argument("ServiceKeyMaterial: commitments inconsistent with public key");
}

ServiceKeyMaterial ServiceKeyMaterial::dealer_keygen(const group::GroupParams& params,
                                                     const ServiceConfig& cfg, mpz::Prng& prng) {
  if (cfg.n == 0 || cfg.f + 1 > cfg.n)
    throw std::invalid_argument("dealer_keygen: need f + 1 <= n");
  Bigint secret = params.random_exponent(prng);
  std::vector<Bigint> poly = sharing_polynomial(secret, cfg.f, params.q(), prng);
  FeldmanCommitments commitments = feldman_commit(params, poly);
  std::vector<Share> shares;
  shares.reserve(cfg.n);
  for (std::uint32_t i = 1; i <= cfg.n; ++i)
    shares.push_back({i, eval_polynomial(poly, i, params.q())});
  elgamal::PublicKey pub(params, params.pow_g(secret));
  return ServiceKeyMaterial(params, cfg, std::move(pub), std::move(commitments),
                            std::move(shares));
}

const Share& ServiceKeyMaterial::share_of(std::uint32_t index) const {
  if (index == 0 || index > shares_.size())
    throw std::out_of_range("ServiceKeyMaterial::share_of: bad index");
  return shares_[index - 1];
}

group::Element ServiceKeyMaterial::verification_key_of(std::uint32_t index) const {
  if (index == 0 || index > shares_.size())
    throw std::out_of_range("ServiceKeyMaterial::verification_key_of: bad index");
  return feldman_eval(params_, commitments_, index);
}

DkgResult run_joint_feldman_dkg(const group::GroupParams& params, const ServiceConfig& cfg,
                                mpz::Prng& prng, const std::set<std::uint32_t>& cheaters) {
  if (cfg.n == 0 || cfg.f + 1 > cfg.n)
    throw std::invalid_argument("run_joint_feldman_dkg: need f + 1 <= n");

  struct Dealer {
    std::vector<Bigint> poly;
    FeldmanCommitments commitments;
    std::vector<Share> subshares;  // subshares[i-1] sent to participant i
  };

  // Phase 1: every participant deals a random secret.
  std::vector<Dealer> dealers(cfg.n);
  for (std::uint32_t d = 1; d <= cfg.n; ++d) {
    Dealer& dealer = dealers[d - 1];
    Bigint secret = params.random_exponent(prng);
    dealer.poly = sharing_polynomial(secret, cfg.f, params.q(), prng);
    dealer.commitments = feldman_commit(params, dealer.poly);
    for (std::uint32_t i = 1; i <= cfg.n; ++i) {
      Bigint v = eval_polynomial(dealer.poly, i, params.q());
      if (cheaters.contains(d) && i != d) {
        // A cheating dealer corrupts the sub-shares it sends to others (its
        // own stays consistent, as a real attacker's would).
        v = mpz::addmod(v, Bigint(1), params.q());
      }
      dealer.subshares.push_back({i, v});
    }
  }

  // Phase 2: participants verify received sub-shares against the public
  // commitments and complain; with honest-majority quorums a single valid
  // complaint disqualifies the dealer (the complaint is publicly checkable
  // because shares are Feldman-verifiable).
  std::vector<std::uint32_t> disqualified;
  std::vector<std::uint32_t> qualified;
  for (std::uint32_t d = 1; d <= cfg.n; ++d) {
    bool ok = true;
    for (std::uint32_t i = 1; i <= cfg.n && ok; ++i) {
      ok = feldman_verify(params, dealers[d - 1].commitments, dealers[d - 1].subshares[i - 1]);
    }
    (ok ? qualified : disqualified).push_back(d);
  }
  if (qualified.size() < cfg.quorum())
    throw std::runtime_error("run_joint_feldman_dkg: too few qualified dealers");

  // Phase 3: final share of participant i is the sum over qualified dealers;
  // joint commitments are the componentwise products.
  std::vector<Share> shares;
  for (std::uint32_t i = 1; i <= cfg.n; ++i) {
    Bigint acc(0);
    for (std::uint32_t d : qualified)
      acc = mpz::addmod(acc, dealers[d - 1].subshares[i - 1].value, params.q());
    shares.push_back({i, acc});
  }
  FeldmanCommitments joint;
  joint.coefficients.assign(cfg.f + 1, params.identity());
  for (std::uint32_t d : qualified) {
    for (std::size_t j = 0; j <= cfg.f; ++j) {
      joint.coefficients[j] =
          params.mul(joint.coefficients[j], dealers[d - 1].commitments.coefficients[j]);
    }
  }

  elgamal::PublicKey pub(params, joint.coefficients[0]);
  ServiceKeyMaterial material(params, cfg, std::move(pub), std::move(joint), std::move(shares));
  return {std::move(material), std::move(disqualified)};
}

}  // namespace dblind::threshold

#include "threshold/reshare.hpp"

#include <stdexcept>

#include "mpz/modmath.hpp"

namespace dblind::threshold {

ReshareDeal reshare_deal(const group::GroupParams& params, const Share& old_share,
                         std::size_t new_n, std::size_t new_f, mpz::Prng& prng) {
  if (old_share.index == 0) throw std::invalid_argument("reshare_deal: bad dealer index");
  if (new_f + 1 > new_n) throw std::invalid_argument("reshare_deal: f' + 1 > n'");
  ReshareDeal deal;
  deal.dealer = old_share.index;
  std::vector<Bigint> poly = sharing_polynomial(old_share.value, new_f, params.q(), prng);
  deal.commitments = feldman_commit(params, poly);
  deal.subshares.reserve(new_n);
  for (std::uint32_t j = 1; j <= new_n; ++j)
    deal.subshares.push_back({j, eval_polynomial(poly, j, params.q())});
  return deal;
}

bool reshare_verify_commitments(const group::GroupParams& params,
                                const FeldmanCommitments& old_commitments,
                                const ReshareDeal& deal, std::size_t new_f) {
  if (deal.dealer == 0) return false;
  if (deal.commitments.coefficients.size() != new_f + 1) return false;
  for (const group::Element& c : deal.commitments.coefficients) {
    if (!params.in_group(c)) return false;
  }
  // The dealt constant term must be the dealer's OLD share: its commitment
  // g^{Q_i(0)} must equal the old verification key g^{s_i}.
  return deal.commitments.coefficients[0] == feldman_eval(params, old_commitments, deal.dealer);
}

bool reshare_verify_subshare(const group::GroupParams& params,
                             const FeldmanCommitments& deal_commitments, const Share& subshare) {
  if (subshare.index == 0) return false;
  if (!params.is_exponent(subshare.value)) return false;
  return feldman_verify(params, deal_commitments, subshare);
}

namespace {

std::vector<Bigint> lagrange_weights(std::span<const std::uint32_t> dealers, const Bigint& q) {
  if (dealers.empty()) throw std::invalid_argument("reshare: empty dealer quorum");
  std::set<std::uint32_t> distinct(dealers.begin(), dealers.end());
  if (distinct.size() != dealers.size() || distinct.contains(0))
    throw std::invalid_argument("reshare: dealer ranks must be distinct and nonzero");
  std::vector<Bigint> weights;
  weights.reserve(dealers.size());
  for (std::uint32_t i : dealers) weights.push_back(lagrange_at_zero(dealers, i, q));
  return weights;
}

}  // namespace

Share reshare_apply(const group::GroupParams& params, std::span<const std::uint32_t> dealers,
                    std::span<const Bigint> subs, std::uint32_t recipient) {
  if (dealers.size() != subs.size())
    throw std::invalid_argument("reshare_apply: dealer/sub-share count mismatch");
  if (recipient == 0) throw std::invalid_argument("reshare_apply: bad recipient");
  std::vector<Bigint> lambda = lagrange_weights(dealers, params.q());
  Bigint acc(0);
  for (std::size_t k = 0; k < subs.size(); ++k) {
    acc = mpz::addmod(acc, mpz::mulmod(lambda[k], subs[k], params.q()), params.q());
  }
  return {recipient, std::move(acc)};
}

FeldmanCommitments reshare_commitments(const group::GroupParams& params,
                                       std::span<const std::uint32_t> dealers,
                                       std::span<const FeldmanCommitments> deals) {
  if (dealers.size() != deals.size() || deals.empty())
    throw std::invalid_argument("reshare_commitments: dealer/deal count mismatch");
  std::vector<Bigint> lambda = lagrange_weights(dealers, params.q());
  const std::size_t degree_plus_1 = deals[0].coefficients.size();
  FeldmanCommitments out;
  out.coefficients.reserve(degree_plus_1);
  std::vector<group::Element> bases(deals.size());
  for (std::size_t k = 0; k < degree_plus_1; ++k) {
    for (std::size_t i = 0; i < deals.size(); ++i) {
      if (deals[i].coefficients.size() != degree_plus_1)
        throw std::invalid_argument("reshare_commitments: degree mismatch");
      bases[i] = deals[i].coefficients[k];
    }
    out.coefficients.push_back(params.multi_pow(bases, lambda));
  }
  return out;
}

ServiceKeyMaterial reshare_service(const ServiceKeyMaterial& old_material,
                                   const ServiceConfig& new_cfg, mpz::Prng& prng,
                                   const std::set<std::uint32_t>& dealers) {
  const group::GroupParams& params = old_material.params();
  const ServiceConfig& old_cfg = old_material.config();

  std::set<std::uint32_t> who = dealers;
  if (who.empty()) {
    for (std::uint32_t d = 1; d <= old_cfg.quorum(); ++d) who.insert(d);
  }
  if (who.size() < old_cfg.quorum())
    throw std::invalid_argument("reshare_service: dealer quorum below old threshold");

  std::vector<std::uint32_t> ranks(who.begin(), who.end());
  std::vector<ReshareDeal> deals;
  deals.reserve(ranks.size());
  for (std::uint32_t d : ranks) {
    deals.push_back(
        reshare_deal(params, old_material.share_of(d), new_cfg.n, new_cfg.f, prng));
  }

  std::vector<FeldmanCommitments> deal_commits;
  deal_commits.reserve(deals.size());
  for (const ReshareDeal& d : deals) {
    if (!reshare_verify_commitments(params, old_material.commitments(), d, new_cfg.f))
      throw std::runtime_error("reshare_service: deal commitment verification failed");
    for (const Share& sub : d.subshares) {
      if (!reshare_verify_subshare(params, d.commitments, sub))
        throw std::runtime_error("reshare_service: sub-share verification failed");
    }
    deal_commits.push_back(d.commitments);
  }

  std::vector<Share> new_shares;
  new_shares.reserve(new_cfg.n);
  std::vector<Bigint> subs(deals.size());
  for (std::uint32_t j = 1; j <= new_cfg.n; ++j) {
    for (std::size_t k = 0; k < deals.size(); ++k) subs[k] = deals[k].subshares[j - 1].value;
    new_shares.push_back(reshare_apply(params, ranks, subs, j));
  }
  FeldmanCommitments new_commitments = reshare_commitments(params, ranks, deal_commits);

  return ServiceKeyMaterial(params, new_cfg, old_material.public_key(),
                            std::move(new_commitments), std::move(new_shares));
}

}  // namespace dblind::threshold

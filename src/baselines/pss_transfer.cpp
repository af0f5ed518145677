#include "baselines/pss_transfer.hpp"

#include <stdexcept>

#include "threshold/reshare.hpp"

namespace dblind::baselines {

PssTransferResult pss_transfer(const group::GroupParams& params,
                               std::span<const threshold::Share> a_quorum,
                               const threshold::FeldmanCommitments& a_commitments,
                               std::size_t n_b, std::size_t f_b, mpz::Prng& prng) {
  PssTransferResult out;
  std::vector<std::uint32_t> dealers;
  std::vector<threshold::ReshareDeal> deals;
  std::vector<threshold::FeldmanCommitments> deal_commitments;
  dealers.reserve(a_quorum.size());
  deals.reserve(a_quorum.size());
  deal_commitments.reserve(a_quorum.size());
  for (const threshold::Share& s : a_quorum) {
    dealers.push_back(s.index);
    deals.push_back(threshold::reshare_deal(params, s, n_b, f_b, prng));
    if (!threshold::reshare_verify_commitments(params, a_commitments, deals.back(), f_b))
      throw std::runtime_error("pss_transfer: deal commitment verification failed");
    deal_commitments.push_back(deals.back().commitments);
  }
  // Every sub-share travels on its own pairwise-secure link (this is the
  // structural drawback §5 notes: every A server needs a secure channel to
  // every B server, so server keys must be visible across services).
  const std::size_t elem = params.element_size();
  out.messages = a_quorum.size() * n_b;
  out.bytes = out.messages * (elem /*sub-share*/ + (f_b + 1) * elem /*commitments*/);

  std::vector<mpz::Bigint> subs(deals.size());
  for (std::uint32_t j = 1; j <= n_b; ++j) {
    for (std::size_t k = 0; k < deals.size(); ++k) {
      const threshold::Share& sub = deals[k].subshares[j - 1];
      if (!threshold::reshare_verify_subshare(params, deals[k].commitments, sub))
        throw std::runtime_error("pss_transfer: sub-share verification failed");
      subs[k] = sub.value;
    }
    out.b_shares.push_back(threshold::reshare_apply(params, dealers, subs, j));
  }
  out.b_commitments = threshold::reshare_commitments(params, dealers, deal_commitments);
  return out;
}

}  // namespace dblind::baselines

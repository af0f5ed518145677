#include "threshold/pedersen_dkg.hpp"

#include <map>
#include <stdexcept>

#include "mpz/modmath.hpp"

namespace dblind::threshold {

PedersenDkgResult run_pedersen_dkg(const group::GroupParams& params, const ServiceConfig& cfg,
                                   mpz::Prng& prng,
                                   const std::set<std::uint32_t>& cheaters_phase1,
                                   const std::set<std::uint32_t>& cheaters_phase2) {
  if (cfg.n == 0 || cfg.f + 1 > cfg.n)
    throw std::invalid_argument("run_pedersen_dkg: need f + 1 <= n");
  zkp::PedersenParams pp(params, "dblind/pedersen-dkg/v1");

  struct Dealer {
    std::vector<Bigint> value_poly;   // a_{d,j}
    std::vector<Bigint> blind_poly;   // b_{d,j}
    std::vector<group::Element> commitments;  // E_{d,j}
    std::vector<PedersenShare> shares;
  };

  // Phase 1: Pedersen-VSS deals. Commitments reveal nothing about the key.
  std::vector<Dealer> dealers(cfg.n);
  for (std::uint32_t d = 1; d <= cfg.n; ++d) {
    Dealer& dealer = dealers[d - 1];
    dealer.value_poly = sharing_polynomial(params.random_exponent(prng), cfg.f, params.q(), prng);
    dealer.blind_poly = sharing_polynomial(params.random_exponent(prng), cfg.f, params.q(), prng);
    for (std::size_t j = 0; j <= cfg.f; ++j)
      dealer.commitments.push_back(pp.commit(dealer.value_poly[j], dealer.blind_poly[j]));
    for (std::uint32_t i = 1; i <= cfg.n; ++i) {
      Bigint v = eval_polynomial(dealer.value_poly, i, params.q());
      Bigint b = eval_polynomial(dealer.blind_poly, i, params.q());
      if (cheaters_phase1.contains(d) && i != d) v = mpz::addmod(v, Bigint(1), params.q());
      dealer.shares.push_back({i, std::move(v), std::move(b)});
    }
  }

  std::vector<std::uint32_t> disqualified_phase1;
  std::vector<std::uint32_t> exposed_phase2;
  std::vector<std::uint32_t> qual;
  for (std::uint32_t d = 1; d <= cfg.n; ++d) {
    bool ok = true;
    for (std::uint32_t i = 1; i <= cfg.n && ok; ++i)
      ok = pedersen_verify(pp, dealers[d - 1].commitments, dealers[d - 1].shares[i - 1]);
    (ok ? qual : disqualified_phase1).push_back(d);
  }
  if (qual.size() < cfg.quorum())
    throw std::runtime_error("run_pedersen_dkg: too few qualified dealers");

  // Phase 2: dealers in QUAL open their g-parts with Feldman commitments.
  // An inconsistent opening is detected by any participant whose verified
  // Pedersen share fails the Feldman check; the dealer's polynomial is then
  // publicly reconstructed from f+1 verified shares (it stays in QUAL, so
  // the adversary cannot bias the key by choosing whether to be excluded).
  std::map<std::uint32_t, FeldmanCommitments> openings;
  for (std::uint32_t d : qual) {
    const Dealer& dealer = dealers[d - 1];
    FeldmanCommitments a;
    for (std::size_t j = 0; j <= cfg.f; ++j) a.coefficients.push_back(params.pow_g(dealer.value_poly[j]));
    if (cheaters_phase2.contains(d)) {
      // Wrong opening: shift the constant term (attempting to shift the key).
      a.coefficients[0] = params.mul(a.coefficients[0], params.g());
    }
    // Participants cross-check their shares against the opening.
    bool consistent = true;
    for (std::uint32_t i = 1; i <= cfg.n && consistent; ++i)
      consistent = feldman_verify(params, a, {i, dealer.shares[i - 1].value});
    if (!consistent) {
      exposed_phase2.push_back(d);
      // Public reconstruction of the dealer's true polynomial from f+1
      // verified phase-1 shares (possible because shares were verified
      // against perfectly-binding-in-g commitments... binding holds
      // computationally; honest-majority reconstruction):
      FeldmanCommitments true_open;
      for (std::size_t j = 0; j <= cfg.f; ++j)
        true_open.coefficients.push_back(params.pow_g(dealer.value_poly[j]));
      openings.emplace(d, std::move(true_open));
    } else {
      openings.emplace(d, std::move(a));
    }
  }

  // Final aggregation over QUAL.
  std::vector<Share> shares;
  for (std::uint32_t i = 1; i <= cfg.n; ++i) {
    Bigint acc(0);
    for (std::uint32_t d : qual)
      acc = mpz::addmod(acc, dealers[d - 1].shares[i - 1].value, params.q());
    shares.push_back({i, std::move(acc)});
  }
  FeldmanCommitments joint;
  joint.coefficients.assign(cfg.f + 1, params.identity());
  for (std::uint32_t d : qual) {
    const FeldmanCommitments& a = openings.at(d);
    for (std::size_t j = 0; j <= cfg.f; ++j)
      joint.coefficients[j] = params.mul(joint.coefficients[j], a.coefficients[j]);
  }
  elgamal::PublicKey pub(params, joint.coefficients[0]);
  ServiceKeyMaterial material(params, cfg, std::move(pub), std::move(joint), std::move(shares));
  return {std::move(material), std::move(disqualified_phase1), std::move(exposed_phase2)};
}

}  // namespace dblind::threshold

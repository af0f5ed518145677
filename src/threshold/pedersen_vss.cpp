#include "threshold/pedersen_vss.hpp"

#include <set>
#include <stdexcept>

#include "mpz/modmath.hpp"

namespace dblind::threshold {

PedersenDeal pedersen_share(const zkp::PedersenParams& pp, const Bigint& secret, std::size_t n,
                            std::size_t f, mpz::Prng& prng) {
  if (n == 0 || f + 1 > n) throw std::invalid_argument("pedersen_share: need f + 1 <= n");
  const group::GroupParams& gp = pp.group();
  std::vector<Bigint> value_poly = sharing_polynomial(secret, f, gp.q(), prng);
  std::vector<Bigint> blind_poly =
      sharing_polynomial(gp.random_exponent(prng), f, gp.q(), prng);

  PedersenDeal deal;
  deal.commitments.reserve(f + 1);
  for (std::size_t j = 0; j <= f; ++j)
    deal.commitments.push_back(pp.commit(value_poly[j], blind_poly[j]));
  deal.shares.reserve(n);
  for (std::uint32_t i = 1; i <= n; ++i) {
    deal.shares.push_back({i, eval_polynomial(value_poly, i, gp.q()),
                           eval_polynomial(blind_poly, i, gp.q())});
  }
  return deal;
}

bool pedersen_verify(const zkp::PedersenParams& pp, std::span<const group::Element> commitments,
                     const PedersenShare& share) {
  if (share.index == 0 || commitments.empty()) return false;
  const group::GroupParams& gp = pp.group();
  if (share.value.is_negative() || share.value >= gp.q()) return false;
  if (share.blinding.is_negative() || share.blinding >= gp.q()) return false;
  // Π E_j^{i^j} computed Horner-style in the exponent.
  group::Element acc = commitments.back();
  Bigint iv(static_cast<std::uint64_t>(share.index));
  for (std::size_t j = commitments.size() - 1; j-- > 0;) {
    acc = gp.mul(gp.pow(acc, iv), commitments[j]);
  }
  return pp.commit(share.value, share.blinding) == acc;
}

Bigint pedersen_reconstruct(const zkp::PedersenParams& pp,
                            std::span<const PedersenShare> shares) {
  if (shares.empty()) throw std::invalid_argument("pedersen_reconstruct: no shares");
  const Bigint& q = pp.group().q();
  std::vector<std::uint32_t> indices;
  std::set<std::uint32_t> seen;
  for (const PedersenShare& s : shares) {
    if (!seen.insert(s.index).second)
      throw std::invalid_argument("pedersen_reconstruct: duplicate index");
    indices.push_back(s.index);
  }
  Bigint acc(0);
  for (const PedersenShare& s : shares) {
    Bigint lambda = lagrange_at_zero(indices, s.index, q);
    acc = mpz::addmod(acc, mpz::mulmod(lambda, s.value, q), q);
  }
  return acc;
}

}  // namespace dblind::threshold

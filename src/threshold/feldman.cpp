#include "threshold/feldman.hpp"

#include <stdexcept>

#include "mpz/modmath.hpp"

namespace dblind::threshold {

FeldmanCommitments feldman_commit(const group::GroupParams& params,
                                  std::span<const Bigint> poly_coeffs) {
  if (poly_coeffs.empty()) throw std::invalid_argument("feldman_commit: no coefficients");
  FeldmanCommitments out;
  out.coefficients.reserve(poly_coeffs.size());
  for (const Bigint& a : poly_coeffs) out.coefficients.push_back(params.pow_g(a));
  return out;
}

group::Element feldman_eval(const group::GroupParams& params, const FeldmanCommitments& c,
                            std::uint32_t index) {
  if (c.coefficients.empty()) throw std::invalid_argument("feldman_eval: empty commitments");
  // Π_j C_j^{i^j} evaluated Horner-style in the exponent:
  // acc = C_d; acc = acc^i * C_{d-1}; ...
  group::Element acc = c.coefficients.back();
  Bigint iv(static_cast<std::uint64_t>(index));
  for (std::size_t j = c.coefficients.size() - 1; j-- > 0;) {
    acc = params.mul(params.pow(acc, iv), c.coefficients[j]);
  }
  return acc;
}

bool feldman_verify(const group::GroupParams& params, const FeldmanCommitments& c,
                    const Share& share) {
  if (share.index == 0) return false;
  if (share.value.is_negative() || share.value >= params.q()) return false;
  return params.pow_g(share.value) == feldman_eval(params, c, share.index);
}

}  // namespace dblind::threshold

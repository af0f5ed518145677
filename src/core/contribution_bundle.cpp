#include "core/contribution_bundle.hpp"

namespace dblind::core {

ContributionBundle make_contribution_bundle(const SystemConfig& cfg, mpz::Prng& prng) {
  const group::GroupParams& gp = cfg.params;
  ContributionBundle b;
  b.rho = gp.random_element(prng);
  b.r1 = gp.random_exponent(prng);
  b.r2 = gp.random_exponent(prng);
  b.ea = cfg.a.encryption_key.encrypt_with_nonce(b.rho, b.r1);
  b.eb = cfg.b.encryption_key.encrypt_with_nonce(b.rho, b.r2);
  b.vde = zkp::vde_prove_offline(cfg.a.encryption_key, b.ea, b.r1, cfg.b.encryption_key, b.eb,
                                 b.r2, prng);
  return b;
}

}  // namespace dblind::core

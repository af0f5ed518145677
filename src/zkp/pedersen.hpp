// Pedersen commitments over the safe-prime group.
//
// C = g^v · h^r where h = hash_to_group(domain) has unknown discrete log
// w.r.t. g. Perfectly hiding (any C is consistent with any v) and
// computationally binding (opening two values implies log_g h). Paper ref
// [30]; used here by the Pedersen-VSS extension (threshold/pedersen_vss.*),
// which removes Feldman's g^{a_j} leakage of the shared polynomial in the
// exponent.
#pragma once

#include <string_view>

#include "group/params.hpp"
#include "mpz/random.hpp"

namespace dblind::zkp {

class PedersenParams {
 public:
  // Derives the second base h from `domain`; different domains give
  // independent commitment schemes.
  PedersenParams(group::GroupParams params, std::string_view domain);

  [[nodiscard]] const group::GroupParams& group() const { return params_; }
  [[nodiscard]] const group::Element& h() const { return h_; }

  // C = g^v · h^r; v, r taken mod q.
  [[nodiscard]] group::Element commit(const mpz::Bigint& v, const mpz::Bigint& r) const;
  // Commitment with fresh randomness; returns {C, r}.
  struct Opening {
    group::Element commitment;
    mpz::Bigint randomness;
  };
  [[nodiscard]] Opening commit_random(const mpz::Bigint& v, mpz::Prng& prng) const;
  // Checks C == g^v · h^r.
  [[nodiscard]] bool open(const group::Element& commitment, const mpz::Bigint& v,
                          const mpz::Bigint& r) const;

  // Homomorphism: commit(v1, r1) * commit(v2, r2) == commit(v1+v2, r1+r2).
  [[nodiscard]] group::Element add(const group::Element& c1, const group::Element& c2) const;

 private:
  group::GroupParams params_;
  group::Element h_;
};

}  // namespace dblind::zkp

#include "zkp/chaum_pedersen.hpp"

#include <array>
#include <stdexcept>

#include "mpz/modmath.hpp"
#include "zkp/transcript.hpp"

namespace dblind::zkp {

Bigint cp_challenge(const GroupParams& params, const DlogStatement& stmt, const Bigint& t1,
                    const Bigint& t2, std::string_view context) {
  Transcript t("dblind/chaum-pedersen/v1");
  t.absorb_str(context);
  t.absorb(params.p()).absorb(params.q());
  t.absorb(stmt.base1).absorb(stmt.x).absorb(stmt.base2).absorb(stmt.z);
  t.absorb(t1).absorb(t2);
  return t.challenge(params.q());
}

DlogAnnouncement dlog_announce(const GroupParams& params, const DlogStatement& stmt,
                               const Bigint& a, mpz::Prng& prng) {
  Bigint a_red = mpz::mod(a, params.q());
  if (params.pow_fixed(stmt.base1, a_red) != stmt.x ||
      params.pow_fixed(stmt.base2, a_red) != stmt.z)
    throw std::invalid_argument("dlog_prove: witness does not satisfy statement");
  DlogAnnouncement ann;
  ann.w = params.random_exponent(prng);
  ann.t1 = params.pow_fixed(stmt.base1, ann.w);
  ann.t2 = params.pow_fixed(stmt.base2, ann.w);
  return ann;
}

DlogEqProof dlog_finish(const GroupParams& params, const DlogStatement& stmt,
                        const DlogAnnouncement& ann, const Bigint& a,
                        std::string_view context) {
  DlogEqProof proof;
  proof.t1 = ann.t1;
  proof.t2 = ann.t2;
  Bigint e = cp_challenge(params, stmt, proof.t1, proof.t2, context);
  proof.s = mpz::addmod(ann.w, mpz::mulmod(e, mpz::mod(a, params.q()), params.q()),
                        params.q());
  return proof;
}

DlogEqProof dlog_prove(const GroupParams& params, const DlogStatement& stmt, const Bigint& a,
                       std::string_view context, mpz::Prng& prng) {
  return dlog_finish(params, stmt, dlog_announce(params, stmt, a, prng), a, context);
}

bool dlog_verify(const GroupParams& params, const DlogStatement& stmt, const DlogEqProof& proof,
                 std::string_view context) {
  // All statement and commitment elements must live in the prime-order
  // subgroup, otherwise the soundness argument does not apply.
  for (const Element* v : {&stmt.base1, &stmt.x, &stmt.base2, &stmt.z, &proof.t1, &proof.t2}) {
    if (!params.in_group(*v)) return false;
  }
  if (proof.s.is_negative() || proof.s >= params.q()) return false;
  Bigint e = cp_challenge(params, stmt, proof.t1, proof.t2, context);
  // base1^s == t1 * x^e  and  base2^s == t2 * z^e. Each side is evaluated as
  // one double exponentiation (Shamir's trick): base^s * x^{-e} == t1 with
  // x^{-e} folded in as x^{q-e}, compared without encoding it.
  const std::array<Bigint, 2> exps = {proof.s, mpz::submod(Bigint(0), e, params.q())};
  const std::array<Element, 2> lhs1 = {stmt.base1, stmt.x};
  const std::array<Element, 2> lhs2 = {stmt.base2, stmt.z};
  return params.multi_pow_equals(lhs1, exps, proof.t1) &&
         params.multi_pow_equals(lhs2, exps, proof.t2);
}

}  // namespace dblind::zkp

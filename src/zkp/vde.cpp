#include "zkp/vde.hpp"

#include <stdexcept>
#include <string>

#include "mpz/modmath.hpp"

namespace dblind::zkp {

namespace {

// Per-subproof context strings; each also carries the caller's context so
// subproofs cannot be mixed and matched across VDE instances.
std::string sub_context(std::string_view context, std::string_view which) {
  std::string out = "dblind/vde/v1/";
  out += which;
  out += '/';
  out += context;
  return out;
}

struct DerivedStatements {
  DlogStatement pr1;  // G12 = y_A^{r2}
  DlogStatement pr2;  // G21 = y_B^{r1}
  DlogStatement pr3;  // (γ1/γ2)(G21/G12) = (y_A y_B)^{r1-r2}
};

DerivedStatements derive(const elgamal::PublicKey& ka, const elgamal::Ciphertext& ca,
                         const elgamal::PublicKey& kb, const elgamal::Ciphertext& cb,
                         const Element& g12, const Element& g21) {
  const group::GroupParams& params = ka.params();
  DerivedStatements d;
  // Pr1: DLOG(r2, g, δ2, y_A, G12)
  d.pr1 = {params.g(), cb.a, ka.y(), g12};
  // Pr2: DLOG(r1, g, δ1, y_B, G21)
  d.pr2 = {params.g(), ca.a, kb.y(), g21};
  // Pr3: DLOG(r1-r2, g, δ1/δ2, y_A*y_B, (γ1/γ2)(G21/G12))
  Element x = params.mul(ca.a, params.inv(cb.a));
  Element base2 = params.mul(ka.y(), kb.y());
  Element z = params.mul(params.mul(ca.b, params.inv(cb.b)), params.mul(g21, params.inv(g12)));
  d.pr3 = {params.g(), std::move(x), std::move(base2), std::move(z)};
  return d;
}

}  // namespace

VdeOffline vde_prove_offline(const elgamal::PublicKey& ka, const elgamal::Ciphertext& ca,
                             const Bigint& r1, const elgamal::PublicKey& kb,
                             const elgamal::Ciphertext& cb, const Bigint& r2,
                             mpz::Prng& prng) {
  const group::GroupParams& params = ka.params();
  if (!(ka.params() == kb.params()))
    throw std::invalid_argument("vde_prove: keys use different group parameters");

  VdeOffline off;
  off.g12 = params.pow_fixed(ka.y(), r2);
  off.g21 = params.pow_fixed(kb.y(), r1);
  DerivedStatements d = derive(ka, ca, kb, cb, off.g12, off.g21);
  Bigint r_diff = mpz::submod(r1, r2, params.q());
  off.a1 = dlog_announce(params, d.pr1, r2, prng);
  off.a2 = dlog_announce(params, d.pr2, r1, prng);
  off.a3 = dlog_announce(params, d.pr3, r_diff, prng);
  return off;
}

VdeProof vde_prove_online(const elgamal::PublicKey& ka, const elgamal::Ciphertext& ca,
                          const Bigint& r1, const elgamal::PublicKey& kb,
                          const elgamal::Ciphertext& cb, const Bigint& r2,
                          const VdeOffline& offline, std::string_view context) {
  const group::GroupParams& params = ka.params();
  VdeProof proof;
  proof.g12 = offline.g12;
  proof.g21 = offline.g21;
  // Re-deriving the statements costs a few modular multiplications and
  // inversions — no exponentiations. The challenges hash the same statement
  // elements the one-shot prover hashes, so the verifier sees no difference.
  DerivedStatements d = derive(ka, ca, kb, cb, proof.g12, proof.g21);
  Bigint r_diff = mpz::submod(r1, r2, params.q());
  proof.pr1 = dlog_finish(params, d.pr1, offline.a1, r2, sub_context(context, "pr1"));
  proof.pr2 = dlog_finish(params, d.pr2, offline.a2, r1, sub_context(context, "pr2"));
  proof.pr3 = dlog_finish(params, d.pr3, offline.a3, r_diff, sub_context(context, "pr3"));
  return proof;
}

VdeProof vde_prove(const elgamal::PublicKey& ka, const elgamal::Ciphertext& ca, const Bigint& r1,
                   const elgamal::PublicKey& kb, const elgamal::Ciphertext& cb, const Bigint& r2,
                   std::string_view context, mpz::Prng& prng) {
  return vde_prove_online(ka, ca, r1, kb, cb, r2,
                          vde_prove_offline(ka, ca, r1, kb, cb, r2, prng), context);
}

bool vde_verify(const elgamal::PublicKey& ka, const elgamal::Ciphertext& ca,
                const elgamal::PublicKey& kb, const elgamal::Ciphertext& cb,
                const VdeProof& proof, std::string_view context) {
  if (!(ka.params() == kb.params())) return false;
  const group::GroupParams& params = ka.params();
  // Every ciphertext component must be in the prime-order subgroup: honest
  // contributions encrypt ρ ∈ G_p, and the quotient-based conditions (3)-(5)
  // are only sound inside the subgroup.
  for (const Element* v : {&ca.a, &ca.b, &cb.a, &cb.b, &proof.g12, &proof.g21}) {
    if (!params.in_group(*v)) return false;
  }
  DerivedStatements d = derive(ka, ca, kb, cb, proof.g12, proof.g21);
  return dlog_verify(params, d.pr1, proof.pr1, sub_context(context, "pr1")) &&
         dlog_verify(params, d.pr2, proof.pr2, sub_context(context, "pr2")) &&
         dlog_verify(params, d.pr3, proof.pr3, sub_context(context, "pr3"));
}

bool vde_lower_to_cp(const group::GroupParams& params, const VdeBatchItem& item,
                     std::vector<CpBatchItem>& out) {
  // Mirror vde_verify's structural gate per item before anything is folded
  // into a combined equation.
  if (!(item.ka->params() == params) || !(item.kb->params() == params)) return false;
  for (const Element* v :
       {&item.ca->a, &item.ca->b, &item.cb->a, &item.cb->b, &item.proof->g12, &item.proof->g21}) {
    if (!params.in_group(*v)) return false;
  }
  DerivedStatements d =
      derive(*item.ka, *item.ca, *item.kb, *item.cb, item.proof->g12, item.proof->g21);
  out.push_back({std::move(d.pr1), item.proof->pr1, sub_context(item.context, "pr1")});
  out.push_back({std::move(d.pr2), item.proof->pr2, sub_context(item.context, "pr2")});
  out.push_back({std::move(d.pr3), item.proof->pr3, sub_context(item.context, "pr3")});
  return true;
}

bool vde_batch_verify(std::span<const VdeBatchItem> items, mpz::Prng& prng) {
  if (items.empty()) return true;
  const group::GroupParams& params = items.front().ka->params();
  std::vector<CpBatchItem> cp;
  cp.reserve(3 * items.size());
  for (const VdeBatchItem& it : items) {
    if (!vde_lower_to_cp(params, it, cp)) return false;
  }
  return cp_batch_verify(params, cp, prng);
}

}  // namespace dblind::zkp

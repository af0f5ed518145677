#include "zkp/batch.hpp"

#include <map>
#include <vector>

#include "mpz/modmath.hpp"

namespace dblind::zkp {

namespace {

// Accumulates base → exponent (mod q) pairs, merging repeated bases. The
// verification equations share many bases (g appears in every item, service
// keys and ciphertext components repeat across a quorum), so merging shrinks
// the final multi-exponentiation considerably.
class ExpAccumulator {
 public:
  explicit ExpAccumulator(const GroupParams& params) : params_(params) {}

  void add(const Element& base, const Bigint& exp) {
    if (exp.is_zero()) return;
    auto [it, fresh] = terms_.try_emplace(base, exp);
    if (!fresh) it->second = mpz::addmod(it->second, exp, params_.q());
  }

  // Π base^exp == 1, without encoding the product (mod-p routes g through
  // its fixed-base table; see GroupParams::multi_pow_equals).
  [[nodiscard]] bool is_identity() const {
    std::vector<Element> bases;
    std::vector<Bigint> exps;
    bases.reserve(terms_.size());
    exps.reserve(terms_.size());
    for (const auto& [base, exp] : terms_) {
      bases.push_back(base);
      exps.push_back(exp);
    }
    return params_.multi_pow_equals(bases, exps, params_.identity());
  }

 private:
  const GroupParams& params_;
  std::map<Element, Bigint> terms_;
};

bool cp_batch_verify_impl(const GroupParams& params, std::span<const CpBatchItem> items,
                          mpz::Prng& prng) {
  if (items.empty()) return true;
  const Bigint& q = params.q();
  // Randomizers below min(2^128, q): drawing below q directly (toy groups)
  // keeps them nonzero mod q, so no equation can silently drop out.
  Bigint bound = Bigint(1).shl(kBatchRandomizerBits);
  if (q < bound) bound = q;

  ExpAccumulator acc(params);
  for (const CpBatchItem& item : items) {
    const DlogStatement& stmt = item.stmt;
    const DlogEqProof& proof = item.proof;
    // Same structural gate as dlog_verify; done per item so a value outside
    // the subgroup is rejected unconditionally, not probabilistically.
    for (const Element* v : {&stmt.base1, &stmt.x, &stmt.base2, &stmt.z, &proof.t1, &proof.t2}) {
      if (!params.in_group(*v)) return false;
    }
    if (proof.s.is_negative() || proof.s >= q) return false;

    Bigint e = cp_challenge(params, stmt, proof.t1, proof.t2, item.context);
    Bigint c1 = prng.uniform_nonzero_below(bound);
    Bigint c2 = prng.uniform_nonzero_below(bound);
    // base1^s == t1·x^e scaled by c1:  base1^{c1·s} · x^{-c1·e} · t1^{-c1}.
    acc.add(stmt.base1, mpz::mulmod(c1, proof.s, q));
    acc.add(stmt.x, mpz::submod(Bigint(0), mpz::mulmod(c1, e, q), q));
    acc.add(proof.t1, mpz::submod(Bigint(0), c1, q));
    // base2^s == t2·z^e scaled by c2.
    acc.add(stmt.base2, mpz::mulmod(c2, proof.s, q));
    acc.add(stmt.z, mpz::submod(Bigint(0), mpz::mulmod(c2, e, q), q));
    acc.add(proof.t2, mpz::submod(Bigint(0), c2, q));
  }
  return acc.is_identity();
}

}  // namespace

BatchVerifyCounts& batch_verify_counts() {
  static BatchVerifyCounts counts;
  return counts;
}

bool cp_batch_verify(const GroupParams& params, std::span<const CpBatchItem> items,
                     mpz::Prng& prng) {
  BatchVerifyCounts& bc = batch_verify_counts();
  bc.combined.fetch_add(1, std::memory_order_relaxed);
  const bool ok = cp_batch_verify_impl(params, items, prng);
  if (!ok) bc.rejected.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

}  // namespace dblind::zkp

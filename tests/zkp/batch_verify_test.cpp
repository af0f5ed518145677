// Adversarial soundness tests for random-linear-combination batch
// verification (PR 3 satellite).
//
// The batch verifiers must agree with per-proof verification on every input a
// Byzantine server could craft: each single-proof mutation (tampered
// commitment, response, statement element, wrong key, proofs swapped between
// statements) has to make the whole batch reject, while one-at-a-time
// verification fails exactly the mutated items. Mutations are swept across many seeds so a
// lucky randomizer cancellation (probability 2^-min(128,|q|) per run) would
// have to repeat dozens of times to slip through.
#include "zkp/batch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mpz/modmath.hpp"
#include "threshold/thresh_decrypt.hpp"
#include "zkp/vde.hpp"

namespace dblind::zkp {
namespace {

using elgamal::Ciphertext;
using elgamal::KeyPair;
using group::GroupParams;
using group::ParamId;
using mpz::Bigint;
using mpz::Prng;

GroupParams toy() { return GroupParams::named(ParamId::kToy64); }

CpBatchItem make_item(const GroupParams& gp, Prng& prng, const std::string& ctx) {
  Bigint a = gp.random_exponent(prng);
  Bigint y = gp.random_element(prng);
  DlogStatement stmt = {gp.g(), gp.pow_g(a), y, gp.pow(y, a)};
  DlogEqProof proof = dlog_prove(gp, stmt, a, ctx, prng);
  return {stmt, proof, ctx};
}

std::vector<CpBatchItem> make_batch(const GroupParams& gp, Prng& prng, std::size_t k) {
  std::vector<CpBatchItem> items;
  for (std::size_t i = 0; i < k; ++i) {
    items.push_back(make_item(gp, prng, "batch-ctx-" + std::to_string(i)));
  }
  return items;
}

// The indices of the items dlog_verify rejects one at a time.
std::vector<std::size_t> failing(const GroupParams& gp, const std::vector<CpBatchItem>& items) {
  std::vector<std::size_t> bad;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!dlog_verify(gp, items[i].stmt, items[i].proof, items[i].context)) bad.push_back(i);
  }
  return bad;
}

TEST(CpBatch, ValidBatchesAccept) {
  GroupParams gp = toy();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Prng prng(seed);
    for (std::size_t k : {0u, 1u, 2u, 5u, 16u}) {
      auto items = make_batch(gp, prng, k);
      Prng vr = prng.fork("verify");
      EXPECT_TRUE(cp_batch_verify(gp, items, vr)) << "seed=" << seed << " k=" << k;
      EXPECT_TRUE(failing(gp, items).empty());
    }
  }
}

// One mutation per run, swept over >= 50 seeds; each must reject the batch,
// and dlog_verify must reject exactly the mutated item.
TEST(CpBatch, EverySingleProofMutationRejectedAcrossSeeds) {
  GroupParams gp = toy();
  // Mutations applied to items[target] of a 5-item batch.
  const auto mutations = std::vector<void (*)(const GroupParams&, CpBatchItem&)>{
      // Tampered commitments.
      [](const GroupParams& g, CpBatchItem& it) { it.proof.t1 = g.mul(it.proof.t1, g.g()); },
      [](const GroupParams& g, CpBatchItem& it) { it.proof.t2 = g.mul(it.proof.t2, g.g()); },
      // Tampered response.
      [](const GroupParams& g, CpBatchItem& it) {
        it.proof.s = mpz::addmod(it.proof.s, Bigint(1), g.q());
      },
      // Tampered statement elements (x, z, and the second base).
      [](const GroupParams& g, CpBatchItem& it) { it.stmt.x = g.mul(it.stmt.x, g.g()); },
      [](const GroupParams& g, CpBatchItem& it) { it.stmt.z = g.mul(it.stmt.z, g.g()); },
      [](const GroupParams& g, CpBatchItem& it) { it.stmt.base2 = g.mul(it.stmt.base2, g.g()); },
      // Wrong Fiat-Shamir context (proof bound to another session).
      [](const GroupParams&, CpBatchItem& it) { it.context += "-evil"; },
      // Structural garbage: non-residue commitment, out-of-range response.
      [](const GroupParams& g, CpBatchItem& it) { it.proof.t1 = g.p() - Bigint(1); },
      [](const GroupParams& g, CpBatchItem& it) { it.proof.s = g.q(); },
  };

  for (std::uint64_t seed = 1; seed <= 54; ++seed) {
    Prng prng(seed);
    auto clean = make_batch(gp, prng, 5);
    std::size_t target = seed % clean.size();
    std::size_t mi = seed % mutations.size();
    auto items = clean;
    mutations[mi](gp, items[target]);

    Prng vr = prng.fork("verify");
    EXPECT_FALSE(cp_batch_verify(gp, items, vr))
        << "seed=" << seed << " mutation=" << mi << " target=" << target;
    EXPECT_EQ(failing(gp, items), (std::vector<std::size_t>{target}))
        << "seed=" << seed << " mutation=" << mi;
  }
}

TEST(CpBatch, SwappedProofsBetweenStatementsRejected) {
  GroupParams gp = toy();
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Prng prng(seed + 1000);
    auto items = make_batch(gp, prng, 4);
    // Items 1 and 2 share a context; both statements and both proofs are
    // honest, but the proofs are crossed between the statements.
    CpBatchItem a = make_item(gp, prng, "shared");
    CpBatchItem b = make_item(gp, prng, "shared");
    std::swap(a.proof, b.proof);
    items[1] = a;
    items[2] = b;

    Prng vr = prng.fork("verify");
    EXPECT_FALSE(cp_batch_verify(gp, items, vr)) << seed;
    EXPECT_EQ(failing(gp, items), (std::vector<std::size_t>{1, 2})) << seed;
  }
}

TEST(CpBatch, MultipleCulpritsAllIdentified) {
  GroupParams gp = toy();
  Prng prng(77);
  auto items = make_batch(gp, prng, 8);
  for (std::size_t i : {std::size_t{0}, std::size_t{3}, std::size_t{7}}) {
    items[i].proof.s = mpz::addmod(items[i].proof.s, Bigint(1), gp.q());
  }
  Prng vr = prng.fork("verify");
  EXPECT_FALSE(cp_batch_verify(gp, items, vr));
  EXPECT_EQ(failing(gp, items), (std::vector<std::size_t>{0, 3, 7}));
}

// Batch accept/reject must agree with serial verification on random mixes of
// valid and mutated proofs — the equivalence the protocol layer relies on.
TEST(CpBatch, AgreesWithSerialVerificationOnRandomMixes) {
  GroupParams gp = toy();
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Prng prng(seed + 5000);
    auto items = make_batch(gp, prng, 6);
    bool any_bad = false;
    for (auto& it : items) {
      if (prng.uniform_u64(3) == 0) {
        it.proof.t2 = gp.mul(it.proof.t2, gp.g());
        any_bad = true;
      }
    }
    bool serial_ok = true;
    for (const auto& it : items) {
      serial_ok = serial_ok && dlog_verify(gp, it.stmt, it.proof, it.context);
    }
    EXPECT_EQ(serial_ok, !any_bad);
    Prng vr = prng.fork("verify");
    EXPECT_EQ(cp_batch_verify(gp, items, vr), serial_ok) << seed;
  }
}

// ---- VDE batches ----------------------------------------------------------

struct VdeFixture {
  GroupParams gp = toy();
  Prng prng;
  KeyPair ka;
  KeyPair kb;
  std::vector<Ciphertext> cas, cbs;
  std::vector<VdeProof> proofs;
  std::vector<std::string> contexts;

  VdeFixture(std::uint64_t seed, std::size_t k)
      : prng(seed), ka(KeyPair::generate(gp, prng)), kb(KeyPair::generate(gp, prng)) {
    for (std::size_t i = 0; i < k; ++i) {
      Bigint rho = gp.random_element(prng);
      Bigint r1 = gp.random_exponent(prng);
      Bigint r2 = gp.random_exponent(prng);
      cas.push_back(ka.public_key().encrypt_with_nonce(rho, r1));
      cbs.push_back(kb.public_key().encrypt_with_nonce(rho, r2));
      contexts.push_back("vde-" + std::to_string(i));
      proofs.push_back(vde_prove(ka.public_key(), cas.back(), r1, kb.public_key(), cbs.back(), r2,
                                 contexts.back(), prng));
    }
  }

  [[nodiscard]] std::vector<VdeBatchItem> items() const {
    std::vector<VdeBatchItem> out;
    for (std::size_t i = 0; i < proofs.size(); ++i) {
      out.push_back({&ka.public_key(), &cas[i], &kb.public_key(), &cbs[i], &proofs[i],
                     contexts[i]});
    }
    return out;
  }
};

// The indices of the items vde_verify rejects one at a time.
std::vector<std::size_t> failing(const std::vector<VdeBatchItem>& items) {
  std::vector<std::size_t> bad;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const VdeBatchItem& it = items[i];
    if (!vde_verify(*it.ka, *it.ca, *it.kb, *it.cb, *it.proof, it.context)) bad.push_back(i);
  }
  return bad;
}

TEST(VdeBatch, ValidBatchAcceptsAndEmptyIsTrivial) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    VdeFixture fx(seed, 4);
    Prng vr(seed * 31);
    EXPECT_TRUE(vde_batch_verify(fx.items(), vr)) << seed;
    Prng vr2(seed * 37);
    EXPECT_TRUE(vde_batch_verify(std::vector<VdeBatchItem>{}, vr2));
  }
}

TEST(VdeBatch, TamperedProofRejectedAndCulpritIsolatedAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    VdeFixture fx(seed, 4);
    std::size_t target = seed % 4;
    VdeProof& p = fx.proofs[target];
    switch (seed % 5) {
      case 0: p.g12 = fx.gp.mul(p.g12, fx.gp.g()); break;
      case 1: p.g21 = fx.gp.mul(p.g21, fx.gp.g()); break;
      case 2: p.pr1.s = mpz::addmod(p.pr1.s, Bigint(1), fx.gp.q()); break;
      case 3: p.pr2.t1 = fx.gp.mul(p.pr2.t1, fx.gp.g()); break;
      case 4: p.pr3.t2 = fx.gp.mul(p.pr3.t2, fx.gp.g()); break;
    }
    auto items = fx.items();
    Prng vr(seed * 131);
    EXPECT_FALSE(vde_batch_verify(items, vr)) << seed;
    EXPECT_EQ(failing(items), (std::vector<std::size_t>{target})) << seed;
  }
}

TEST(VdeBatch, ProofUnderWrongKeyRejected) {
  VdeFixture fx(9, 3);
  Prng prng(900);
  // Swap in a fresh key pair for item 1's B-side: the proof no longer matches.
  KeyPair evil = KeyPair::generate(fx.gp, prng);
  auto items = fx.items();
  items[1].kb = &evil.public_key();
  Prng vr(901);
  EXPECT_FALSE(vde_batch_verify(items, vr));
  EXPECT_EQ(failing(items), (std::vector<std::size_t>{1}));
}

TEST(VdeBatch, SwappedProofsBetweenItemsRejected) {
  VdeFixture fx(11, 3);
  // Give items 0 and 2 the same context, then cross their proofs.
  fx.contexts[0] = fx.contexts[2] = "same";
  Prng prng(1100);
  for (std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    Bigint rho = fx.gp.random_element(prng);
    Bigint r1 = fx.gp.random_exponent(prng);
    Bigint r2 = fx.gp.random_exponent(prng);
    fx.cas[i] = fx.ka.public_key().encrypt_with_nonce(rho, r1);
    fx.cbs[i] = fx.kb.public_key().encrypt_with_nonce(rho, r2);
    fx.proofs[i] = vde_prove(fx.ka.public_key(), fx.cas[i], r1, fx.kb.public_key(), fx.cbs[i], r2,
                             "same", prng);
  }
  std::swap(fx.proofs[0], fx.proofs[2]);
  Prng vr(1101);
  EXPECT_FALSE(vde_batch_verify(fx.items(), vr));
  EXPECT_EQ(failing(fx.items()), (std::vector<std::size_t>{0, 2}));
}

}  // namespace
}  // namespace dblind::zkp

// ---- Decryption-share batches ---------------------------------------------

namespace dblind::threshold {
namespace {

using elgamal::Ciphertext;
using group::GroupParams;
using group::ParamId;
using mpz::Bigint;
using mpz::Prng;

struct ShareFixture {
  GroupParams gp = GroupParams::named(ParamId::kToy64);
  Prng prng;
  ServiceKeyMaterial km;
  Ciphertext c;
  std::vector<DecryptionShare> shares;

  explicit ShareFixture(std::uint64_t seed)
      : prng(seed), km(ServiceKeyMaterial::dealer_keygen(gp, {4, 1}, prng)) {
    Bigint m = gp.random_element(prng);
    c = km.public_key().encrypt(m, prng);
    for (std::uint32_t i = 1; i <= 4; ++i) {
      shares.push_back(make_decryption_share(gp, c, km.share_of(i), "dec-ctx", prng));
    }
  }
};

TEST(ShareBatch, ValidSharesAccept) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ShareFixture fx(seed);
    Prng vr(seed * 7);
    EXPECT_TRUE(batch_verify_decryption_shares(fx.gp, fx.km.commitments(), fx.c, fx.shares,
                                               "dec-ctx", vr))
        << seed;
  }
}

TEST(ShareBatch, MutatedShareRejectedAndIsolatedAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    ShareFixture fx(seed);
    std::size_t target = seed % fx.shares.size();
    DecryptionShare& ds = fx.shares[target];
    switch (seed % 4) {
      case 0: ds.d = fx.gp.mul(ds.d, fx.gp.g()); break;                        // wrong share
      case 1: ds.proof.s = mpz::addmod(ds.proof.s, Bigint(1), fx.gp.q()); break;
      case 2: ds.proof.t1 = fx.gp.mul(ds.proof.t1, fx.gp.g()); break;
      case 3: ds.index = (ds.index % 4) + 1; break;  // claims another server's slot
    }
    Prng vr(seed * 17);
    EXPECT_FALSE(batch_verify_decryption_shares(fx.gp, fx.km.commitments(), fx.c, fx.shares,
                                                "dec-ctx", vr))
        << seed;
    for (std::size_t i = 0; i < fx.shares.size(); ++i) {
      EXPECT_EQ(verify_decryption_share(fx.gp, fx.km.commitments(), fx.c, fx.shares[i], "dec-ctx"),
                i != target)
          << seed << " share " << i;
    }
  }
}

TEST(ShareBatch, WrongContextRejected) {
  ShareFixture fx(3);
  Prng vr(33);
  EXPECT_FALSE(batch_verify_decryption_shares(fx.gp, fx.km.commitments(), fx.c, fx.shares,
                                              "other-ctx", vr));
}

TEST(ShareBatch, ZeroIndexRejected) {
  ShareFixture fx(4);
  fx.shares[0].index = 0;
  Prng vr(44);
  EXPECT_FALSE(batch_verify_decryption_shares(fx.gp, fx.km.commitments(), fx.c, fx.shares,
                                              "dec-ctx", vr));
}

}  // namespace
}  // namespace dblind::threshold

// PRIM: substrate microbenchmarks (context for every protocol-level number).
//
// Covers the cryptographic operations the re-encryption protocol is built
// from, across the embedded parameter sizes, and the ec255 fixed-base paths
// (BM_Ec255*: pow_g, a pinned pow_fixed, Schnorr checks under a pinned and an
// unpinned key, a batch of ten). Before timing anything it checks, on ec255
// and on the 1024-bit mod-p group, that a pinned key and an unpinned one give
// the same verdict on a valid and on a forged signature and on a batch, and
// exits 1 if not. Run: build/bench/bench_primitives
#include <benchmark/benchmark.h>

#include <cstdio>

#include "elgamal/elgamal.hpp"
#include "group/params.hpp"
#include "hash/sha256.hpp"
#include "mpz/modmath.hpp"
#include "threshold/keygen.hpp"
#include "threshold/thresh_decrypt.hpp"
#include "zkp/batch.hpp"
#include "zkp/chaum_pedersen.hpp"
#include "zkp/schnorr.hpp"
#include "zkp/vde.hpp"

namespace {

using namespace dblind;  // NOLINT
using group::GroupParams;
using group::ParamId;
using mpz::Bigint;
using mpz::Prng;

ParamId param_of(std::int64_t bits) {
  switch (bits) {
    case 128: return ParamId::kTest128;
    case 256: return ParamId::kTest256;
    case 512: return ParamId::kSec512;
    case 1024: return ParamId::kSec1024;
    case 2048: return ParamId::kSec2048;
    default: return ParamId::kToy64;
  }
}

void BM_ModExp(benchmark::State& state) {
  GroupParams gp = GroupParams::named(param_of(state.range(0)));
  Prng prng(1);
  Bigint base = gp.random_element(prng);
  Bigint exp = gp.random_exponent(prng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.pow(base, exp));
  }
}
BENCHMARK(BM_ModExp)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_ModExpFixedBase(benchmark::State& state) {
  // pow_g through g's shift table (vs BM_ModExp's generic path).
  GroupParams gp = GroupParams::named(param_of(state.range(0)));
  Prng prng(1);
  Bigint exp = gp.random_exponent(prng);
  (void)gp.pow_g(exp);  // force table construction outside the loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.pow_g(exp));
  }
}
BENCHMARK(BM_ModExpFixedBase)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_ModExp2(benchmark::State& state) {
  // a^ea * b^eb in one pass (the shape of every verification equation).
  GroupParams gp = GroupParams::named(param_of(state.range(0)));
  Prng prng(1);
  Bigint a = gp.random_element(prng);
  Bigint b = gp.random_element(prng);
  Bigint ea = gp.random_exponent(prng);
  Bigint eb = gp.random_exponent(prng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.pow2(a, ea, b, eb));
  }
}
BENCHMARK(BM_ModExp2)->Arg(256)->Arg(512)->Arg(1024);

void BM_MultiPow(benchmark::State& state) {
  // Π b_i^e_i in one pass with one shared squaring chain — the engine under
  // every batch verifier.
  GroupParams gp = GroupParams::named(ParamId::kSec512);
  Prng prng(1);
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<Bigint> bases, exps;
  for (std::size_t i = 0; i < k; ++i) {
    bases.push_back(gp.random_element(prng));
    exps.push_back(gp.random_exponent(prng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.multi_pow(bases, exps));
  }
}
BENCHMARK(BM_MultiPow)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

void BM_MultiPowNaive(benchmark::State& state) {
  // The serial baseline BM_MultiPow replaces: k independent exponentiations.
  GroupParams gp = GroupParams::named(ParamId::kSec512);
  Prng prng(1);
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<Bigint> bases, exps;
  for (std::size_t i = 0; i < k; ++i) {
    bases.push_back(gp.random_element(prng));
    exps.push_back(gp.random_exponent(prng));
  }
  for (auto _ : state) {
    Bigint acc(1);
    for (std::size_t i = 0; i < k; ++i) acc = gp.mul(acc, gp.pow(bases[i], exps[i]));
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_MultiPowNaive)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

void BM_ModMul(benchmark::State& state) {
  GroupParams gp = GroupParams::named(param_of(state.range(0)));
  Prng prng(2);
  Bigint a = gp.random_element(prng);
  Bigint b = gp.random_element(prng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.mul(a, b));
  }
}
BENCHMARK(BM_ModMul)->Arg(256)->Arg(1024)->Arg(2048);

void BM_Sha256(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::Sha256::digest(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_ElGamalEncrypt(benchmark::State& state) {
  GroupParams gp = GroupParams::named(param_of(state.range(0)));
  Prng prng(3);
  elgamal::KeyPair kp = elgamal::KeyPair::generate(gp, prng);
  Bigint m = gp.random_element(prng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.public_key().encrypt(m, prng));
  }
}
BENCHMARK(BM_ElGamalEncrypt)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

void BM_ElGamalDecrypt(benchmark::State& state) {
  GroupParams gp = GroupParams::named(param_of(state.range(0)));
  Prng prng(4);
  elgamal::KeyPair kp = elgamal::KeyPair::generate(gp, prng);
  elgamal::Ciphertext c = kp.public_key().encrypt(gp.random_element(prng), prng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.decrypt(c));
  }
}
BENCHMARK(BM_ElGamalDecrypt)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

void BM_ChaumPedersenProve(benchmark::State& state) {
  GroupParams gp = GroupParams::named(param_of(state.range(0)));
  Prng prng(5);
  Bigint a = gp.random_exponent(prng);
  Bigint y = gp.random_element(prng);
  zkp::DlogStatement stmt{gp.g(), gp.pow_g(a), y, gp.pow(y, a)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(zkp::dlog_prove(gp, stmt, a, "bench", prng));
  }
}
BENCHMARK(BM_ChaumPedersenProve)->Arg(256)->Arg(512)->Arg(1024);

void BM_ChaumPedersenVerify(benchmark::State& state) {
  GroupParams gp = GroupParams::named(param_of(state.range(0)));
  Prng prng(6);
  Bigint a = gp.random_exponent(prng);
  Bigint y = gp.random_element(prng);
  zkp::DlogStatement stmt{gp.g(), gp.pow_g(a), y, gp.pow(y, a)};
  zkp::DlogEqProof proof = zkp::dlog_prove(gp, stmt, a, "bench", prng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zkp::dlog_verify(gp, stmt, proof, "bench"));
  }
}
BENCHMARK(BM_ChaumPedersenVerify)->Arg(256)->Arg(512)->Arg(1024);

struct VdeFixture {
  // prng_ is declared (and thus constructed) before everything that uses it.
  Prng prng_;
  GroupParams gp;
  elgamal::KeyPair ka, kb;
  Bigint rho, r1, r2;
  elgamal::Ciphertext ca, cb;

  explicit VdeFixture(ParamId id, std::uint64_t seed)
      : prng_(seed),
        gp(GroupParams::named(id)),
        ka(elgamal::KeyPair::generate(gp, prng_)),
        kb(elgamal::KeyPair::generate(gp, prng_)),
        rho(gp.random_element(prng_)),
        r1(gp.random_exponent(prng_)),
        r2(gp.random_exponent(prng_)),
        ca(ka.public_key().encrypt_with_nonce(rho, r1)),
        cb(kb.public_key().encrypt_with_nonce(rho, r2)) {}

  Prng& prng() { return prng_; }
};

void BM_VdeProve(benchmark::State& state) {
  VdeFixture fx(param_of(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zkp::vde_prove(fx.ka.public_key(), fx.ca, fx.r1, fx.kb.public_key(),
                                            fx.cb, fx.r2, "bench", fx.prng()));
  }
}
BENCHMARK(BM_VdeProve)->Arg(256)->Arg(512)->Arg(1024);

void BM_VdeVerify(benchmark::State& state) {
  VdeFixture fx(param_of(state.range(0)), 8);
  zkp::VdeProof proof = zkp::vde_prove(fx.ka.public_key(), fx.ca, fx.r1, fx.kb.public_key(),
                                       fx.cb, fx.r2, "bench", fx.prng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        zkp::vde_verify(fx.ka.public_key(), fx.ca, fx.kb.public_key(), fx.cb, proof, "bench"));
  }
}
BENCHMARK(BM_VdeVerify)->Arg(256)->Arg(512)->Arg(1024);

void BM_SchnorrSign(benchmark::State& state) {
  GroupParams gp = GroupParams::named(param_of(state.range(0)));
  Prng prng(9);
  zkp::SchnorrSigningKey sk = zkp::SchnorrSigningKey::generate(gp, prng);
  std::vector<std::uint8_t> msg(256, 0x7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sk.sign(msg, prng));
  }
}
BENCHMARK(BM_SchnorrSign)->Arg(256)->Arg(512)->Arg(1024);

void BM_SchnorrVerify(benchmark::State& state) {
  GroupParams gp = GroupParams::named(param_of(state.range(0)));
  Prng prng(10);
  zkp::SchnorrSigningKey sk = zkp::SchnorrSigningKey::generate(gp, prng);
  std::vector<std::uint8_t> msg(256, 0x7);
  zkp::SchnorrSignature sig = sk.sign(msg, prng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sk.verify_key().verify(msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerify)->Arg(256)->Arg(512)->Arg(1024);

void BM_SchnorrBatchVerify(benchmark::State& state) {
  // Batch-verifying k signatures vs k individual verifications (the shape of
  // the paper's reveal validation: 2f+1 commit signatures, all-or-nothing).
  GroupParams gp = GroupParams::named(ParamId::kSec512);
  Prng prng(10);
  const int k = static_cast<int>(state.range(0));
  std::vector<zkp::SchnorrSigningKey> keys;
  std::vector<zkp::SchnorrVerifyKey> vks;
  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<zkp::SchnorrSignature> sigs;
  for (int i = 0; i < k; ++i) {
    keys.push_back(zkp::SchnorrSigningKey::generate(gp, prng));
    vks.push_back(keys.back().verify_key());
    msgs.emplace_back(64, static_cast<std::uint8_t>(i));
    sigs.push_back(keys.back().sign(msgs.back(), prng));
  }
  std::vector<zkp::BatchEntry> batch;
  for (int i = 0; i < k; ++i)
    batch.push_back({&vks[static_cast<std::size_t>(i)], msgs[static_cast<std::size_t>(i)],
                     &sigs[static_cast<std::size_t>(i)]});
  for (auto _ : state) {
    benchmark::DoNotOptimize(zkp::schnorr_batch_verify(gp, batch));
  }
}
BENCHMARK(BM_SchnorrBatchVerify)->Arg(3)->Arg(7)->Arg(15);

void BM_SchnorrVerifyIndividually(benchmark::State& state) {
  GroupParams gp = GroupParams::named(ParamId::kSec512);
  Prng prng(10);
  const int k = static_cast<int>(state.range(0));
  std::vector<zkp::SchnorrSigningKey> keys;
  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<zkp::SchnorrSignature> sigs;
  for (int i = 0; i < k; ++i) {
    keys.push_back(zkp::SchnorrSigningKey::generate(gp, prng));
    msgs.emplace_back(64, static_cast<std::uint8_t>(i));
    sigs.push_back(keys.back().sign(msgs.back(), prng));
  }
  for (auto _ : state) {
    bool ok = true;
    for (int i = 0; i < k; ++i)
      ok = ok && keys[static_cast<std::size_t>(i)].verify_key().verify(
                     msgs[static_cast<std::size_t>(i)], sigs[static_cast<std::size_t>(i)]);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_SchnorrVerifyIndividually)->Arg(3)->Arg(7)->Arg(15);

std::vector<zkp::CpBatchItem> cp_batch_fixture(const GroupParams& gp, int k, Prng& prng) {
  std::vector<zkp::CpBatchItem> items;
  for (int i = 0; i < k; ++i) {
    Bigint a = gp.random_exponent(prng);
    Bigint y = gp.random_element(prng);
    zkp::DlogStatement stmt{gp.g(), gp.pow_g(a), y, gp.pow(y, a)};
    items.push_back({stmt, zkp::dlog_prove(gp, stmt, a, "bench", prng), "bench"});
  }
  return items;
}

void BM_CpBatchVerify(benchmark::State& state) {
  // k Chaum-Pedersen proofs in one random-linear-combination multi-exp (the
  // PR 3 fast path) vs BM_CpVerifyIndividually's k separate checks.
  GroupParams gp = GroupParams::named(ParamId::kSec512);
  Prng prng(14);
  auto items = cp_batch_fixture(gp, static_cast<int>(state.range(0)), prng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zkp::cp_batch_verify(gp, items, prng));
  }
}
BENCHMARK(BM_CpBatchVerify)->Arg(3)->Arg(7)->Arg(15);

void BM_CpVerifyIndividually(benchmark::State& state) {
  GroupParams gp = GroupParams::named(ParamId::kSec512);
  Prng prng(14);
  auto items = cp_batch_fixture(gp, static_cast<int>(state.range(0)), prng);
  for (auto _ : state) {
    bool ok = true;
    for (const auto& it : items) ok = ok && zkp::dlog_verify(gp, it.stmt, it.proof, it.context);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_CpVerifyIndividually)->Arg(3)->Arg(7)->Arg(15);

void BM_ThresholdDecryptShare(benchmark::State& state) {
  GroupParams gp = GroupParams::named(param_of(state.range(0)));
  Prng prng(11);
  auto km = threshold::ServiceKeyMaterial::dealer_keygen(gp, {4, 1}, prng);
  elgamal::Ciphertext c = km.public_key().encrypt(gp.random_element(prng), prng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        threshold::make_decryption_share(gp, c, km.share_of(1), "bench", prng));
  }
}
BENCHMARK(BM_ThresholdDecryptShare)->Arg(256)->Arg(512)->Arg(1024);

void BM_ThresholdDecryptCombine(benchmark::State& state) {
  GroupParams gp = GroupParams::named(ParamId::kSec512);
  Prng prng(12);
  std::size_t f = static_cast<std::size_t>(state.range(0));
  auto km = threshold::ServiceKeyMaterial::dealer_keygen(gp, {3 * f + 1, f}, prng);
  elgamal::Ciphertext c = km.public_key().encrypt(gp.random_element(prng), prng);
  std::vector<threshold::DecryptionShare> shares;
  for (std::uint32_t i = 1; i <= f + 1; ++i)
    shares.push_back(threshold::make_decryption_share(gp, c, km.share_of(i), "bench", prng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(threshold::combine_decryption(gp, c, shares));
  }
}
BENCHMARK(BM_ThresholdDecryptCombine)->Arg(1)->Arg(2)->Arg(3)->Arg(5);

void BM_ShamirShareReconstruct(benchmark::State& state) {
  GroupParams gp = GroupParams::named(ParamId::kSec512);
  Prng prng(13);
  std::size_t f = static_cast<std::size_t>(state.range(0));
  Bigint secret = prng.uniform_below(gp.q());
  auto shares = threshold::shamir_share(secret, 3 * f + 1, f, gp.q(), prng);
  std::vector<threshold::Share> quorum(shares.begin(),
                                       shares.begin() + static_cast<std::ptrdiff_t>(f + 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(threshold::shamir_reconstruct(quorum, gp.q()));
  }
}
BENCHMARK(BM_ShamirShareReconstruct)->Arg(1)->Arg(3)->Arg(10);

// --- shift tables and pinned keys ---------------------------------------------

// One group with `kKeys` Schnorr keys pinned (the server keys a
// ProtocolServer pins) and a second group with none: a pinned check runs
// over the keys' shift tables, an unpinned one walks a chain of one step per
// bit of q.
struct KeyFixture {
  static constexpr int kKeys = 10;
  GroupParams pinned;
  GroupParams unpinned;
  std::vector<zkp::SchnorrVerifyKey> pinned_keys;
  std::vector<zkp::SchnorrVerifyKey> unpinned_keys;
  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<zkp::SchnorrSignature> sigs;
  Bigint exp;

  explicit KeyFixture(ParamId id)
      : pinned(GroupParams::named(id)), unpinned(GroupParams::named(id)) {
    Prng prng(24);
    for (int i = 0; i < kKeys; ++i) {
      const zkp::SchnorrSigningKey sk = zkp::SchnorrSigningKey::generate(pinned, prng);
      pinned.pin_base(sk.verify_key().point());
      pinned_keys.push_back(sk.verify_key());
      unpinned_keys.emplace_back(unpinned, sk.verify_key().point());
      msgs.emplace_back(64, static_cast<std::uint8_t>(i));
      sigs.push_back(sk.sign(msgs.back(), prng));
    }
    exp = pinned.random_exponent(prng);
    // Build every table outside the timed loops.
    (void)pinned.pow_g(exp);
    (void)pinned.pow_fixed(pinned_keys[0].point(), exp);
    for (int i = 0; i < kKeys; ++i) (void)verify(true, i, sigs[static_cast<std::size_t>(i)]);
    (void)unpinned.pow_g(exp);
  }

  [[nodiscard]] bool verify(bool with_pins, int i, const zkp::SchnorrSignature& sig) const {
    const auto k = static_cast<std::size_t>(i);
    return (with_pins ? pinned_keys : unpinned_keys)[k].verify(msgs[k], sig);
  }

  [[nodiscard]] std::vector<zkp::BatchEntry> batch(bool with_pins) const {
    std::vector<zkp::BatchEntry> out;
    for (std::size_t k = 0; k < sigs.size(); ++k)
      out.push_back({&(with_pins ? pinned_keys : unpinned_keys)[k], msgs[k], &sigs[k]});
    return out;
  }

  // A pinned key must judge exactly as an unpinned one: on every valid
  // signature, on a forged one (s + 1) and on each batch.
  [[nodiscard]] bool verdicts_agree() const {
    for (int i = 0; i < kKeys; ++i) {
      const zkp::SchnorrSignature& sig = sigs[static_cast<std::size_t>(i)];
      const zkp::SchnorrSignature forged{sig.r, mpz::addmod(sig.s, Bigint(1), pinned.q())};
      if (!verify(true, i, sig) || !verify(false, i, sig)) return false;
      if (verify(true, i, forged) || verify(false, i, forged)) return false;
    }
    return zkp::schnorr_batch_verify(pinned, batch(true)) &&
           zkp::schnorr_batch_verify(unpinned, batch(false));
  }
};

const KeyFixture& ec255() {
  static const KeyFixture fx(ParamId::kEc255);
  return fx;
}

void BM_Ec255PowG(benchmark::State& state) {
  const KeyFixture& fx = ec255();
  for (auto _ : state) benchmark::DoNotOptimize(fx.pinned.pow_g(fx.exp));
}
BENCHMARK(BM_Ec255PowG);

void BM_Ec255PowFixed(benchmark::State& state) {
  const KeyFixture& fx = ec255();
  const group::Element& base = fx.pinned_keys[0].point();
  for (auto _ : state) benchmark::DoNotOptimize(fx.pinned.pow_fixed(base, fx.exp));
}
BENCHMARK(BM_Ec255PowFixed);

void BM_Ec255SchnorrVerify(benchmark::State& state, bool with_pins) {
  const KeyFixture& fx = ec255();
  for (auto _ : state) benchmark::DoNotOptimize(fx.verify(with_pins, 0, fx.sigs[0]));
}
BENCHMARK_CAPTURE(BM_Ec255SchnorrVerify, pinned, true);
BENCHMARK_CAPTURE(BM_Ec255SchnorrVerify, unpinned, false);

void BM_Ec255SchnorrBatch(benchmark::State& state) {
  const KeyFixture& fx = ec255();
  const std::vector<zkp::BatchEntry> batch = fx.batch(true);
  for (auto _ : state) benchmark::DoNotOptimize(zkp::schnorr_batch_verify(fx.pinned, batch));
}
BENCHMARK(BM_Ec255SchnorrBatch)->Arg(KeyFixture::kKeys);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (!ec255().verdicts_agree() || !KeyFixture(ParamId::kSec1024).verdicts_agree()) {
    std::fprintf(stderr, "a pinned key and an unpinned one disagree on a verdict\n");
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

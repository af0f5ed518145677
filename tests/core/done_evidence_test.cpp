// Focused unit tests of check_done_sign_request against the Fig. 5 oracle — the
// deepest evidence chain in the protocol (blind message ⊃ service signature;
// decryption shares ⊃ Chaum-Pedersen proofs; payload consistency with the
// stored ciphertext).
#include <gtest/gtest.h>

#include "core/validity.hpp"
#include "mpz/modmath.hpp"
#include "tests/core/fig5_oracle.hpp"
#include "tests/core/test_util.hpp"
#include "threshold/shamir.hpp"
#include "threshold/thresh_decrypt.hpp"

namespace dblind::core {
namespace {

using testing::TestSystem;
using mpz::Bigint;
using mpz::Prng;

struct DoneFixture {
  TestSystem ts = TestSystem::make(42);
  Prng prng{17};
  InstanceId id{1, 1, 0};
  Bigint m;
  elgamal::Ciphertext stored;        // E_A(m)
  ServiceSignedMsg blind_env;        // valid ⟨blind⟩_B
  BlindPayload blind;
  elgamal::Ciphertext ea_m_rho;
  Bigint m_rho;
  std::vector<threshold::DecryptionShare> shares;
  DonePayload done;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> evidence;

  DoneFixture() {
    const SystemConfig& cfg = ts.cfg;
    m = ts.params.random_element(prng);
    stored = cfg.a.encryption_key.encrypt(m, prng);

    // A blinding pair, "service-signed" with B's reconstructed signing key
    // (standing in for the threshold-signing sub-protocol).
    Bigint rho = ts.params.random_element(prng);
    blind.id = id;
    blind.blinded.ea = cfg.a.encryption_key.encrypt(rho, prng);
    blind.blinded.eb = cfg.b.encryption_key.encrypt(rho, prng);
    std::vector<threshold::Share> sks = {ts.b_secrets[0].sign_share, ts.b_secrets[1].sign_share};
    zkp::SchnorrSigningKey b_sign = zkp::SchnorrSigningKey::from_private(
        ts.params, threshold::shamir_reconstruct(sks, ts.params.q()));
    blind_env.service = static_cast<std::uint8_t>(ServiceRole::kServiceB);
    blind_env.body = encode_body(MsgType::kBlind, blind);
    blind_env.sig = b_sign.sign(blind_env.body, prng);

    ea_m_rho = *cfg.a.encryption_key.multiply(stored, blind.blinded.ea);
    for (std::uint32_t i : {1u, 2u}) {
      shares.push_back(threshold::make_decryption_share(
          ts.params, ea_m_rho, ts.a_secrets[i - 1].enc_share, decrypt_context(id), prng));
    }
    m_rho = threshold::combine_decryption(ts.params, ea_m_rho, shares);

    done.id = id;
    done.ea_m = stored;
    done.eb_m = cfg.b.encryption_key.juxtapose(
        m_rho, cfg.b.encryption_key.inverse(blind.blinded.eb));
    payload = encode_body(MsgType::kDone, done);

    evidence = group::to_bytes(DoneEvidence{blind_env, m_rho, shares});
  }

  // Verdict of the Fig. 5 reference check (tests/core/fig5_oracle.hpp); the
  // check the A servers run must agree with it on every case.
  bool done_ok(std::span<const std::uint8_t> p, std::span<const std::uint8_t> ev,
               const elgamal::Ciphertext& stored_ea_m) {
    const bool serial = oracle::check_done_sign_request(ts.cfg, p, ev, stored_ea_m);
    auto decoded = try_decode<DonePayload>(ts.cfg, MsgType::kDone, p);
    EXPECT_EQ(decoded && check_done_sign_request(ts.cfg, *decoded, ev, stored_ea_m, prng), serial);
    return serial;
  }
};

TEST(DoneEvidenceCheck, HonestEvidenceAccepted) {
  DoneFixture fx;
  EXPECT_TRUE(fx.done_ok(fx.payload, fx.evidence, fx.stored));
}

TEST(DoneEvidenceCheck, WrongStoredCiphertextRejected) {
  DoneFixture fx;
  elgamal::Ciphertext other = fx.ts.cfg.a.encryption_key.encrypt(fx.m, fx.prng);
  EXPECT_FALSE(fx.done_ok(fx.payload, fx.evidence, other));
}

TEST(DoneEvidenceCheck, TamperedMRhoRejected) {
  DoneFixture fx;
  DoneEvidence ev{fx.blind_env, fx.ts.params.mul(fx.m_rho, fx.ts.params.g()), fx.shares};
  EXPECT_FALSE(fx.done_ok(fx.payload, group::to_bytes(ev), fx.stored));
}

TEST(DoneEvidenceCheck, ForgedBlindSignatureRejected) {
  DoneFixture fx;
  ServiceSignedMsg forged = fx.blind_env;
  forged.body.back() ^= 1;
  DoneEvidence ev{forged, fx.m_rho, fx.shares};
  EXPECT_FALSE(fx.done_ok(fx.payload, group::to_bytes(ev), fx.stored));
}

TEST(DoneEvidenceCheck, BadDecryptionShareRejected) {
  DoneFixture fx;
  auto bad_shares = fx.shares;
  bad_shares[0].d = fx.ts.params.mul(bad_shares[0].d, fx.ts.params.g());
  DoneEvidence ev{fx.blind_env, fx.m_rho, bad_shares};
  EXPECT_FALSE(fx.done_ok(fx.payload, group::to_bytes(ev), fx.stored));
}

TEST(DoneEvidenceCheck, DuplicateShareIndicesRejected) {
  DoneFixture fx;
  std::vector<threshold::DecryptionShare> dup = {fx.shares[0], fx.shares[0]};
  DoneEvidence ev{fx.blind_env, fx.m_rho, dup};
  EXPECT_FALSE(fx.done_ok(fx.payload, group::to_bytes(ev), fx.stored));
}

TEST(DoneEvidenceCheck, WrongShareCountRejected) {
  DoneFixture fx;
  std::vector<threshold::DecryptionShare> extra = fx.shares;
  extra.push_back(threshold::make_decryption_share(fx.ts.params, fx.ea_m_rho,
                                                   fx.ts.a_secrets[2].enc_share,
                                                   decrypt_context(fx.id), fx.prng));
  DoneEvidence ev{fx.blind_env, fx.m_rho, extra};  // f+2 shares: not exactly a quorum
  EXPECT_FALSE(fx.done_ok(fx.payload, group::to_bytes(ev), fx.stored));
}

TEST(DoneEvidenceCheck, TamperedPayloadRejected) {
  DoneFixture fx;
  // E_B(m) swapped for a ciphertext of something else.
  DonePayload wrong = fx.done;
  wrong.eb_m = fx.ts.cfg.b.encryption_key.encrypt(fx.ts.params.random_element(fx.prng), fx.prng);
  EXPECT_FALSE(fx.done_ok(encode_body(MsgType::kDone, wrong), fx.evidence, fx.stored));
  // Instance id mismatch between payload and blind message.
  DonePayload other_id = fx.done;
  other_id.id.transfer = 999;
  EXPECT_FALSE(fx.done_ok(encode_body(MsgType::kDone, other_id), fx.evidence, fx.stored));
}

TEST(DoneEvidenceCheck, SharesForWrongContextRejected) {
  // Shares made for another instance's decrypt context do not validate here.
  DoneFixture fx;
  std::vector<threshold::DecryptionShare> wrong_ctx;
  for (std::uint32_t i : {1u, 2u}) {
    wrong_ctx.push_back(threshold::make_decryption_share(
        fx.ts.params, fx.ea_m_rho, fx.ts.a_secrets[i - 1].enc_share,
        decrypt_context(InstanceId{2, 1, 0}), fx.prng));
  }
  DoneEvidence ev{fx.blind_env, fx.m_rho, wrong_ctx};
  EXPECT_FALSE(fx.done_ok(fx.payload, group::to_bytes(ev), fx.stored));
}

}  // namespace
}  // namespace dblind::core

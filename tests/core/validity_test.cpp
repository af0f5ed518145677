// Unit tests for the Figure-5 validity rules on hand-crafted messages.
#include "core/validity.hpp"

#include <gtest/gtest.h>

#include "tests/core/fig5_oracle.hpp"
#include "tests/core/test_util.hpp"
#include "zkp/vde.hpp"

namespace dblind::core {
namespace {

using testing::TestSystem;
using mpz::Bigint;
using mpz::Prng;

struct Fixture {
  TestSystem ts = TestSystem::make(7);
  Prng prng{99};
  InstanceId id{1, 1, 0};

  const SystemConfig& cfg() { return ts.cfg; }
  const ServerSecrets& b(ServerRank r) { return ts.b_secrets[r - 1]; }
  const ServerSecrets& a(ServerRank r) { return ts.a_secrets[r - 1]; }

  SignedMessage signed_init(ServerRank coordinator) {
    InstanceId iid{1, coordinator, 0};
    return make_envelope(b(coordinator), encode_body(MsgType::kInit, InitMsg{iid}), 0, prng);
  }
  // An init's verdict: it decodes and passes check_init.
  bool init_ok(const SignedMessage& env) {
    auto msg = try_decode<InitMsg>(cfg(), MsgType::kInit, env.body);
    return msg && check_init(cfg(), env, *msg);
  }

  // A contributor's full honest state for one instance.
  struct Contrib {
    Bigint rho, r1, r2;
    Contribution contribution;
  };
  Contrib make_contrib() {
    Contrib c;
    c.rho = ts.params.random_element(prng);
    c.r1 = ts.params.random_exponent(prng);
    c.r2 = ts.params.random_exponent(prng);
    c.contribution.ea = cfg().a.encryption_key.encrypt_with_nonce(c.rho, c.r1);
    c.contribution.eb = cfg().b.encryption_key.encrypt_with_nonce(c.rho, c.r2);
    return c;
  }

  SignedMessage signed_commit(ServerRank server, const Contribution& contribution) {
    CommitMsg m;
    m.id = id;
    m.server = server;
    m.commitment = contribution.commitment_digest();
    return make_envelope(b(server), encode_body(MsgType::kCommit, m), 0, prng);
  }

  SignedMessage signed_reveal(const std::vector<SignedMessage>& commits) {
    RevealMsg m;
    m.id = id;
    m.commits = commits;
    return make_envelope(b(id.coordinator), encode_body(MsgType::kReveal, m), 0, prng);
  }

  SignedMessage signed_contribute(ServerRank server, const Contrib& c,
                                  const SignedMessage& reveal) {
    ContributeMsg m;
    m.id = id;
    m.server = server;
    m.reveal = reveal;
    m.contribution = c.contribution;
    m.vde = zkp::vde_prove(cfg().a.encryption_key, c.contribution.ea, c.r1,
                           cfg().b.encryption_key, c.contribution.eb, c.r2,
                           vde_context(id, server), prng);
    return make_envelope(b(server), encode_body(MsgType::kContribute, m), 0, prng);
  }

  // Verdict of the Fig. 5 reference check (tests/core/fig5_oracle.hpp); the
  // check the servers run must agree with it on every case.
  bool commit_ok(const SignedMessage& env) {
    const bool serial = oracle::check_commit(cfg(), env).has_value();
    EXPECT_EQ(check_commit(cfg(), env).has_value(), serial);
    return serial;
  }
  bool reveal_ok(const SignedMessage& env) {
    const bool serial = oracle::check_reveal(cfg(), env).has_value();
    auto msg = try_decode<RevealMsg>(cfg(), MsgType::kReveal, env.body);
    EXPECT_EQ(msg && check_reveal(cfg(), env, *msg), serial);
    return serial;
  }
  bool contribute_ok(const SignedMessage& env) {
    const bool serial = oracle::check_contribute(cfg(), env).has_value();
    auto msg = try_decode<ContributeMsg>(cfg(), MsgType::kContribute, env.body);
    EXPECT_EQ(msg && check_contribute(cfg(), env, *msg, prng), serial);
    return serial;
  }
  bool blind_request_ok(std::span<const std::uint8_t> payload,
                        std::span<const std::uint8_t> evidence) {
    const bool serial = oracle::check_blind_sign_request(cfg(), payload, evidence);
    const std::optional<InstanceId> id = check_blind_sign_request(cfg(), payload, evidence, prng);
    EXPECT_EQ(id.has_value(), serial);
    // A valid request's verdict names the payload's instance.
    if (id) {
      EXPECT_EQ(*id, try_decode<BlindPayload>(cfg(), MsgType::kBlind, payload)->id);
    }
    return serial;
  }
};

TEST(Validity, InitAcceptsCoordinatorSignature) {
  Fixture fx;
  auto env = fx.signed_init(1);
  EXPECT_TRUE(fx.init_ok(env));
}

TEST(Validity, InitRejectsWrongSigner) {
  // Signed by server 2 but id names coordinator 1 — someone impersonating.
  Fixture fx;
  auto env = make_envelope(fx.b(2),
                           encode_body(MsgType::kInit, InitMsg{InstanceId{1, 1, 0}}), 0, fx.prng);
  EXPECT_FALSE(fx.init_ok(env));
}

TEST(Validity, InitRejectsTamperedBody) {
  Fixture fx;
  auto env = fx.signed_init(1);
  env.body.back() ^= 1;
  EXPECT_FALSE(fx.init_ok(env));
}

TEST(Validity, InitRejectsServiceASigner) {
  Fixture fx;
  auto env = make_envelope(fx.a(1),
                           encode_body(MsgType::kInit, InitMsg{InstanceId{1, 1, 0}}), 0, fx.prng);
  EXPECT_FALSE(fx.init_ok(env));
}

TEST(Validity, CommitAcceptsAndBindsSigner) {
  Fixture fx;
  auto c = fx.make_contrib();
  auto env = fx.signed_commit(2, c.contribution);
  auto parsed = check_commit(fx.cfg(), env);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->server, 2u);
  EXPECT_TRUE(fx.commit_ok(env));

  // Claiming another server's rank fails.
  CommitMsg spoof;
  spoof.id = fx.id;
  spoof.server = 3;  // signed by 2 below
  spoof.commitment = c.contribution.commitment_digest();
  auto bad = make_envelope(fx.b(2), encode_body(MsgType::kCommit, spoof), 0, fx.prng);
  EXPECT_FALSE(fx.commit_ok(bad));
}

TEST(Validity, RevealRequiresExactly2fPlus1DistinctCommits) {
  Fixture fx;
  std::vector<SignedMessage> commits;
  std::vector<Fixture::Contrib> contribs;
  for (ServerRank r = 1; r <= 3; ++r) {
    contribs.push_back(fx.make_contrib());
    commits.push_back(fx.signed_commit(r, contribs.back().contribution));
  }
  // 3 = 2f+1 for f=1: valid.
  EXPECT_TRUE(fx.reveal_ok(fx.signed_reveal(commits)));
  // Too few.
  std::vector<SignedMessage> two(commits.begin(), commits.begin() + 2);
  EXPECT_FALSE(fx.reveal_ok(fx.signed_reveal(two)));
  // Duplicate server.
  std::vector<SignedMessage> dup = {commits[0], commits[1], commits[1]};
  EXPECT_FALSE(fx.reveal_ok(fx.signed_reveal(dup)));
}

TEST(Validity, RevealRejectsCommitsFromOtherInstance) {
  Fixture fx;
  std::vector<SignedMessage> commits;
  for (ServerRank r = 1; r <= 2; ++r) {
    commits.push_back(fx.signed_commit(r, fx.make_contrib().contribution));
  }
  // Third commit from a different instance id.
  CommitMsg other;
  other.id = InstanceId{2, 1, 0};
  other.server = 3;
  other.commitment = fx.make_contrib().contribution.commitment_digest();
  commits.push_back(make_envelope(fx.b(3), encode_body(MsgType::kCommit, other),
                                  0, fx.prng));
  EXPECT_FALSE(fx.reveal_ok(fx.signed_reveal(commits)));
}

TEST(Validity, RevealMustBeSignedByCoordinator) {
  Fixture fx;
  std::vector<SignedMessage> commits;
  for (ServerRank r = 1; r <= 3; ++r)
    commits.push_back(fx.signed_commit(r, fx.make_contrib().contribution));
  RevealMsg m;
  m.id = fx.id;  // coordinator = 1
  m.commits = commits;
  auto env = make_envelope(fx.b(2), encode_body(MsgType::kReveal, m), 0, fx.prng);
  EXPECT_FALSE(fx.reveal_ok(env));
}

TEST(Validity, RevealRejectsForgedOrOtherEpochCommit) {
  // The shape is right but the evidence is not: a commit carrying another
  // commit's signature, or one signed under another config epoch (I6).
  Fixture fx;
  std::vector<SignedMessage> commits;
  for (ServerRank r = 1; r <= 3; ++r)
    commits.push_back(fx.signed_commit(r, fx.make_contrib().contribution));
  std::vector<SignedMessage> forged = commits;
  forged[2].sig = commits[1].sig;
  EXPECT_FALSE(fx.reveal_ok(fx.signed_reveal(forged)));
  std::vector<SignedMessage> other_epoch = commits;
  other_epoch[2] = make_envelope(fx.b(3), commits[2].body, 1, fx.prng);
  EXPECT_FALSE(fx.reveal_ok(fx.signed_reveal(other_epoch)));
}

TEST(Validity, ContributeFullyValid) {
  Fixture fx;
  std::vector<Fixture::Contrib> contribs;
  std::vector<SignedMessage> commits;
  for (ServerRank r = 1; r <= 3; ++r) {
    contribs.push_back(fx.make_contrib());
    commits.push_back(fx.signed_commit(r, contribs.back().contribution));
  }
  auto reveal = fx.signed_reveal(commits);
  auto env = fx.signed_contribute(2, contribs[1], reveal);
  EXPECT_TRUE(fx.contribute_ok(env));
}

TEST(Validity, ContributeRejectsCommitmentMismatch) {
  // Contribution differs from what was committed.
  Fixture fx;
  std::vector<Fixture::Contrib> contribs;
  std::vector<SignedMessage> commits;
  for (ServerRank r = 1; r <= 3; ++r) {
    contribs.push_back(fx.make_contrib());
    commits.push_back(fx.signed_commit(r, contribs.back().contribution));
  }
  auto reveal = fx.signed_reveal(commits);
  auto different = fx.make_contrib();  // never committed
  auto env = fx.signed_contribute(2, different, reveal);
  EXPECT_FALSE(fx.contribute_ok(env));
}

TEST(Validity, ContributeRejectsServerNotInReveal) {
  Fixture fx;
  std::vector<Fixture::Contrib> contribs;
  std::vector<SignedMessage> commits;
  for (ServerRank r = 1; r <= 3; ++r) {
    contribs.push_back(fx.make_contrib());
    commits.push_back(fx.signed_commit(r, contribs.back().contribution));
  }
  auto reveal = fx.signed_reveal(commits);
  auto outsider = fx.make_contrib();
  auto env = fx.signed_contribute(4, outsider, reveal);  // server 4 not in M
  EXPECT_FALSE(fx.contribute_ok(env));
}

TEST(Validity, ContributeRejectsInconsistentVde) {
  // E_A and E_B encrypt different values; prover attaches a proof for a
  // consistent shadow pair (§4.2.2 attack).
  Fixture fx;
  auto honest = fx.make_contrib();
  Fixture::Contrib bad = honest;
  Bigint rho2 = fx.ts.params.mul(honest.rho, fx.ts.params.g());
  bad.contribution.eb = fx.cfg().b.encryption_key.encrypt_with_nonce(rho2, honest.r2);

  std::vector<SignedMessage> commits = {fx.signed_commit(1, bad.contribution),
                                        fx.signed_commit(2, fx.make_contrib().contribution),
                                        fx.signed_commit(3, fx.make_contrib().contribution)};
  auto reveal = fx.signed_reveal(commits);

  ContributeMsg m;
  m.id = fx.id;
  m.server = 1;
  m.reveal = reveal;
  m.contribution = bad.contribution;
  // VDE proof for the consistent pair, attached to the inconsistent one.
  m.vde = zkp::vde_prove(fx.cfg().a.encryption_key, honest.contribution.ea, honest.r1,
                         fx.cfg().b.encryption_key, honest.contribution.eb, honest.r2,
                         vde_context(fx.id, 1), fx.prng);
  auto env = make_envelope(fx.b(1), encode_body(MsgType::kContribute, m), 0, fx.prng);
  EXPECT_FALSE(fx.contribute_ok(env));
}

TEST(Validity, BlindSignRequestAcceptsHonestEvidence) {
  Fixture fx;
  std::vector<Fixture::Contrib> contribs;
  std::vector<SignedMessage> commits;
  for (ServerRank r = 1; r <= 3; ++r) {
    contribs.push_back(fx.make_contrib());
    commits.push_back(fx.signed_commit(r, contribs.back().contribution));
  }
  auto reveal = fx.signed_reveal(commits);
  BlindEvidence ev;
  std::vector<elgamal::Ciphertext> eas, ebs;
  for (ServerRank r = 1; r <= 2; ++r) {  // f+1 = 2
    ev.contributes.push_back(fx.signed_contribute(r, contribs[r - 1], reveal));
    eas.push_back(contribs[r - 1].contribution.ea);
    ebs.push_back(contribs[r - 1].contribution.eb);
  }
  BlindPayload payload;
  payload.id = fx.id;
  payload.blinded.ea = *fx.cfg().a.encryption_key.product(eas);
  payload.blinded.eb = *fx.cfg().b.encryption_key.product(ebs);

  const std::vector<std::uint8_t> evidence = group::to_bytes(ev);
  EXPECT_TRUE(fx.blind_request_ok(encode_body(MsgType::kBlind, payload), evidence));

  // A payload that is NOT the product of the evidence is rejected.
  BlindPayload wrong = payload;
  wrong.blinded.ea.b = fx.ts.params.mul(wrong.blinded.ea.b, fx.ts.params.g());
  EXPECT_FALSE(fx.blind_request_ok(encode_body(MsgType::kBlind, wrong), evidence));

  // Evidence whose second contribute carries a VDE proof bound to another
  // server's context is rejected, though signatures and commitments check out.
  ContributeMsg m;
  m.id = fx.id;
  m.server = 2;
  m.reveal = reveal;
  m.contribution = contribs[1].contribution;
  m.vde = zkp::vde_prove(fx.cfg().a.encryption_key, m.contribution.ea, contribs[1].r1,
                         fx.cfg().b.encryption_key, m.contribution.eb, contribs[1].r2,
                         vde_context(fx.id, 3), fx.prng);
  BlindEvidence bad_vde = ev;
  bad_vde.contributes[1] =
      make_envelope(fx.b(2), encode_body(MsgType::kContribute, m), 0, fx.prng);
  EXPECT_FALSE(
      fx.blind_request_ok(encode_body(MsgType::kBlind, payload), group::to_bytes(bad_vde)));
}

TEST(Validity, BlindSignRequestRejectsMixedReveals) {
  // The §4.2.1 splice: two contributions embedding different (individually
  // valid) reveal messages must not combine into evidence.
  Fixture fx;
  std::vector<Fixture::Contrib> contribs;
  std::vector<SignedMessage> commits;
  for (ServerRank r = 1; r <= 3; ++r) {
    contribs.push_back(fx.make_contrib());
    commits.push_back(fx.signed_commit(r, contribs.back().contribution));
  }
  auto reveal1 = fx.signed_reveal(commits);
  // A second, distinct-but-valid reveal (commits in different order).
  std::vector<SignedMessage> commits2 = {commits[2], commits[0], commits[1]};
  auto reveal2 = fx.signed_reveal(commits2);

  BlindEvidence ev;
  ev.contributes.push_back(fx.signed_contribute(1, contribs[0], reveal1));
  ev.contributes.push_back(fx.signed_contribute(2, contribs[1], reveal2));
  BlindPayload payload;
  payload.id = fx.id;
  payload.blinded.ea = *fx.cfg().a.encryption_key.product(
      std::vector<elgamal::Ciphertext>{contribs[0].contribution.ea, contribs[1].contribution.ea});
  payload.blinded.eb = *fx.cfg().b.encryption_key.product(
      std::vector<elgamal::Ciphertext>{contribs[0].contribution.eb, contribs[1].contribution.eb});
  EXPECT_FALSE(fx.blind_request_ok(encode_body(MsgType::kBlind, payload), group::to_bytes(ev)));
}

TEST(Validity, BlindSignRequestRejectsDuplicateServers) {
  Fixture fx;
  std::vector<Fixture::Contrib> contribs;
  std::vector<SignedMessage> commits;
  for (ServerRank r = 1; r <= 3; ++r) {
    contribs.push_back(fx.make_contrib());
    commits.push_back(fx.signed_commit(r, contribs.back().contribution));
  }
  auto reveal = fx.signed_reveal(commits);
  BlindEvidence ev;
  auto c1 = fx.signed_contribute(1, contribs[0], reveal);
  ev.contributes = {c1, c1};
  BlindPayload payload;
  payload.id = fx.id;
  auto sq = fx.cfg().a.encryption_key.multiply(contribs[0].contribution.ea,
                                               contribs[0].contribution.ea);
  auto sq2 = fx.cfg().b.encryption_key.multiply(contribs[0].contribution.eb,
                                                contribs[0].contribution.eb);
  ASSERT_TRUE(sq && sq2);
  payload.blinded.ea = *sq;
  payload.blinded.eb = *sq2;
  EXPECT_FALSE(fx.blind_request_ok(encode_body(MsgType::kBlind, payload), group::to_bytes(ev)));
}

TEST(Validity, ServiceSignedBlindRoundTrip) {
  // Threshold-sign a blind payload with B's (reconstructed) signing key and
  // check the Fig. 5 "blind" rule. Reconstructing the key here stands in for
  // the full signing sub-protocol, which is tested in thresh_sign_test.
  Fixture fx;
  Prng prng(55);
  // Reconstruct B's signing key from shares.
  std::vector<threshold::Share> shares = {fx.ts.b_secrets[0].sign_share,
                                          fx.ts.b_secrets[1].sign_share};
  Bigint sign_key = threshold::shamir_reconstruct(shares, fx.ts.params.q());
  zkp::SchnorrSigningKey sk = zkp::SchnorrSigningKey::from_private(fx.ts.params, sign_key);

  BlindPayload payload;
  payload.id = fx.id;
  auto c = fx.make_contrib();
  payload.blinded = c.contribution;
  ServiceSignedMsg msg;
  msg.service = static_cast<std::uint8_t>(ServiceRole::kServiceB);
  msg.body = encode_body(MsgType::kBlind, payload);
  msg.sig = sk.sign(msg.body, prng);

  EXPECT_TRUE(check_blind(fx.cfg(), msg).has_value());

  ServiceSignedMsg tampered = msg;
  tampered.body.back() ^= 1;
  EXPECT_FALSE(check_blind(fx.cfg(), tampered).has_value());

  ServiceSignedMsg wrong_service = msg;
  wrong_service.service = static_cast<std::uint8_t>(ServiceRole::kServiceA);
  EXPECT_FALSE(check_blind(fx.cfg(), wrong_service).has_value());
}

}  // namespace
}  // namespace dblind::core

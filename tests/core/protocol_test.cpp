// End-to-end integration tests of the complete re-encryption protocol
// (paper Figure 4) in the asynchronous simulator, under honest, crash, and
// Byzantine conditions.
#include <gtest/gtest.h>

#include "core/system.hpp"
#include "core/validity.hpp"
#include "tests/core/test_util.hpp"
#include "threshold/thresh_decrypt.hpp"

namespace dblind::core {
namespace {

using mpz::Bigint;
using Behavior = ProtocolServer::Behavior;

SystemOptions base_options(std::uint64_t seed) {
  SystemOptions o;
  o.seed = seed;
  return o;
}

// Asserts: the protocol completed, every honest B server holds a result, and
// every result decrypts (under B's key) to the original plaintext — the
// paper's Progress + Integrity criteria.
void expect_success(System& sys, TransferId t) {
  ASSERT_TRUE(sys.run_to_completion());
  const Bigint& m = sys.plaintext_of(t);
  for (ServerRank r = 1; r <= sys.b_cfg().n; ++r) {
    if (!sys.is_honest_b(r)) continue;
    auto res = sys.result(t, r);
    ASSERT_TRUE(res.has_value()) << "B server " << r;
    EXPECT_EQ(sys.oracle_decrypt_b(*res), m) << "B server " << r;
    // The result is a *fresh* ciphertext under K_B, not the original one
    // under K_A re-labelled.
    EXPECT_TRUE(sys.config().params.in_zp_star(res->a));
  }
}

TEST(Protocol, HonestRunCompletes) {
  System sys(base_options(1));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(424242)));
  expect_success(sys, t);
}

TEST(Protocol, ResultIsCiphertextNotPlaintext) {
  System sys(base_options(2));
  Bigint m = sys.config().params.encode_message(Bigint(77));
  TransferId t = sys.add_transfer(m);
  ASSERT_TRUE(sys.run_to_completion());
  auto res = sys.result(t);
  ASSERT_TRUE(res.has_value());
  // Neither component equals the plaintext.
  EXPECT_NE(res->a, m);
  EXPECT_NE(res->b, m);
  // And it does not decrypt under A's key to m (it is bound to B).
  EXPECT_NE(sys.oracle_decrypt_a(*res), m);
}

TEST(Protocol, MultipleTransfersComplete) {
  System sys(base_options(3));
  std::vector<TransferId> ids;
  for (int i = 1; i <= 3; ++i)
    ids.push_back(sys.add_transfer(sys.config().params.encode_message(Bigint(100 + i))));
  ASSERT_TRUE(sys.run_to_completion());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    auto res = sys.result(ids[i]);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(ids[i]));
  }
}

TEST(Protocol, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    System sys(base_options(seed));
    sys.add_transfer(sys.config().params.encode_message(Bigint(5)));
    EXPECT_TRUE(sys.run_to_completion());
    return sys.sim().stats().end_time;
  };
  EXPECT_EQ(run(10), run(10));
}

TEST(Protocol, SurvivesCrashedBServer) {
  // A non-coordinator B server crashes before start.
  SystemOptions o = base_options(4);
  System sys(std::move(o));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(9)));
  sys.sim().crash_at(sys.config().b.node_of(4), 0);
  ASSERT_TRUE(sys.run_to_completion());
  auto res = sys.result(t, 1);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t));
}

TEST(Protocol, SurvivesCrashedDesignatedCoordinator) {
  // Rank 1 (the designated coordinator) is dead from the start; the rank-2
  // backup fires after its delay and completes the protocol (§4.1).
  System sys(base_options(5));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(11)));
  sys.sim().crash_at(sys.config().b.node_of(1), 0);
  ASSERT_TRUE(sys.run_to_completion());
  for (ServerRank r = 2; r <= 4; ++r) {
    auto res = sys.result(t, r);
    ASSERT_TRUE(res.has_value()) << r;
    EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t));
  }
  // Completion necessarily waited for the backup delay.
  EXPECT_GT(sys.sim().stats().end_time, 400'000u);
}

TEST(Protocol, SurvivesCrashedAServer) {
  // One A server (a decryption-share provider and the designated responder)
  // crashes; backups at A take over.
  System sys(base_options(6));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(13)));
  sys.sim().crash_at(sys.config().a.node_of(1), 0);
  expect_success(sys, t);
}

TEST(Protocol, SurvivesMidProtocolCoordinatorCrash) {
  // The designated coordinator dies mid-run (after ~one round-trip).
  System sys(base_options(7));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(17)));
  sys.sim().crash_at(sys.config().b.node_of(1), 30'000);
  ASSERT_TRUE(sys.run_to_completion());
  for (ServerRank r = 2; r <= 4; ++r) {
    auto res = sys.result(t, r);
    ASSERT_TRUE(res.has_value()) << r;
    EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t));
  }
}

TEST(Protocol, ToleratesInconsistentContribution) {
  // A Byzantine B server sends (E_A(ρ), E_B(ρ')) with ρ != ρ'; VDE
  // verification discards it (§4.2.2) and the protocol still completes
  // correctly.
  SystemOptions o = base_options(8);
  o.b_behaviors = {Behavior::kHonest, Behavior::kHonest, Behavior::kInconsistentContribution,
                   Behavior::kHonest};
  System sys(std::move(o));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(19)));
  ASSERT_TRUE(sys.run_to_completion());
  for (ServerRank r : {1u, 2u, 4u}) {
    auto res = sys.result(t, r);
    ASSERT_TRUE(res.has_value()) << r;
    EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t)) << r;
  }
}

TEST(Protocol, ToleratesWithheldContribution) {
  // A Byzantine server commits but never contributes — exactly why the
  // coordinator solicits 2f+1 commitments (§4.2.1).
  SystemOptions o = base_options(9);
  o.b_behaviors = {Behavior::kHonest, Behavior::kWithholdContribution, Behavior::kHonest,
                   Behavior::kHonest};
  System sys(std::move(o));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(23)));
  ASSERT_TRUE(sys.run_to_completion());
  auto res = sys.result(t, 1);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t));
}

TEST(Protocol, ToleratesWithheldPartialSignature) {
  // A signing member goes silent at the partial-signature stage; the signing
  // coordinator's retry excludes it and completes with a different quorum.
  SystemOptions o = base_options(10);
  o.b_behaviors = {Behavior::kHonest, Behavior::kWithholdPartial, Behavior::kHonest,
                   Behavior::kHonest};
  System sys(std::move(o));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(29)));
  ASSERT_TRUE(sys.run_to_completion());
  auto res = sys.result(t, 1);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t));
}

TEST(Protocol, BogusBlindCoordinatorGainsNothing) {
  // The designated coordinator is compromised and tries to get B to
  // threshold-sign a fabricated blinding pair (it would then know ρ̂).
  // Honest members reject the evidence-free signing request; the honest
  // backup coordinator completes the transfer.
  SystemOptions o = base_options(11);
  o.b_behaviors = {Behavior::kBogusBlindCoordinator, Behavior::kHonest, Behavior::kHonest,
                   Behavior::kHonest};
  System sys(std::move(o));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(31)));
  ASSERT_TRUE(sys.run_to_completion());
  EXPECT_EQ(sys.b_server(1).attack_successes(), 0);
  for (ServerRank r = 2; r <= 4; ++r) {
    auto res = sys.result(t, r);
    ASSERT_TRUE(res.has_value()) << r;
    EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t)) << r;
  }
}

TEST(Protocol, AdaptiveCancelAttackDefeated) {
  // The §4.2.1 adaptive-contribution attack, mounted by a compromised
  // designated coordinator against the full protocol: collect honest
  // contributions, craft a canceling one, splice reveal rounds. Every
  // honest signing member rejects the spliced evidence (same-reveal rule +
  // VDE), so the adversary never obtains a service signature; honest
  // backups preserve liveness and integrity.
  SystemOptions o = base_options(12);
  o.b_behaviors = {Behavior::kAdaptiveCancelCoordinator, Behavior::kHonest, Behavior::kHonest,
                   Behavior::kHonest};
  System sys(std::move(o));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(37)));
  ASSERT_TRUE(sys.run_to_completion());
  EXPECT_EQ(sys.b_server(1).attack_successes(), 0);
  for (ServerRank r = 2; r <= 4; ++r) {
    auto res = sys.result(t, r);
    ASSERT_TRUE(res.has_value()) << r;
    EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t)) << r;
  }
}

TEST(Protocol, LargerServiceCompletes) {
  // n = 7, f = 2: two backup coordinators, 5-commit reveals, 3-share
  // decryption and signing quorums.
  SystemOptions o = base_options(13);
  o.a = {7, 2};
  o.b = {7, 2};
  System sys(std::move(o));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(41)));
  expect_success(sys, t);
}

TEST(Protocol, AsymmetricServicesComplete) {
  SystemOptions o = base_options(14);
  o.a = {4, 1};
  o.b = {7, 2};
  System sys(std::move(o));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(43)));
  expect_success(sys, t);
}

TEST(Protocol, DkgSetupWorks) {
  SystemOptions o = base_options(15);
  o.use_dkg = true;
  System sys(std::move(o));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(47)));
  expect_success(sys, t);
}

TEST(Protocol, PrecomputedContributionsComplete) {
  SystemOptions o = base_options(16);
  o.protocol.precompute_contributions = true;
  System sys(std::move(o));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(53)));
  expect_success(sys, t);
}

// Honest servers coordinate only as ranks 1..f+1 (§4.1), so an init from a
// higher rank is Byzantine: a correct contributor drops it before any group
// work — no signature check, no bundle, no state, no commit. A rank-1 init
// is the control: same path, accepted.
TEST(Protocol, InitAboveMaxCoordinatorsCostsNothing) {
  auto ts = testing::TestSystem::make(21);
  mpz::Prng prng(4);
  ProtocolServer server(ts.cfg, ts.b_secrets[1], ProtocolOptions{});
  testing::NullContext ctx(3);
  server.on_start(ctx);
  const group::GroupParams& gp = server.config().params;
  auto frame_init = [&](ServerRank coordinator) {
    return testing::framed(make_envelope(
        ts.b_secrets[coordinator - 1],
        encode_body(MsgType::kInit, InitMsg{InstanceId{1, coordinator, 0}}), 0, prng));
  };

  const ServerRank above = static_cast<ServerRank>(ts.cfg.b.cfg.f + 2);
  const std::vector<std::uint8_t> rogue = frame_init(above);
  const std::uint64_t ops = gp.group_op_count();
  server.on_message(ctx, ts.cfg.b.node_of(above), rogue);
  EXPECT_EQ(gp.group_op_count(), ops);
  EXPECT_EQ(ctx.sent, 0);
  EXPECT_EQ(server.contributor_instances(), 0u);

  const std::vector<std::uint8_t> honest = frame_init(1);
  server.on_message(ctx, ts.cfg.b.node_of(1), honest);
  EXPECT_GT(gp.group_op_count(), ops);
  EXPECT_EQ(ctx.sent, 1);  // the commit
  EXPECT_EQ(server.contributor_instances(), 1u);
}

// A signing member holds its nonce k_i (and a copy of x_i) only until it
// sends s_i = k_i + e·x_i, or until its session's quorum leaves it out:
// whoever read k_i afterwards would learn x_i. Once a lossless run's traffic
// drains, no server holds one.
TEST(Protocol, SigningNoncesReleasedAfterUse) {
  System sys(base_options(29));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(2929)));
  expect_success(sys, t);
  sys.sim().run();
  for (ServerRank r = 1; r <= 4; ++r) {
    EXPECT_EQ(sys.a_server(r).signing_nonces_held(), 0u) << "A rank " << r;
    EXPECT_EQ(sys.b_server(r).signing_nonces_held(), 0u) << "B rank " << r;
  }
}

TEST(Protocol, BlindingRunsBeforeSecretExists) {
  // Step flexibility (§1/§3): the whole distributed blinding protocol and
  // the blind message precede the existence of E_A(m). A parks the blind
  // message and resumes when the secret arrives.
  SystemOptions o = base_options(17);
  System sys(std::move(o));
  // Secret only materializes at t = 2s — far after blinding completes.
  TransferId t = sys.add_transfer_at(sys.config().params.encode_message(Bigint(59)), 2'000'000);
  ASSERT_TRUE(sys.run_to_completion());
  auto res = sys.result(t, 1);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t));
  EXPECT_GE(sys.sim().stats().end_time, 2'000'000u);
}

TEST(Protocol, AllCoordinatorsEagerOptionWorks) {
  SystemOptions o = base_options(18);
  o.protocol.coordinator_backup_delay = 0;  // all f+1 start immediately
  System sys(std::move(o));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(61)));
  expect_success(sys, t);
}

TEST(Protocol, ResultConsistencyAcrossServers) {
  // All honest B servers converge on *some* valid ciphertext of m (they may
  // differ between servers when several coordinators finish).
  System sys(base_options(19));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(67)));
  ASSERT_TRUE(sys.run_to_completion());
  for (ServerRank r = 1; r <= 4; ++r) {
    auto res = sys.result(t, r);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t));
  }
}

TEST(Protocol, IdempotentUnderMessageDuplication) {
  // The asynchronous model permits duplicated delivery; every handler must
  // be idempotent. 40% of messages are delivered twice.
  System sys(base_options(21));
  sys.sim().set_duplication_percent(40);
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(73)));
  expect_success(sys, t);
}

TEST(Protocol, DuplicationPlusByzantineCoordinator) {
  SystemOptions o = base_options(22);
  o.b_behaviors = {Behavior::kAdaptiveCancelCoordinator, Behavior::kHonest, Behavior::kHonest,
                   Behavior::kHonest};
  System sys(std::move(o));
  sys.sim().set_duplication_percent(30);
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(79)));
  ASSERT_TRUE(sys.run_to_completion());
  EXPECT_EQ(sys.b_server(1).attack_successes(), 0);
  for (ServerRank r = 2; r <= 4; ++r) {
    auto res = sys.result(t, r);
    ASSERT_TRUE(res.has_value()) << r;
    EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t)) << r;
  }
}

// Liveness + integrity across many schedules: the protocol is a pure
// function of the seed, and every seed must succeed.
class ProtocolSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolSeedSweep, CompletesCorrectly) {
  System sys(base_options(GetParam()));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(101)));
  ASSERT_TRUE(sys.run_to_completion());
  auto res = sys.result(t);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolSeedSweep,
                         ::testing::Values(1001u, 1002u, 1003u, 1004u, 1005u, 1006u, 1007u,
                                           1008u, 1009u, 1010u));

TEST(Protocol, ExtendedConfigurationNGreaterThan3fPlus1) {
  // Footnote 3: "The protocols are easily extended to cases where
  // 3f + 1 < n holds." Quorum sizes depend only on f.
  SystemOptions o = base_options(23);
  o.a = {6, 1};
  o.b = {9, 2};
  System sys(std::move(o));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(83)));
  expect_success(sys, t);
}

TEST(Protocol, SurvivesDosSlowedCoordinator) {
  // A delay-injection adversary stretches all traffic touching B's
  // designated coordinator 40x; the protocol completes anyway (the central
  // asynchronous-model claim: timing attacks cost latency, never safety).
  SystemOptions o = base_options(26);
  o.delay_policy = std::make_unique<net::TargetedSlowdown>(
      500, 20'000, std::set<net::NodeId>{static_cast<net::NodeId>(o.a.n)}, 40);
  System sys(std::move(o));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(89)));
  expect_success(sys, t);
}

TEST(Protocol, AddTransferValidatesPlaintext) {
  System sys(base_options(24));
  // Not a group element: p-1 is a non-residue.
  EXPECT_THROW((void)sys.add_transfer(sys.config().params.p() - Bigint(1)),
               std::invalid_argument);
  EXPECT_THROW((void)sys.add_transfer(Bigint(0)), std::invalid_argument);
}

TEST(Protocol, ResultBeforeRunIsEmpty) {
  System sys(base_options(25));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(3)));
  EXPECT_FALSE(sys.result(t).has_value());
}

TEST(Protocol, StatsAreAccountedFor) {
  System sys(base_options(20));
  sys.add_transfer(sys.config().params.encode_message(Bigint(71)));
  ASSERT_TRUE(sys.run_to_completion());
  const net::NetStats& stats = sys.sim().stats();
  EXPECT_GT(stats.messages_sent, 0u);
  EXPECT_GT(stats.bytes_sent, 0u);
  EXPECT_GT(stats.end_time, 0u);
  EXPECT_GT(sys.service_cpu_seconds(ServiceRole::kServiceA), 0.0);
  EXPECT_GT(sys.service_cpu_seconds(ServiceRole::kServiceB), 0.0);
}


// ---- signing-member rules on hand-signed frames ------------------------------

// A service-A server of rank 2 as a threshold-signing member for requester
// rank 1, driven on a NullContext. The kDone request carries valid evidence:
// a blind message signed with B's reconstructed signing key (standing in for
// B's signing round) and f+1 decryption shares.
struct SigningFixture {
  static constexpr std::uint64_t kSession = 5;
  testing::TestSystem ts = testing::TestSystem::make(71);
  mpz::Prng prng{72};
  testing::NullContext ctx{73};
  ProtocolServer member{ts.cfg, ts.a_secrets[1], ProtocolOptions{}};
  std::vector<std::uint8_t> request;  // the framed kSignRequest

  SigningFixture() {
    const SystemConfig& cfg = ts.cfg;
    const group::GroupParams& gp = cfg.params;
    const InstanceId id{1, 1, 0};
    const elgamal::Ciphertext stored = cfg.a.encryption_key.encrypt(gp.random_element(prng), prng);
    BlindPayload blind{id, {}};
    const group::Element rho = gp.random_element(prng);
    blind.blinded.ea = cfg.a.encryption_key.encrypt(rho, prng);
    blind.blinded.eb = cfg.b.encryption_key.encrypt(rho, prng);
    const std::vector<threshold::Share> b_quorum = {ts.b_secrets[0].sign_share,
                                                    ts.b_secrets[1].sign_share};
    const zkp::SchnorrSigningKey b_sign =
        zkp::SchnorrSigningKey::from_private(gp, threshold::shamir_reconstruct(b_quorum, gp.q()));
    ServiceSignedMsg blind_env;
    blind_env.service = static_cast<std::uint8_t>(ServiceRole::kServiceB);
    blind_env.body = encode_body(MsgType::kBlind, blind);
    blind_env.sig = b_sign.sign(blind_env.body, prng);

    const elgamal::Ciphertext ea_m_rho = *cfg.a.encryption_key.multiply(stored, blind.blinded.ea);
    std::vector<threshold::DecryptionShare> shares;
    for (std::uint32_t i : {1u, 2u}) {
      shares.push_back(threshold::make_decryption_share(
          gp, ea_m_rho, ts.a_secrets[i - 1].enc_share, decrypt_context(id), prng));
    }
    const group::Element m_rho = threshold::combine_decryption(gp, ea_m_rho, shares);
    DonePayload done{id, stored,
                     cfg.b.encryption_key.juxtapose(
                         m_rho, cfg.b.encryption_key.inverse(blind.blinded.eb))};
    Writer w;
    DoneEvidence{blind_env, m_rho, shares}.encode(w);
    SignRequestMsg req{kSession, static_cast<std::uint8_t>(SignPurpose::kDone),
                       encode_body(MsgType::kDone, done), w.take()};
    request = from_requester(MsgType::kSignRequest, req);

    member.store_secret(id.transfer, stored);
    member.on_start(ctx);
  }

  [[nodiscard]] const group::GroupParams& gp() const { return ts.cfg.params; }
  [[nodiscard]] net::NodeId requester() const { return ts.cfg.a.node_of(1); }

  template <typename T>
  std::vector<std::uint8_t> from_requester(MsgType type, const T& msg) {
    return testing::framed(make_envelope(ts.a_secrets[0], encode_body(type, msg), 0, prng));
  }
  // Feeds one frame from the requester; returns what the member sent back.
  std::vector<std::vector<std::uint8_t>> feed(const std::vector<std::uint8_t>& frame) {
    const std::size_t before = ctx.frames.size();
    member.on_message(ctx, requester(), frame);
    std::vector<std::vector<std::uint8_t>> out;
    for (std::size_t i = before; i < ctx.frames.size(); ++i) {
      EXPECT_EQ(ctx.frames[i].first, requester());
      out.push_back(ctx.frames[i].second);
    }
    return out;
  }
  template <typename T>
  T reply_as(MsgType type, const std::vector<std::uint8_t>& frame) const {
    return decode_as<T>(type, testing::body_of(frame), gp());
  }
  // A quorum member the test plays itself (rank 1 or 3), with a fresh nonce.
  threshold::SigningMember peer(ServerRank rank) {
    return threshold::SigningMember(gp(), ts.a_secrets[rank - 1].sign_share, prng);
  }
};

// A duplicate request is answered with the cached commit frame: the same
// bytes, and no second nonce. It still pays the envelope and evidence
// re-check, which runs before the duplicate lookup, but not the nonce
// commitment a fresh session costs.
TEST(SigningRound, DuplicateRequestGetsSameCommitReply) {
  SigningFixture fx;
  std::uint64_t ops = fx.gp().group_op_count();
  const auto first = fx.feed(fx.request);
  const std::uint64_t first_ops = fx.gp().group_op_count() - ops;
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(fx.member.signing_nonces_held(), 1u);

  ops = fx.gp().group_op_count();
  const auto again = fx.feed(fx.request);
  const std::uint64_t again_ops = fx.gp().group_op_count() - ops;
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again.front(), first.front());
  EXPECT_EQ(fx.member.signing_nonces_held(), 1u);
  EXPECT_LT(again_ops, first_ops);
}

// A member signs at most once per session: a duplicate of the reveal set it
// answered gets the cached partial, and a different reveal set gets nothing.
TEST(SigningRound, SecondRevealSetGetsNoPartial) {
  SigningFixture fx;
  const auto commit = fx.feed(fx.request);
  ASSERT_EQ(commit.size(), 1u);
  const auto mine =
      fx.reply_as<SignCommitReplyMsg>(MsgType::kSignCommitReply, commit.front()).commit;
  threshold::SigningMember rank1 = fx.peer(1);
  const auto reveal = fx.feed(fx.from_requester(
      MsgType::kSignQuorum, SignQuorumMsg{SigningFixture::kSession, {rank1.commitment(), mine}}));
  ASSERT_EQ(reveal.size(), 1u);
  const auto my_reveal =
      fx.reply_as<SignRevealReplyMsg>(MsgType::kSignRevealReply, reveal.front()).reveal;

  const auto set = fx.from_requester(
      MsgType::kSignRevealSet, SignRevealSetMsg{SigningFixture::kSession, {rank1.reveal(), my_reveal}});
  const auto partial = fx.feed(set);
  ASSERT_EQ(partial.size(), 1u);
  (void)fx.reply_as<SignPartialReplyMsg>(MsgType::kSignPartialReply, partial.front());
  EXPECT_EQ(fx.member.signing_nonces_held(), 0u);
  EXPECT_EQ(fx.feed(set), partial);

  threshold::SigningMember other = fx.peer(1);
  EXPECT_TRUE(fx.feed(fx.from_requester(MsgType::kSignRevealSet,
                                        SignRevealSetMsg{SigningFixture::kSession,
                                                         {other.reveal(), my_reveal}}))
                  .empty());
}

// A quorum that leaves the member out means its nonce will never be used:
// the member releases it at once and reveals nothing.
TEST(SigningRound, QuorumWithoutMemberReleasesNonce) {
  SigningFixture fx;
  ASSERT_EQ(fx.feed(fx.request).size(), 1u);
  ASSERT_EQ(fx.member.signing_nonces_held(), 1u);
  threshold::SigningMember rank1 = fx.peer(1);
  threshold::SigningMember rank3 = fx.peer(3);
  EXPECT_TRUE(fx.feed(fx.from_requester(MsgType::kSignQuorum,
                                        SignQuorumMsg{SigningFixture::kSession,
                                                      {rank1.commitment(), rank3.commitment()}}))
                  .empty());
  EXPECT_EQ(fx.member.signing_nonces_held(), 0u);
}

}  // namespace
}  // namespace dblind::core

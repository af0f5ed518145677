// End-to-end integration tests of the complete re-encryption protocol
// (paper Figure 4) in the asynchronous simulator, under honest, crash, and
// Byzantine conditions.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>

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
    EXPECT_TRUE(sys.config().params.in_group(res->a));
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

// A's designated responder receives everything and sends nothing. A rank 2
// arms no timer: it answers a blind only when one arrives a backup delay
// after the first blind of the transfer it received, which B's coordinator
// supplies by re-sending its blind until B holds a result.
TEST(Protocol, SilentResponderIsReplacedOnALateBlind) {
  obs::MemoryTraceRecorder trace;
  SystemOptions o = base_options(32);
  o.protocol.trace = &trace;
  o.a_behaviors = {Behavior::kSilent, Behavior::kHonest, Behavior::kHonest, Behavior::kHonest};
  System sys(std::move(o));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(3232)));
  expect_success(sys, t);

  const net::NodeId a2 = sys.config().a.node_of(2);
  std::set<std::uint64_t> b_nodes;
  for (ServerRank r = 1; r <= sys.b_cfg().n; ++r) b_nodes.insert(sys.b_node(r));
  std::optional<std::uint64_t> first_blind, decrypt_begin;
  for (const obs::TraceEvent& e : trace.events()) {
    if (e.node != a2) continue;
    // B sends A nothing but blind messages.
    if (e.kind == obs::EventKind::kMsgRecv && b_nodes.contains(e.peer) && !first_blind)
      first_blind = e.ts;
    if (e.kind == obs::EventKind::kDecryptBegin && !decrypt_begin) decrypt_begin = e.ts;
  }
  ASSERT_TRUE(first_blind.has_value());
  ASSERT_TRUE(decrypt_begin.has_value());
  EXPECT_GE(*decrypt_begin - *first_blind, ProtocolOptions{}.backup_delay);
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

// A contributor looks an init's instance up before it checks the signature.
// An init for an instance it committed to costs it one decode: a
// byte-identical duplicate of the init it checked gets the cached commit
// bytes, and any other init for that instance is dropped. A fresh init, or
// one for an instance whose bundle was built ahead but not yet committed to,
// is still checked first.
TEST(Protocol, InitIsLookedUpBeforeItIsVerified) {
  auto ts = testing::TestSystem::make(26);
  mpz::Prng prng(12);
  ProtocolServer server(ts.cfg, ts.b_secrets[2], ProtocolOptions{});  // B rank 3
  server.register_transfer(1);
  testing::NullContext ctx(13);
  server.on_start(ctx);
  const InstanceId precomputed{1, 1, 0};
  ASSERT_EQ(server.contributor_instances(), 1u);
  ASSERT_EQ(ctx.sent, 0);
  const group::GroupParams& gp = server.config().params;
  auto init = [&](ServerRank signer, const InstanceId& id) {
    SignedMessage env = make_envelope(ts.b_secrets[signer - 1],
                                      encode_body(MsgType::kInit, InitMsg{id}), 0, prng);
    env.signer = id.coordinator;
    return testing::framed(env);
  };
  auto ops_of = [&](const std::vector<std::uint8_t>& frame) {
    const std::uint64_t before = gp.group_op_count();
    server.on_message(ctx, ts.cfg.b.node_of(1), frame);
    return gp.group_op_count() - before;
  };

  // Rank 2's signature on an init that names coordinator 1, for the
  // precomputed instance: checked and rejected.
  EXPECT_GT(ops_of(init(2, precomputed)), 0u);
  EXPECT_EQ(ctx.sent, 0);
  // The control: the coordinator's own init is checked and committed to.
  const std::vector<std::uint8_t> first = init(1, precomputed);
  EXPECT_GT(ops_of(first), 0u);
  ASSERT_EQ(ctx.sent, 1);
  const std::vector<std::uint8_t> commit = ctx.frames[0].second;
  // Its byte-identical duplicate: the cached commit, no check.
  EXPECT_EQ(ops_of(first), 0u);
  ASSERT_EQ(ctx.sent, 2);
  EXPECT_EQ(ctx.frames[1].second, commit);
  // Another valid init for the committed instance: dropped unchecked.
  const std::vector<std::uint8_t> second = init(1, precomputed);
  ASSERT_NE(second, first);
  EXPECT_EQ(ops_of(second), 0u);
  EXPECT_EQ(ctx.sent, 2);
  // A fresh instance: checked and committed to.
  EXPECT_GT(ops_of(init(1, InstanceId{2, 1, 0})), 0u);
  EXPECT_EQ(ctx.sent, 3);
  EXPECT_EQ(server.contributor_instances(), 2u);
}

// A contributor looks a reveal's instance up before it checks a signature.
// A reveal for an instance it never committed to, or another reveal for an
// instance it already answered, costs it no group op; a byte-identical
// duplicate of the answered reveal gets the cached contribute bytes, also
// without a check.
TEST(Protocol, RevealIsLookedUpBeforeItIsVerified) {
  auto ts = testing::TestSystem::make(23);
  mpz::Prng prng(6);
  ProtocolServer server(ts.cfg, ts.b_secrets[1], ProtocolOptions{});  // B rank 2
  testing::NullContext ctx(7);
  server.on_start(ctx);
  const group::GroupParams& gp = server.config().params;
  auto sign = [&](ServerRank signer, MsgType type, const auto& msg) {
    return make_envelope(ts.b_secrets[signer - 1], encode_body(type, msg), 0, prng);
  };
  // A reveal by coordinator 1 of `id`, with commits by ranks 1 and 3 and `mine`.
  auto reveal = [&](const InstanceId& id, const SignedMessage& mine) {
    const Contribution any{ts.cfg.a.encryption_key.encrypt(gp.g(), prng),
                           ts.cfg.b.encryption_key.encrypt(gp.g(), prng)};
    return testing::framed(sign(1, MsgType::kReveal,
                                RevealMsg{id,
                                          {sign(1, MsgType::kCommit,
                                                CommitMsg{id, 1, any.commitment_digest()}),
                                           mine,
                                           sign(3, MsgType::kCommit,
                                                CommitMsg{id, 3, any.commitment_digest()})}}));
  };
  const net::NodeId coordinator = ts.cfg.b.node_of(1);
  const InstanceId id{1, 1, 0};
  server.on_message(ctx, coordinator, testing::framed(sign(1, MsgType::kInit, InitMsg{id})));
  ASSERT_EQ(ctx.sent, 1);
  const SignedMessage commit = group::from_bytes<SignedMessage>(
      static_cast<std::uint8_t>(WireKind::kServerSigned), ctx.frames[0].second, &gp);

  // An instance this server never committed to.
  const InstanceId other{2, 1, 0};
  const std::vector<std::uint8_t> unknown =
      reveal(other, sign(2, MsgType::kCommit, CommitMsg{other, 2, hash::Digest{}}));
  std::uint64_t ops = gp.group_op_count();
  server.on_message(ctx, coordinator, unknown);
  EXPECT_EQ(gp.group_op_count(), ops);
  EXPECT_EQ(ctx.sent, 1);

  // The control: a valid reveal naming our commit is checked and answered.
  const std::vector<std::uint8_t> first = reveal(id, commit);
  server.on_message(ctx, coordinator, first);
  ASSERT_EQ(ctx.sent, 2);
  EXPECT_EQ(testing::body_of(ctx.frames[1].second)[0],
            static_cast<std::uint8_t>(MsgType::kContribute));
  const std::vector<std::uint8_t> contribute = ctx.frames[1].second;

  // Its byte-identical duplicate: the cached contribute, no check.
  ops = gp.group_op_count();
  server.on_message(ctx, coordinator, first);
  EXPECT_EQ(gp.group_op_count(), ops);
  ASSERT_EQ(ctx.sent, 3);
  EXPECT_EQ(ctx.frames[2].second, contribute);

  // A second, equally valid reveal of the answered instance: dropped unchecked.
  const std::vector<std::uint8_t> second = reveal(id, commit);
  ASSERT_NE(second, first);
  ops = gp.group_op_count();
  server.on_message(ctx, coordinator, second);
  EXPECT_EQ(gp.group_op_count(), ops);
  EXPECT_EQ(ctx.sent, 3);
}

// A coordinator looks a commit's instance up before it checks a signature.
// A commit for an instance it does not coordinate, another commit from a
// server it already holds one from, and a commit that arrives after the
// reveal cost it no group op. A forged commit for the live instance is still
// checked, and rejected: the real commit of the server it names counts.
TEST(Protocol, CommitIsLookedUpBeforeItIsVerified) {
  auto ts = testing::TestSystem::make(24);
  mpz::Prng prng(8);
  ProtocolServer server(ts.cfg, ts.b_secrets[0], ProtocolOptions{});  // B rank 1 coordinates
  testing::NullContext ctx(9);
  server.on_start(ctx);
  const group::GroupParams& gp = server.config().params;
  const TransferRequestMsg request{1, ts.cfg.a.encryption_key.encrypt(gp.g(), prng)};
  server.on_message(ctx, 0, testing::framed(encode_body(MsgType::kTransferRequest, request)));
  const InstanceId id{1, 1, 0};
  auto commit_by = [&](ServerRank signer, ServerRank named, const InstanceId& of) {
    SignedMessage env = make_envelope(ts.b_secrets[signer - 1],
                                      encode_body(MsgType::kCommit, CommitMsg{of, named, {}}), 0,
                                      prng);
    env.signer = named;
    return testing::framed(env);
  };
  auto commit = [&](ServerRank signer, const InstanceId& of) {
    return commit_by(signer, signer, of);
  };
  auto ops_of = [&](ServerRank from, const std::vector<std::uint8_t>& frame) {
    const std::uint64_t before = gp.group_op_count();
    server.on_message(ctx, ts.cfg.b.node_of(from), frame);
    return gp.group_op_count() - before;
  };
  auto reveals_sent = [&] {
    return std::count_if(ctx.frames.begin(), ctx.frames.end(), [](const auto& sent) {
      const std::vector<std::uint8_t> body = testing::body_of(sent.second);
      return !body.empty() && peek_type(body) == MsgType::kReveal;
    });
  };

  // An instance this server does not coordinate.
  EXPECT_EQ(ops_of(2, commit(2, InstanceId{2, 1, 0})), 0u);
  // The control: a valid commit is checked and held.
  const std::vector<std::uint8_t> first = commit(2, id);
  EXPECT_GT(ops_of(2, first), 0u);
  // Its duplicate, and another commit from the same server: dropped unchecked.
  EXPECT_EQ(ops_of(2, first), 0u);
  EXPECT_EQ(ops_of(2, commit(2, id)), 0u);
  // Rank 4's signature on a commit that names rank 3: checked and rejected,
  // so rank 3's own commit is checked and counts.
  EXPECT_GT(ops_of(4, commit_by(4, 3, id)), 0u);
  EXPECT_GT(ops_of(3, commit(3, id)), 0u);
  EXPECT_EQ(reveals_sent(), 0);
  EXPECT_GT(ops_of(4, commit(4, id)), 0u);  // the 2f+1st: the reveal goes out
  EXPECT_GT(reveals_sent(), 0);
  // A late commit: dropped unchecked.
  EXPECT_EQ(ops_of(1, commit(1, id)), 0u);
}

// A coordinator looks a contribute's instance up before it checks a
// signature or a VDE proof. A contribute for an instance it does not
// coordinate, one that answers another reveal, a second one from a server
// already counted and one that arrives once signing has begun cost it only
// their decode. A body that does not decode is still a failed verdict.
TEST(Protocol, ContributeIsLookedUpBeforeItIsVerified) {
  auto ts = testing::TestSystem::make(25);
  mpz::Prng prng(10);
  obs::MemoryTraceRecorder trace;
  ProtocolServer server(ts.cfg, ts.b_secrets[0], ProtocolOptions{.trace = &trace});  // B rank 1
  testing::NullContext ctx(11);
  server.on_start(ctx);
  const group::GroupParams& gp = server.config().params;
  const elgamal::PublicKey& ka = ts.cfg.a.encryption_key;
  const elgamal::PublicKey& kb = ts.cfg.b.encryption_key;
  const TransferRequestMsg request{1, ka.encrypt(gp.g(), prng)};
  server.on_message(ctx, 0, testing::framed(encode_body(MsgType::kTransferRequest, request)));
  const InstanceId id{1, 1, 0};
  auto sign = [&](ServerRank signer, MsgType type, const auto& msg) {
    return make_envelope(ts.b_secrets[signer - 1], encode_body(type, msg), 0, prng);
  };

  // Ranks 2-4 commit to (E_A(ρ), E_B(ρ)); the third commit sends the reveal.
  struct Contrib {
    Contribution contribution;
    Bigint r1, r2;
  };
  std::map<ServerRank, Contrib> contribs;
  for (ServerRank r = 2; r <= 4; ++r) {
    const group::Element rho = gp.random_element(prng);
    Contrib& c = contribs[r];
    c.r1 = gp.random_exponent(prng);
    c.r2 = gp.random_exponent(prng);
    c.contribution = {ka.encrypt_with_nonce(rho, c.r1), kb.encrypt_with_nonce(rho, c.r2)};
    server.on_message(
        ctx, ts.cfg.b.node_of(r),
        testing::framed(sign(r, MsgType::kCommit,
                             CommitMsg{id, r, c.contribution.commitment_digest()})));
  }
  auto sent_of = [&](MsgType type) {
    std::vector<SignedMessage> out;
    for (const auto& [to, frame] : ctx.frames) {
      const std::vector<std::uint8_t> body = testing::body_of(frame);
      if (body.empty() || peek_type(body) != type) continue;
      out.push_back(group::from_bytes<SignedMessage>(
          static_cast<std::uint8_t>(WireKind::kServerSigned), frame, &gp));
    }
    return out;
  };
  ASSERT_FALSE(sent_of(MsgType::kReveal).empty());
  const SignedMessage reveal = sent_of(MsgType::kReveal).front();

  // Rank r's contribute for instance `of`, answering `answered`.
  auto contribute = [&](ServerRank r, const InstanceId& of, const SignedMessage& answered) {
    const Contrib& c = contribs.at(r);
    const zkp::VdeProof vde =
        zkp::vde_prove(ka, c.contribution.ea, c.r1, kb, c.contribution.eb, c.r2,
                       vde_context(of, r), prng);
    return testing::framed(
        sign(r, MsgType::kContribute, ContributeMsg{of, r, answered, c.contribution, vde}));
  };
  auto ops_of = [&](ServerRank from, const std::vector<std::uint8_t>& frame) {
    const std::uint64_t before = gp.group_op_count();
    server.on_message(ctx, ts.cfg.b.node_of(from), frame);
    return gp.group_op_count() - before;
  };
  // What parsing the frame and decoding its body cost.
  auto decode_ops = [&](const std::vector<std::uint8_t>& frame) {
    const std::uint64_t before = gp.group_op_count();
    const auto env = group::from_bytes<SignedMessage>(
        static_cast<std::uint8_t>(WireKind::kServerSigned), frame, &gp);
    (void)try_decode<ContributeMsg>(server.config(), MsgType::kContribute, env.body);
    return gp.group_op_count() - before;
  };
  auto expect_decode_only = [&](ServerRank from, const std::vector<std::uint8_t>& frame) {
    const std::uint64_t decode = decode_ops(frame);
    EXPECT_EQ(ops_of(from, frame), decode);
  };
  auto passes = [&] { return trace.count_of(obs::EventKind::kVerifyPass); };
  auto fails = [&] { return trace.count_of(obs::EventKind::kVerifyFail); };

  // Each dropped contribute below would pass its check.
  // A contribute for an instance this server does not coordinate.
  const InstanceId elsewhere{2, 1, 0};
  RevealMsg elsewhere_reveal{elsewhere, {}};
  for (ServerRank r = 2; r <= 4; ++r) {
    elsewhere_reveal.commits.push_back(sign(
        r, MsgType::kCommit, CommitMsg{elsewhere, r, contribs[r].contribution.commitment_digest()}));
  }
  expect_decode_only(2, contribute(2, elsewhere, sign(1, MsgType::kReveal, elsewhere_reveal)));
  // A contribute answering another reveal of the instance.
  RevealMsg other = decode_as<RevealMsg>(MsgType::kReveal, reveal.body, gp);
  std::swap(other.commits[0], other.commits[1]);
  expect_decode_only(2, contribute(2, id, sign(1, MsgType::kReveal, other)));
  // A body that does not decode: a failed verdict, and nothing else.
  SignedMessage garbled = sign(2, MsgType::kContribute, ContributeMsg{});
  garbled.body.resize(3);
  expect_decode_only(2, testing::framed(garbled));
  EXPECT_EQ(fails(), 1u);
  EXPECT_EQ(passes(), 0u);

  // The control: a valid contribute is checked and counts.
  const std::vector<std::uint8_t> first = contribute(2, id, reveal);
  EXPECT_GT(ops_of(2, first), decode_ops(first));
  EXPECT_EQ(passes(), 1u);
  // Another contribute from the same server: dropped unchecked.
  expect_decode_only(2, contribute(2, id, reveal));
  EXPECT_TRUE(sent_of(MsgType::kSignRequest).empty());
  // The f+1st: checked, and signing begins.
  const std::vector<std::uint8_t> second = contribute(3, id, reveal);
  EXPECT_GT(ops_of(3, second), decode_ops(second));
  EXPECT_EQ(passes(), 2u);
  EXPECT_FALSE(sent_of(MsgType::kSignRequest).empty());
  // A late contribute: dropped unchecked.
  expect_decode_only(4, contribute(4, id, reveal));
  EXPECT_EQ(passes(), 2u);
  EXPECT_EQ(fails(), 1u);
}

// Stands in for a B server: sends `sends` at start and keeps every frame it
// receives.
class BStandIn final : public net::Node {
 public:
  explicit BStandIn(std::vector<std::pair<net::NodeId, Frame>> sends) : sends_(std::move(sends)) {}
  void on_start(net::Context& ctx) override {
    for (const auto& [to, frame] : sends_) ctx.send(to, frame);
  }
  void on_message(net::Context&, net::NodeId from, std::span<const std::uint8_t> bytes) override {
    received.emplace_back(from, Frame(bytes.begin(), bytes.end()));
  }
  std::vector<std::pair<net::NodeId, Frame>> received;

 private:
  std::vector<std::pair<net::NodeId, Frame>> sends_;
};

// A responder sends its done to B's roster once and keeps the frame. A
// byte-identical repeat of the blind it answered (B's coordinator repeats it
// until it holds a result) gets those bytes, sent to the node that repeated
// it, and costs no group op.
TEST(Protocol, RepeatedBlindGetsTheCachedDone) {
  auto ts = testing::TestSystem::make(28);
  mpz::Prng prng(16);
  const group::GroupParams& gp = ts.params;
  const elgamal::Ciphertext stored = ts.cfg.a.encryption_key.encrypt(gp.g(), prng);
  // A blinding pair signed with B's reconstructed signing key (standing in
  // for the threshold-signing sub-protocol).
  const group::Element rho = gp.random_element(prng);
  const BlindPayload blind{InstanceId{1, 1, 0},
                           {ts.cfg.a.encryption_key.encrypt(rho, prng),
                            ts.cfg.b.encryption_key.encrypt(rho, prng)}};
  const std::vector<threshold::Share> sks = {ts.b_secrets[0].sign_share,
                                             ts.b_secrets[1].sign_share};
  const zkp::SchnorrSigningKey b_sign =
      zkp::SchnorrSigningKey::from_private(gp, threshold::shamir_reconstruct(sks, gp.q()));
  ServiceSignedMsg blind_env{static_cast<std::uint8_t>(ServiceRole::kServiceB),
                             encode_body(MsgType::kBlind, blind), {}};
  blind_env.sig = b_sign.sign(blind_env.body, prng);
  const Frame blind_frame = frame_service(blind_env);

  net::Simulator sim(28, std::make_unique<net::UniformDelay>(2'000, 2'000));
  std::vector<ProtocolServer*> a;
  for (ServerRank r = 1; r <= 4; ++r) {
    auto server = std::make_unique<ProtocolServer>(ts.cfg, ts.a_secrets[r - 1], ProtocolOptions{});
    server->store_secret(1, stored);
    a.push_back(server.get());
    ASSERT_EQ(sim.add_node(std::move(server)), ts.cfg.a.node_of(r));
  }
  // B rank 1 sends its blind to the A ranks that act on one.
  std::vector<BStandIn*> b;
  for (ServerRank r = 1; r <= 4; ++r) {
    std::vector<std::pair<net::NodeId, Frame>> sends;
    if (r == 1) {
      for (ServerRank to = 1; to <= 2; ++to) sends.emplace_back(ts.cfg.a.node_of(to), blind_frame);
    }
    auto node = std::make_unique<BStandIn>(std::move(sends));
    b.push_back(node.get());
    ASSERT_EQ(sim.add_node(std::move(node)), ts.cfg.b.node_of(r));
  }
  sim.run();

  // Every B server got one frame, the same done, from A rank 1.
  for (const BStandIn* node : b) {
    ASSERT_EQ(node->received.size(), 1u);
    EXPECT_EQ(node->received[0].first, ts.cfg.a.node_of(1));
    EXPECT_EQ(node->received[0].second, b[0]->received[0].second);
  }
  const Frame& done = b[0]->received[0].second;
  ASSERT_TRUE(check_done(ts.cfg, group::from_bytes<ServiceSignedMsg>(
                                     static_cast<std::uint8_t>(WireKind::kServiceSigned), done,
                                     &gp)));

  // The repeat: the same done bytes to its sender, and no group op.
  testing::NullContext ctx(17);
  const std::uint64_t ops = gp.group_op_count();
  a[0]->on_message(ctx, ts.cfg.b.node_of(3), blind_frame);
  EXPECT_EQ(gp.group_op_count(), ops);
  ASSERT_EQ(ctx.frames.size(), 1u);
  EXPECT_EQ(ctx.frames[0].first, ts.cfg.b.node_of(3));
  EXPECT_EQ(ctx.frames[0].second, done);
}

// A backup coordinator's timer carries a key, never the transfer id: a
// client names the id, and one at or above 2^56 would spill into the
// timer's kind byte (4 << 56 turned kCoordinator into kResend). A repeated
// request coordinates nothing more: one timer, one instance.
TEST(Protocol, HostileTransferIdStillArmsACoordinatorTimer) {
  auto ts = testing::TestSystem::make(22);
  mpz::Prng prng(5);
  obs::MemoryTraceRecorder trace;
  ProtocolServer server(ts.cfg, ts.b_secrets[1],
                        ProtocolOptions{.trace = &trace});  // B rank 2, a backup
  testing::NullContext ctx(6);
  server.on_start(ctx);
  const TransferId hostile = (TransferId{4} << 56) | 1;
  const TransferRequestMsg request{
      hostile, ts.cfg.a.encryption_key.encrypt(ts.cfg.params.random_element(prng), prng)};
  const std::vector<std::uint8_t> frame =
      testing::framed(encode_body(MsgType::kTransferRequest, request));
  ctx.timers.clear();
  server.on_message(ctx, 0, frame);
  server.on_message(ctx, 0, frame);
  std::vector<std::uint64_t> backups;
  for (std::uint64_t token : ctx.timers) {
    if ((token & timer::kKindMask) == timer::kCoordinator) backups.push_back(token);
  }
  ASSERT_EQ(backups.size(), 1u);

  // When it fires, the backup opens its instance of that very transfer.
  ctx.frames.clear();
  server.on_timer(ctx, backups[0]);
  ASSERT_FALSE(ctx.frames.empty());
  const std::vector<std::uint8_t> body = testing::body_of(ctx.frames[0].second);
  ASSERT_EQ(peek_type(body), MsgType::kInit);
  EXPECT_EQ(decode_as<InitMsg>(MsgType::kInit, body).id, (InstanceId{hostile, 2, 0}));
  EXPECT_EQ(trace.count_of(obs::EventKind::kEpochStart), 1u);
}

// Blinding coordinates each transfer once per configuration: a second call
// for the same transfer arms nothing, a transfer with a result is skipped,
// and reset(), which install and restore run, lets the transfer start again.
TEST(Protocol, CoordinatesEachTransferOncePerConfiguration) {
  auto ts = testing::TestSystem::make(27);
  mpz::Prng prng(14);
  testing::NullContext ctx(15);
  ResultMap results;
  Recovery recovery(true);
  Observer observer(nullptr, 0, results);
  Signing signing(Behavior::kHonest, 600'000);
  Blinding blinding(Behavior::kHonest, 400'000);
  const Local l{ts.cfg, ts.b_secrets[1], 0, false, ctx, recovery, observer};  // B rank 2
  auto backups = [&] {
    return std::count_if(ctx.timers.begin(), ctx.timers.end(), [](std::uint64_t token) {
      return (token & timer::kKindMask) == timer::kCoordinator;
    });
  };

  blinding.coordinate(l, 1, results, signing);
  blinding.coordinate(l, 1, results, signing);
  EXPECT_EQ(backups(), 1);
  results.emplace(2, ts.cfg.b.encryption_key.encrypt(ts.cfg.params.g(), prng));
  blinding.coordinate(l, 2, results, signing);
  EXPECT_EQ(backups(), 1);
  blinding.reset();
  blinding.coordinate(l, 1, results, signing);
  EXPECT_EQ(backups(), 2);
}

// A server coordinates only transfers without a result: restarted from a
// snapshot that holds a transfer's done message, neither the designated
// coordinator nor the backup starts anything for it.
TEST(Protocol, RestartedServerSkipsFinishedTransfers) {
  System sys(base_options(31));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(3131)));
  expect_success(sys, t);
  for (ServerRank r : {1u, 2u}) {
    ProtocolServer& server = sys.b_server(r);
    server.restore(server.snapshot());
    ASSERT_TRUE(server.result(t).has_value()) << "B rank " << r;
    testing::NullContext ctx(r);
    server.on_start(ctx);
    for (const auto& [to, frame] : ctx.frames) {
      const std::vector<std::uint8_t> body = testing::body_of(frame);
      EXPECT_TRUE(body.empty() || peek_type(body) != MsgType::kInit) << "B rank " << r;
    }
    for (std::uint64_t token : ctx.timers) {
      EXPECT_NE(token & timer::kKindMask, timer::kCoordinator) << "B rank " << r;
    }
  }
}

// An honest, lossless run is over at completion: no backup responder wakes
// up, no done is re-sent, and draining the simulator sends no message and
// spends no group op.
TEST(Protocol, HonestRunIsQuietAfterCompletion) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    System sys(base_options(seed));
    TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(4040 + seed)));
    expect_success(sys, t);
    const group::GroupParams& gp = sys.config().params;
    const std::uint64_t sent = sys.sim().stats().messages_sent;
    const std::uint64_t ops = gp.group_op_count();
    sys.sim().run();
    EXPECT_EQ(sys.sim().stats().messages_sent, sent) << "seed " << seed;
    EXPECT_EQ(gp.group_op_count(), ops) << "seed " << seed;
  }
}

// A signing member holds its nonce k_i (and a copy of x_i) only until it
// sends s_i = k_i + e·x_i, or until its session's quorum leaves it out:
// whoever read k_i afterwards would learn x_i. It holds a request's evidence
// only until a quorum names it or leaves it out. Once a lossless run's
// traffic drains, no server holds either.
TEST(Protocol, SigningNoncesReleasedAfterUse) {
  System sys(base_options(29));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(2929)));
  expect_success(sys, t);
  sys.sim().run();
  for (ServerRank r = 1; r <= 4; ++r) {
    EXPECT_EQ(sys.a_server(r).signing_nonces_held(), 0u) << "A rank " << r;
    EXPECT_EQ(sys.b_server(r).signing_nonces_held(), 0u) << "B rank " << r;
    EXPECT_EQ(sys.a_server(r).signing_evidence_held(), 0u) << "A rank " << r;
    EXPECT_EQ(sys.b_server(r).signing_evidence_held(), 0u) << "B rank " << r;
  }
}

// A requester's signing session ends with its signature: late or duplicate
// replies and the retry timer find no session. Once a lossless run of eight
// transfers drains, no server holds one.
TEST(Protocol, FinishedSigningSessionsAreErased) {
  System sys(base_options(31));
  std::vector<TransferId> transfers;
  for (int i = 0; i < 8; ++i)
    transfers.push_back(sys.add_transfer(sys.config().params.encode_message(Bigint(3131 + i))));
  for (TransferId t : transfers) expect_success(sys, t);
  sys.sim().run();
  for (ServerRank r = 1; r <= 4; ++r) {
    EXPECT_EQ(sys.a_server(r).signing_sessions_held(), 0u) << "A rank " << r;
    EXPECT_EQ(sys.b_server(r).signing_sessions_held(), 0u) << "B rank " << r;
  }
}

// A delayed E_A(m) timer carries an index, never the transfer id: an id with
// bits in its top byte would spill into the timer's kind (0x05 is kResend's),
// and A would never store the ciphertext. Each id completes at every B server.
TEST(Protocol, DelayedSecretOfAHighTransferIdIsStored) {
  for (const TransferId t : {TransferId{7}, TransferId{0x0100000000000007},
                             TransferId{0x0500000000000001}}) {
    SystemOptions o = base_options(32);
    o.params = group::GroupParams::named(group::ParamId::kToy64);
    System sys(std::move(o));
    mpz::Prng prng(33);
    const group::Element m = sys.config().params.encode_message(Bigint(3232));
    const elgamal::Ciphertext ea_m = sys.config().a.encryption_key.encrypt(m, prng);
    for (ServerRank r = 1; r <= 4; ++r) {
      sys.a_server(r).store_secret_at(t, ea_m, 1'000);
      sys.b_server(r).register_transfer(t);
    }
    const auto finished = [&] {
      for (ServerRank r = 1; r <= 4; ++r)
        if (!sys.result(t, r)) return false;
      return true;
    };
    ASSERT_TRUE(sys.sim().run_until(finished)) << std::hex << "transfer 0x" << t;
    const Bigint plain = m;
    for (ServerRank r = 1; r <= 4; ++r) EXPECT_EQ(sys.oracle_decrypt_b(*sys.result(t, r)), plain);
  }
}

// A contributor's bundle (ρ, r₁, r₂ and the VDE announcement exponents) is
// spent by its one answer, and done ends the transfer: no server keeps a
// contributor instance of it, so no bundle either.
TEST(Protocol, ContributionBundlesReleasedAfterUse) {
  System sys(base_options(30));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(3030)));
  expect_success(sys, t);
  sys.sim().run();
  for (ServerRank r = 1; r <= 4; ++r)
    EXPECT_EQ(sys.b_server(r).contributor_instances(), 0u) << "B rank " << r;
}

// A contributor whose commit missed the reveal never answers, so its bundle
// is not spent by an answer: done erases its instance. After three transfers
// every B server holds no instance, so no bundle, at all.
TEST(Protocol, UnansweredContributionBundlesReleasedAtDone) {
  System sys(base_options(30));
  std::vector<TransferId> transfers;
  for (int i = 0; i < 3; ++i)
    transfers.push_back(sys.add_transfer(sys.config().params.encode_message(Bigint(3030 + i))));
  for (TransferId t : transfers) expect_success(sys, t);
  sys.sim().run();
  for (ServerRank r = 1; r <= 4; ++r)
    EXPECT_EQ(sys.b_server(r).contributor_instances(), 0u) << "B rank " << r;
}

// Done ends a transfer at B: an init for a transfer with a result is dropped
// before any check, so it builds no bundle and draws no commit.
TEST(Protocol, InitAfterDoneBuildsNothing) {
  auto ts = testing::TestSystem::make(29);
  mpz::Prng prng(18);
  ProtocolServer server(ts.cfg, ts.b_secrets[2], ProtocolOptions{});  // B rank 3
  server.register_transfer(1);
  testing::NullContext ctx(19);
  server.on_start(ctx);
  const group::GroupParams& gp = server.config().params;
  // A done for transfer 1, signed with A's reconstructed signing key
  // (standing in for the threshold-signing sub-protocol).
  const std::vector<threshold::Share> sks = {ts.a_secrets[0].sign_share,
                                             ts.a_secrets[1].sign_share};
  const zkp::SchnorrSigningKey a_sign =
      zkp::SchnorrSigningKey::from_private(gp, threshold::shamir_reconstruct(sks, gp.q()));
  const DonePayload done{InstanceId{1, 1, 0}, ts.cfg.a.encryption_key.encrypt(gp.g(), prng),
                         ts.cfg.b.encryption_key.encrypt(gp.g(), prng)};
  ServiceSignedMsg done_env{static_cast<std::uint8_t>(ServiceRole::kServiceA),
                            encode_body(MsgType::kDone, done), {}};
  done_env.sig = a_sign.sign(done_env.body, prng);
  server.on_message(ctx, ts.cfg.a.node_of(1), frame_service(done_env));
  ASSERT_TRUE(server.result(1).has_value());

  // B rank 2's backup instance of the finished transfer.
  const std::vector<std::uint8_t> init = testing::framed(make_envelope(
      ts.b_secrets[1], encode_body(MsgType::kInit, InitMsg{InstanceId{1, 2, 0}}), 0, prng));
  ctx.frames.clear();
  const std::uint64_t ops = gp.group_op_count();
  server.on_message(ctx, ts.cfg.b.node_of(2), init);
  EXPECT_EQ(gp.group_op_count(), ops);
  EXPECT_TRUE(ctx.frames.empty());
  EXPECT_EQ(server.contributor_instances(), 0u);
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
  o.protocol.backup_delay = 0;  // all f+1 coordinators and responders act at once
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
  obs::MemoryTraceRecorder trace;  // the member's verdicts
  ProtocolServer member{ts.cfg, ts.a_secrets[1], ProtocolOptions{.trace = &trace}};
  std::vector<std::uint8_t> payload;  // the encoded DonePayload
  DoneEvidence evidence;
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
    payload = encode_body(MsgType::kDone, done);
    evidence = DoneEvidence{blind_env, m_rho, shares};
    request = request_with(evidence);

    member.store_secret(id.transfer, stored);
    member.on_start(ctx);
  }

  [[nodiscard]] const group::GroupParams& gp() const { return ts.cfg.params; }

  // `msg` in an envelope signed by A rank `signer` (the requester by default).
  template <typename T>
  std::vector<std::uint8_t> signed_by(ServerRank signer, MsgType type, const T& msg) {
    return testing::framed(make_envelope(ts.a_secrets[signer - 1], encode_body(type, msg), 0, prng));
  }
  template <typename T>
  std::vector<std::uint8_t> from_requester(MsgType type, const T& msg) {
    return signed_by(1, type, msg);
  }
  // The kDone request of session kSession over `ev`.
  std::vector<std::uint8_t> request_with(const DoneEvidence& ev) {
    return from_requester(MsgType::kSignRequest,
                          SignRequestMsg{kSession, static_cast<std::uint8_t>(SignPurpose::kDone),
                                         payload, group::to_bytes(ev)});
  }
  // Feeds one frame from A rank `from`; returns what the member sent back.
  std::vector<std::vector<std::uint8_t>> feed(const std::vector<std::uint8_t>& frame,
                                              ServerRank from = 1) {
    const std::size_t before = ctx.frames.size();
    member.on_message(ctx, ts.cfg.a.node_of(from), frame);
    std::vector<std::vector<std::uint8_t>> out;
    for (std::size_t i = before; i < ctx.frames.size(); ++i) {
      EXPECT_EQ(ctx.frames[i].first, ts.cfg.a.node_of(from));
      out.push_back(ctx.frames[i].second);
    }
    return out;
  }
  // The group ops feeding `frame` costs.
  std::uint64_t ops_of(const std::vector<std::uint8_t>& frame, ServerRank from = 1) {
    const std::uint64_t before = gp().group_op_count();
    (void)feed(frame, from);
    return gp().group_op_count() - before;
  }
  // The group ops of parsing `frame` and checking its envelope signature, as
  // the member does (its signer's key table built beforehand).
  std::uint64_t envelope_ops(const std::vector<std::uint8_t>& frame) {
    const auto parse = [&] {
      return group::from_bytes<SignedMessage>(static_cast<std::uint8_t>(WireKind::kServerSigned),
                                              frame, &gp());
    };
    (void)envelope_signature_ok(member.config(), parse());
    const std::uint64_t before = gp().group_op_count();
    EXPECT_TRUE(envelope_signature_ok(member.config(), parse()));
    return gp().group_op_count() - before;
  }
  template <typename T>
  T reply_as(MsgType type, const std::vector<std::uint8_t>& frame) const {
    return decode_as<T>(type, testing::body_of(frame), gp());
  }
  // A quorum member the test plays itself (rank 1 or 3), with a fresh nonce.
  threshold::SigningMember peer(ServerRank rank) {
    return threshold::SigningMember(gp(), ts.a_secrets[rank - 1].sign_share, prng);
  }
  [[nodiscard]] std::uint64_t verdicts() const {
    return trace.count_of(obs::EventKind::kVerifyPass) +
           trace.count_of(obs::EventKind::kVerifyFail);
  }
};

// A request costs its envelope check and one nonce commitment (k_i, its
// digest and the signed reply carrying it), nothing more: the member checks
// the evidence only once a quorum names it, and keeps it until then.
TEST(SigningRound, RequestCostsItsEnvelopeCheckAndOneCommitment) {
  SigningFixture fx;
  const std::uint64_t envelope = fx.envelope_ops(fx.request);
  mpz::Prng twin_rng = fx.ctx.rng();  // the member's next draws
  const std::uint64_t request = fx.ops_of(fx.request);
  ASSERT_EQ(fx.ctx.frames.size(), 1u);
  EXPECT_EQ(fx.member.signing_nonces_held(), 1u);
  EXPECT_EQ(fx.member.signing_evidence_held(), 1u);
  EXPECT_EQ(fx.verdicts(), 0u);

  // The same commitment and reply, drawn from a copy of the member's generator.
  const std::uint64_t ops = fx.gp().group_op_count();
  const threshold::SigningMember twin(fx.gp(), fx.ts.a_secrets[1].sign_share, twin_rng);
  const std::vector<std::uint8_t> reply = testing::framed(make_envelope(
      fx.ts.a_secrets[1],
      encode_body(MsgType::kSignCommitReply,
                  SignCommitReplyMsg{SigningFixture::kSession, twin.commitment()}),
      0, twin_rng));
  const std::uint64_t commitment = fx.gp().group_op_count() - ops;
  EXPECT_EQ(reply, fx.ctx.frames.front().second);
  EXPECT_EQ(request, envelope + commitment);
}

// A duplicate request is answered with the cached commit frame: the same
// bytes, and no second nonce. It is looked up before anything but its
// envelope check, so it costs exactly that check.
TEST(SigningRound, DuplicateRequestGetsSameCommitReply) {
  SigningFixture fx;
  const auto first = fx.feed(fx.request);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(fx.member.signing_nonces_held(), 1u);

  const std::uint64_t envelope = fx.envelope_ops(fx.request);
  std::uint64_t ops = fx.gp().group_op_count();
  const auto again = fx.feed(fx.request);
  const std::uint64_t again_ops = fx.gp().group_op_count() - ops;
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again.front(), first.front());
  EXPECT_EQ(fx.member.signing_nonces_held(), 1u);
  EXPECT_EQ(again_ops, envelope);
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
  EXPECT_EQ(fx.trace.count_of(obs::EventKind::kVerifyPass), 1u);
  EXPECT_EQ(fx.member.signing_evidence_held(), 0u);

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
// the member releases it and the unchecked evidence at once, reveals
// nothing, and pays only the quorum's envelope check.
TEST(SigningRound, QuorumWithoutMemberReleasesNonce) {
  SigningFixture fx;
  ASSERT_EQ(fx.feed(fx.request).size(), 1u);
  ASSERT_EQ(fx.member.signing_nonces_held(), 1u);
  ASSERT_EQ(fx.member.signing_evidence_held(), 1u);
  threshold::SigningMember rank1 = fx.peer(1);
  threshold::SigningMember rank3 = fx.peer(3);
  const auto quorum = fx.from_requester(
      MsgType::kSignQuorum,
      SignQuorumMsg{SigningFixture::kSession, {rank1.commitment(), rank3.commitment()}});
  const std::uint64_t envelope = fx.envelope_ops(quorum);
  const std::uint64_t before = fx.gp().group_op_count();
  EXPECT_TRUE(fx.feed(quorum).empty());
  EXPECT_EQ(fx.gp().group_op_count() - before, envelope);
  EXPECT_EQ(fx.member.signing_nonces_held(), 0u);
  EXPECT_EQ(fx.member.signing_evidence_held(), 0u);
  EXPECT_EQ(fx.verdicts(), 0u);
}

// A quorum that names the member over done evidence that fails its check
// (one decryption share's proof response + 1) gets no reveal: the member
// commits first, counts one failed verdict when the quorum arrives, and
// releases nonce and evidence. The quorum's duplicate is not checked again.
TEST(SigningRound, QuorumOverTamperedEvidenceGetsNoReveal) {
  SigningFixture fx;
  DoneEvidence bad = fx.evidence;
  bad.shares[0].proof.s = (bad.shares[0].proof.s + Bigint(1)) % fx.gp().q();
  const auto commit = fx.feed(fx.request_with(bad));
  ASSERT_EQ(commit.size(), 1u);
  EXPECT_EQ(fx.verdicts(), 0u);
  const auto mine =
      fx.reply_as<SignCommitReplyMsg>(MsgType::kSignCommitReply, commit.front()).commit;
  threshold::SigningMember rank1 = fx.peer(1);
  const auto quorum = fx.from_requester(
      MsgType::kSignQuorum, SignQuorumMsg{SigningFixture::kSession, {rank1.commitment(), mine}});
  EXPECT_TRUE(fx.feed(quorum).empty());
  EXPECT_EQ(fx.trace.count_of(obs::EventKind::kVerifyFail), 1u);
  EXPECT_EQ(fx.trace.count_of(obs::EventKind::kVerifyPass), 0u);
  EXPECT_EQ(fx.member.signing_nonces_held(), 0u);
  EXPECT_EQ(fx.member.signing_evidence_held(), 0u);
  EXPECT_TRUE(fx.feed(quorum).empty());
  EXPECT_EQ(fx.verdicts(), 1u);
}

// The requester's own member session checks nothing: the requester built
// the payload from messages it had already checked. A request the member
// signed itself, with no evidence at all, keeps none and reaches its reveal
// for the cost of the quorum's envelope check and the signed reveal.
TEST(SigningRound, OwnRequestRevealsWithoutEvidenceCheck) {
  SigningFixture fx;
  constexpr ServerRank kSelf = 2;
  const auto commit = fx.feed(
      fx.signed_by(kSelf, MsgType::kSignRequest,
                   SignRequestMsg{SigningFixture::kSession,
                                  static_cast<std::uint8_t>(SignPurpose::kDone), fx.payload, {}}),
      kSelf);
  ASSERT_EQ(commit.size(), 1u);
  EXPECT_EQ(fx.member.signing_evidence_held(), 0u);
  const auto mine =
      fx.reply_as<SignCommitReplyMsg>(MsgType::kSignCommitReply, commit.front()).commit;
  threshold::SigningMember rank1 = fx.peer(1);
  const auto quorum = fx.signed_by(
      kSelf, MsgType::kSignQuorum, SignQuorumMsg{SigningFixture::kSession, {rank1.commitment(), mine}});
  const std::uint64_t envelope = fx.envelope_ops(quorum);
  mpz::Prng twin_rng = fx.ctx.rng();
  const std::uint64_t before = fx.gp().group_op_count();
  const auto reveal = fx.feed(quorum, kSelf);
  const std::uint64_t quorum_ops = fx.gp().group_op_count() - before;
  ASSERT_EQ(reveal.size(), 1u);
  const SignRevealReplyMsg msg =
      fx.reply_as<SignRevealReplyMsg>(MsgType::kSignRevealReply, reveal.front());
  EXPECT_EQ(threshold::nonce_commitment_digest(fx.gp(), msg.reveal), mine.digest);
  EXPECT_EQ(fx.verdicts(), 0u);

  const std::uint64_t ops = fx.gp().group_op_count();
  const std::vector<std::uint8_t> twin = testing::framed(make_envelope(
      fx.ts.a_secrets[kSelf - 1], encode_body(MsgType::kSignRevealReply, msg), 0, twin_rng));
  EXPECT_EQ(twin, reveal.front());
  EXPECT_EQ(quorum_ops, envelope + (fx.gp().group_op_count() - ops));
}

}  // namespace
}  // namespace dblind::core

// Epochal reconfiguration (core/reconfig + ProtocolServer), the one way a
// key sharing changes — §5 proactive refresh is the same-roster case:
//  - end to end: join/leave/re-share rotations of service B under the
//    deterministic simulator, including the crash-then-restore-across-install
//    regression (a server that misses an install must discard its stale
//    share and rejoin through the certificate-chain + sub-share recovery
//    path);
//  - round rules: the validity checks and one server's deal/apply/echo
//    handlers, driven with hand-signed envelopes.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "core/system.hpp"
#include "tests/core/test_util.hpp"
#include "threshold/reshare.hpp"

namespace dblind::core {
namespace {

SystemOptions base_opts(std::uint64_t seed) {
  SystemOptions o;
  o.seed = seed;
  return o;
}

void expect_results_correct(System& sys, const std::vector<TransferId>& ts, ServerRank rank) {
  for (TransferId t : ts) {
    auto r = sys.result(t, rank);
    ASSERT_TRUE(r.has_value()) << "transfer " << t << " rank " << rank;
    EXPECT_EQ(sys.oracle_decrypt_b(*r), sys.plaintext_of(t)) << "transfer " << t;
  }
}

// Join: (4,1) -> (5,1) by adopting one standby. The standby must end up an
// active rank-5 member holding correct results, and the re-shared key must
// still decrypt (the service public key never changes).
TEST(Reconfig, JoinStandby) {
  SystemOptions o = base_opts(41);
  o.b_standby = 1;
  System sys(std::move(o));
  std::vector<TransferId> ts = {sys.add_transfer(sys.config().params.g()),
                                sys.add_transfer(sys.config().params.g())};
  std::vector<net::NodeId> roster = {sys.b_node(1), sys.b_node(2), sys.b_node(3), sys.b_node(4),
                                     sys.b_standby_node(0)};
  sys.schedule_reconfig_b(sys.make_b_spec(1, 1, roster), 50'000);
  ASSERT_TRUE(sys.run_to_completion());

  for (ServerRank r = 1; r <= 4; ++r) {
    EXPECT_EQ(sys.b_server(r).config_epoch(), 1u);
    EXPECT_EQ(sys.b_server(r).rank(), r);
    EXPECT_FALSE(sys.b_server(r).share_pending());
    expect_results_correct(sys, ts, r);
  }
  ProtocolServer& joiner = sys.b_standby_server(0);
  EXPECT_EQ(joiner.config_epoch(), 1u);
  EXPECT_EQ(joiner.rank(), 5u);
  EXPECT_FALSE(joiner.share_pending());
  for (TransferId t : ts) EXPECT_TRUE(joiner.result(t).has_value());
  EXPECT_EQ(joiner.config().b.cfg.n, 5u);
}

// Leave: (5,1) -> (4,1). The departing server retires (rank 0, share
// zeroed); the survivors re-share and keep serving.
TEST(Reconfig, LeaveShrinksRoster) {
  SystemOptions o = base_opts(42);
  o.b = {5, 1};
  System sys(std::move(o));
  std::vector<TransferId> ts = {sys.add_transfer(sys.config().params.g())};
  std::vector<net::NodeId> roster = {sys.b_node(1), sys.b_node(2), sys.b_node(3), sys.b_node(4)};
  sys.schedule_reconfig_b(sys.make_b_spec(1, 1, roster), 50'000);
  ASSERT_TRUE(sys.run_to_completion());

  for (ServerRank r = 1; r <= 4; ++r) {
    EXPECT_EQ(sys.b_server(r).config_epoch(), 1u);
    EXPECT_FALSE(sys.b_server(r).share_pending());
    expect_results_correct(sys, ts, r);
    EXPECT_EQ(sys.b_server(r).config().b.cfg.n, 4u);
  }
  // The retired server still learned the install (it echoed it) and dropped
  // out of the roster.
  EXPECT_EQ(sys.b_server(5).config_epoch(), 1u);
  EXPECT_EQ(sys.b_server(5).rank(), 0u);
}

// Rotation with transfers in flight: the spec lands mid-protocol, so some
// transfers abort at the boundary and re-run under epoch 1 — results must
// still be correct and unique per transfer (I6 is about never mixing
// epochs; correctness of the decryption is the end-to-end witness).
TEST(Reconfig, MidTransferRotation) {
  SystemOptions o = base_opts(43);
  o.b_standby = 1;
  System sys(std::move(o));
  std::vector<TransferId> ts;
  for (int i = 0; i < 3; ++i) ts.push_back(sys.add_transfer(sys.config().params.g()));
  // A late transfer keeps the run alive past the install even if the first
  // wave happens to finish before the rotation window closes.
  ts.push_back(sys.add_transfer_at(sys.config().params.g(), 600'000));
  std::vector<net::NodeId> roster = {sys.b_node(1), sys.b_node(2), sys.b_node(3), sys.b_node(4),
                                     sys.b_standby_node(0)};
  // Mid-flight: transfers start at t=0 and need ~100ms+ of virtual time per
  // protocol run; the rotation lands inside that window.
  sys.schedule_reconfig_b(sys.make_b_spec(1, 1, roster), 40'000);
  ASSERT_TRUE(sys.run_to_completion());
  for (ServerRank r = 1; r <= 4; ++r) {
    EXPECT_EQ(sys.b_server(r).config_epoch(), 1u);
    expect_results_correct(sys, ts, r);
  }
  EXPECT_EQ(sys.b_standby_server(0).config_epoch(), 1u);
}

// One pure re-share of service B (same roster, fresh shares): §5 proactive
// refresh. Every server keeps its rank and moves to epoch 1; the refreshed
// shares must still decrypt under the unchanged service key.
void run_same_roster_reshare(threshold::ServiceConfig b, std::uint64_t seed) {
  SystemOptions o = base_opts(seed);
  o.b = b;
  System sys(std::move(o));
  std::vector<TransferId> ts = {sys.add_transfer(sys.config().params.g())};
  std::vector<net::NodeId> roster;
  for (ServerRank r = 1; r <= b.n; ++r) roster.push_back(sys.b_node(r));
  sys.schedule_reconfig_b(sys.make_b_spec(1, static_cast<std::uint32_t>(b.f), roster), 50'000);
  ASSERT_TRUE(sys.run_to_completion());
  for (ServerRank r = 1; r <= b.n; ++r) {
    EXPECT_EQ(sys.b_server(r).config_epoch(), 1u);
    EXPECT_EQ(sys.b_server(r).rank(), r);
    expect_results_correct(sys, ts, r);
  }
}

TEST(Reconfig, SameRosterReshare) { run_same_roster_reshare({4, 1}, 44); }

// The same refresh on a larger service, (10,3).
TEST(RefreshProtocol, LargerServiceWorks) { run_same_roster_reshare({10, 3}, 8); }

// A dealer/proposer crash during the re-sharing round: the staggered backup
// proposer completes the install with the surviving quorum.
TEST(Reconfig, CrashDuringReshare) {
  System sys(base_opts(45));
  std::vector<TransferId> ts = {sys.add_transfer(sys.config().params.g())};
  std::vector<net::NodeId> roster = {sys.b_node(1), sys.b_node(2), sys.b_node(3), sys.b_node(4)};
  sys.schedule_reconfig_b(sys.make_b_spec(1, 1, roster), 50'000);
  // Rank 1 is the primary proposer; kill it just as the round starts. With
  // n=4, f=1 the survivors still hold quorums for deals (f+1=2) and echoes
  // (2f+1=3).
  sys.sim().crash_at(sys.b_node(1), 55'000);
  ASSERT_TRUE(sys.run_to_completion());
  for (ServerRank r = 2; r <= 4; ++r) {
    EXPECT_EQ(sys.b_server(r).config_epoch(), 1u);
    EXPECT_FALSE(sys.b_server(r).share_pending());
    expect_results_correct(sys, ts, r);
  }
}

// Satellite 2 regression: a server crashes in epoch 0, the install of epoch
// 1 happens without it, and it restarts AFTER the install. Its restored
// epoch-0 share is stale; it must rejoin via the wrong-epoch/pull recovery
// path, install the epoch-1 record, and complete a fresh sub-share set
// before serving again.
TEST(Reconfig, RestartAcrossInstallRejoins) {
  System sys(base_opts(46));
  std::vector<TransferId> ts = {sys.add_transfer(sys.config().params.g())};
  // A second wave of work arrives after the restart, so the laggard sees
  // epoch-1 traffic and is forced through catch-up.
  ts.push_back(sys.add_transfer_at(sys.config().params.g(), 2'500'000));
  std::vector<net::NodeId> roster = {sys.b_node(1), sys.b_node(2), sys.b_node(3), sys.b_node(4)};
  sys.schedule_reconfig_b(sys.make_b_spec(1, 1, roster), 100'000);
  sys.sim().crash_at(sys.b_node(4), 10'000);
  sys.sim().restart_at(sys.b_node(4), 2'000'000);
  ASSERT_TRUE(sys.run_to_completion());

  ProtocolServer& lazarus = sys.b_server(4);
  EXPECT_EQ(lazarus.config_epoch(), 1u);
  EXPECT_EQ(lazarus.rank(), 4u);
  EXPECT_FALSE(lazarus.share_pending());
  for (ServerRank r = 1; r <= 4; ++r) expect_results_correct(sys, ts, r);
}

// Stale-epoch rejection is typed and idempotent: metrics record at least
// one stale rejection when a laggard pushes epoch-0 traffic into epoch 1
// (covered by the restart scenario), and epochs only ever move forward.
TEST(Reconfig, EpochIsMonotonic) {
  System sys(base_opts(47));
  std::vector<TransferId> ts = {sys.add_transfer(sys.config().params.g())};
  std::vector<net::NodeId> roster = {sys.b_node(1), sys.b_node(2), sys.b_node(3), sys.b_node(4)};
  sys.schedule_reconfig_b(sys.make_b_spec(1, 1, roster), 50'000);
  ASSERT_TRUE(sys.run_to_completion());
  // Re-running the same epoch-1 spec is a no-op: the scheduled round checks
  // cfg_epoch_ < spec.epoch before proposing.
  for (ServerRank r = 1; r <= 4; ++r) {
    EXPECT_EQ(sys.b_server(r).config_epoch(), 1u);
  }
  expect_results_correct(sys, ts, 1);
}

// ---- round rules on hand-signed envelopes ----------------------------------

using testing::body_of;
using testing::framed;

// A same-roster refresh of a (4,1) service B at epoch 1, with every message
// signed by hand under the epoch-0 roster keys.
struct RoundFixture {
  testing::TestSystem ts = testing::TestSystem::make(61);
  mpz::Prng prng{62};
  static constexpr auto kB = static_cast<std::uint8_t>(ServiceRole::kServiceB);

  [[nodiscard]] const group::GroupParams& gp() const { return ts.cfg.params; }
  [[nodiscard]] net::NodeId node(ServerRank r) const { return ts.cfg.b.node_of(r); }

  [[nodiscard]] ReconfigSpec spec() const {
    ReconfigSpec s{kB, 1, 4, 1, {}};
    for (ServerRank r = 1; r <= 4; ++r)
      s.roster.push_back({node(r), ts.cfg.b.server_sign_keys[r - 1].point()});
    return s;
  }
  // Dealer `dealer` re-shares `enc_share` (its real share, unless forged).
  SignedMessage deal(ServerRank dealer, const threshold::Share& enc_share) {
    const ServerSecrets& me = ts.b_secrets[dealer - 1];
    ReshareDealMsg m{kB, 1, dealer,
                     threshold::reshare_deal(gp(), enc_share, 4, 1, prng).commitments,
                     threshold::reshare_deal(gp(), me.sign_share, 4, 1, prng).commitments};
    return make_envelope(me, encode_body(MsgType::kReshareDeal, m), 0, prng);
  }
  SignedMessage honest_deal(ServerRank dealer) {
    return deal(dealer, ts.b_secrets[dealer - 1].enc_share);
  }
  SignedMessage apply(ServerRank proposer, std::vector<SignedMessage> deals) {
    ReconfigApplyMsg m{spec(), std::move(deals), {}};
    return make_envelope(ts.b_secrets[proposer - 1], encode_body(MsgType::kReconfigApply, m), 0,
                         prng);
  }
  SignedMessage echo(ServerRank rank, const hash::Digest& digest) {
    return make_envelope(ts.b_secrets[rank - 1],
                         encode_body(MsgType::kReconfigEcho, ReconfigEchoMsg{kB, 1, digest}), 0,
                         prng);
  }
  // The group operations `fn` performs.
  template <typename Fn>
  std::uint64_t ops(Fn&& fn) const {
    const std::uint64_t before = gp().group_op_count();
    fn();
    return gp().group_op_count() - before;
  }
};

// A dealer cannot re-share a value other than its share: the deal's constant
// term must be its verification key g^{s_i}, and an apply embedding such a
// deal is invalid as a whole.
TEST(ReconfigRound, BadDealerDealAndApplyRejected) {
  RoundFixture fx;
  const SignedMessage honest = fx.honest_deal(2);
  const SignedMessage forged = fx.deal(2, {2, fx.gp().random_exponent(fx.prng)});
  EXPECT_TRUE(check_reshare_deal(fx.ts.cfg, 0, fx.spec(), honest).has_value());
  EXPECT_FALSE(check_reshare_deal(fx.ts.cfg, 0, fx.spec(), forged).has_value());
  EXPECT_TRUE(check_reconfig_apply(fx.ts.cfg, 0, fx.apply(1, {fx.honest_deal(1), honest})));
  EXPECT_FALSE(check_reconfig_apply(fx.ts.cfg, 0, fx.apply(1, {fx.honest_deal(1), forged})));
}

// An equivocating proposer signs two valid applies for one epoch. A correct
// member echoes the first it sees and never the second, so the two cannot
// both gather 2f+1 echoes.
TEST(ReconfigRound, EquivocatedAppliesGetOneEcho) {
  RoundFixture fx;
  ProtocolServer server(fx.ts.cfg, fx.ts.b_secrets[3], ProtocolOptions{});
  testing::NullContext ctx(3);
  server.on_start(ctx);
  const SignedMessage first = fx.apply(1, {fx.honest_deal(1), fx.honest_deal(2)});
  const SignedMessage second = fx.apply(1, {fx.honest_deal(1), fx.honest_deal(3)});
  ASSERT_NE(reconfig_apply_digest(first), reconfig_apply_digest(second));
  ctx.frames.clear();
  server.on_message(ctx, fx.node(1), framed(first));
  server.on_message(ctx, fx.node(1), framed(second));
  std::set<hash::Digest> echoed;
  for (const auto& [to, frame] : ctx.frames) {
    const std::vector<std::uint8_t> body = body_of(frame);
    if (!body.empty() && peek_type(body) == MsgType::kReconfigEcho)
      echoed.insert(decode_as<ReconfigEchoMsg>(MsgType::kReconfigEcho, body).digest);
  }
  EXPECT_EQ(echoed, std::set<hash::Digest>{reconfig_apply_digest(first)});
  EXPECT_EQ(server.config_epoch(), 0u);
}

// An install certificate needs 2f+1 echoes from distinct ranks, all naming
// the apply's own digest.
TEST(ReconfigRound, InstallRecordNeedsEchoQuorumOnOneDigest) {
  RoundFixture fx;
  const SignedMessage apply = fx.apply(1, {fx.honest_deal(1), fx.honest_deal(2)});
  const hash::Digest d = reconfig_apply_digest(apply);
  hash::Digest other = d;
  other[0] ^= 1;
  const auto certified = [&](std::vector<SignedMessage> echoes) {
    return check_install_record(fx.ts.cfg, 0, apply, echoes).has_value();
  };
  EXPECT_TRUE(certified({fx.echo(1, d), fx.echo(2, d), fx.echo(3, d)}));
  EXPECT_FALSE(certified({fx.echo(1, d), fx.echo(3, d)}));
  EXPECT_FALSE(certified({fx.echo(1, d), fx.echo(2, d), fx.echo(2, d)}));
  EXPECT_FALSE(certified({fx.echo(1, d), fx.echo(2, d), fx.echo(3, other)}));
}

// Fetch step: a member that holds 2f+1 echoes of a digest but never received
// its apply (nor anything later stamped with its epoch) pulls the install
// record from the echoers — on a resend, since the apply may only be late —
// and installs from the reply.
TEST(ReconfigRound, EchoQuorumWithoutApplyPullsInstall) {
  RoundFixture fx;
  ProtocolServer server(fx.ts.cfg, fx.ts.b_secrets[3], ProtocolOptions{});
  testing::NullContext ctx(5);
  server.on_start(ctx);
  const SignedMessage apply = fx.apply(1, {fx.honest_deal(1), fx.honest_deal(2)});
  const hash::Digest d = reconfig_apply_digest(apply);
  const std::vector<SignedMessage> echoes = {fx.echo(1, d), fx.echo(2, d), fx.echo(3, d)};
  ctx.frames.clear();
  ctx.timers.clear();
  for (ServerRank r = 1; r <= 3; ++r) server.on_message(ctx, fx.node(r), framed(echoes[r - 1]));
  EXPECT_TRUE(ctx.frames.empty());
  for (std::uint64_t token : std::vector<std::uint64_t>(ctx.timers)) server.on_timer(ctx, token);
  std::set<net::NodeId> pulled;
  for (const auto& [to, frame] : ctx.frames) {
    const std::vector<std::uint8_t> body = body_of(frame);
    if (!body.empty() && peek_type(body) == MsgType::kReconfigPull) pulled.insert(to);
  }
  EXPECT_EQ(pulled, (std::set<net::NodeId>{fx.node(1), fx.node(2), fx.node(3)}));

  server.on_message(ctx, fx.node(1),
                    framed(encode_body(MsgType::kReconfigState, ReconfigStateMsg{apply, echoes})));
  EXPECT_EQ(server.config_epoch(), 1u);
}

// Each apply and echo is checked once, when it arrives: a re-delivered one
// costs no group operation, and a first echo costs its own signature check
// and nothing more (no held apply or vote is checked again).
TEST(ReconfigRound, HeldVotesAreNotRechecked) {
  RoundFixture fx;
  ProtocolServer server(fx.ts.cfg, fx.ts.b_secrets[3], ProtocolOptions{});
  testing::NullContext ctx(7);
  server.on_start(ctx);
  const SignedMessage apply = fx.apply(1, {fx.honest_deal(1), fx.honest_deal(2)});
  const SignedMessage echo = fx.echo(1, reconfig_apply_digest(apply));
  const auto deliver = [&](const SignedMessage& env) {
    return fx.ops([&] { server.on_message(ctx, fx.node(1), framed(env)); });
  };
  // The server pinned rank 1's key; its first check builds the key's table.
  EXPECT_TRUE(envelope_signature_ok(fx.ts.cfg, echo));
  const std::uint64_t echo_check =
      fx.ops([&] { EXPECT_TRUE(envelope_signature_ok(fx.ts.cfg, echo)); });

  EXPECT_GT(deliver(apply), 0u);  // checked, then echoed with our own vote
  EXPECT_EQ(deliver(apply), 0u);
  EXPECT_EQ(deliver(echo), echo_check);
  EXPECT_EQ(deliver(echo), 0u);
  EXPECT_EQ(server.config_epoch(), 0u);  // two votes of the three needed
}

// A correct member echoes one digest per epoch, so a voter's first checked
// echo is its vote: a second echo naming a fresh digest costs no group
// operation and is not stored, and the honest round still installs. Stored,
// it would complete a quorum for the fresh digest beside two other voters'
// echoes and make the server pull an install record for it.
TEST(ReconfigRound, SecondDigestEchoCostsNothing) {
  RoundFixture fx;
  const SignedMessage apply = fx.apply(1, {fx.honest_deal(1), fx.honest_deal(2)});
  const hash::Digest d = reconfig_apply_digest(apply);
  hash::Digest fresh = d;
  fresh[0] ^= 1;
  const SignedMessage first = fx.echo(1, d);
  const SignedMessage second = fx.echo(1, fresh);
  // Every server below pins rank 1's key: pin it and build its table first.
  fx.gp().pin_base(fx.ts.cfg.b.server_sign_keys[0].point());
  EXPECT_TRUE(envelope_signature_ok(fx.ts.cfg, first));
  const std::uint64_t echo_check =
      fx.ops([&] { EXPECT_TRUE(envelope_signature_ok(fx.ts.cfg, first)); });
  const auto pull_targets = [&](ProtocolServer& server, testing::NullContext& ctx) {
    for (std::uint64_t token : std::vector<std::uint64_t>(ctx.timers)) server.on_timer(ctx, token);
    std::set<net::NodeId> pulled;
    for (const auto& [to, frame] : ctx.frames) {
      const std::vector<std::uint8_t> body = body_of(frame);
      if (!body.empty() && peek_type(body) == MsgType::kReconfigPull) pulled.insert(to);
    }
    return pulled;
  };

  // Without the apply: the fresh digest gets ranks 2 and 3, not rank 1.
  {
    ProtocolServer server(fx.ts.cfg, fx.ts.b_secrets[3], ProtocolOptions{});
    testing::NullContext ctx(13);
    server.on_start(ctx);
    ctx.frames.clear();
    ctx.timers.clear();
    const auto deliver = [&](ServerRank from, const SignedMessage& env) {
      return fx.ops([&] { server.on_message(ctx, fx.node(from), framed(env)); });
    };
    EXPECT_EQ(deliver(1, first), echo_check);
    EXPECT_EQ(deliver(1, second), 0u);
    EXPECT_GT(deliver(2, fx.echo(2, fresh)), 0u);
    EXPECT_GT(deliver(3, fx.echo(3, fresh)), 0u);
    EXPECT_TRUE(pull_targets(server, ctx).empty());
  }
  // With it: rank 1's first vote still counts, and the round installs.
  ProtocolServer server(fx.ts.cfg, fx.ts.b_secrets[3], ProtocolOptions{});
  testing::NullContext ctx(15);
  server.on_start(ctx);
  server.on_message(ctx, fx.node(1), framed(apply));  // and rank 4 echoes it
  server.on_message(ctx, fx.node(1), framed(first));
  EXPECT_EQ(fx.ops([&] { server.on_message(ctx, fx.node(1), framed(second)); }), 0u);
  EXPECT_EQ(server.config_epoch(), 0u);
  server.on_message(ctx, fx.node(2), framed(fx.echo(2, d)));
  EXPECT_EQ(server.config_epoch(), 1u);
}

// An install rebuilds nothing a reshare keeps: the echo that completes the
// certificate costs its own check plus deriving the next service, and the
// pinned bases (y_A, y_B, y_A·y_B and the keys: a same-roster reshare changes
// no key) and their tables stay.
TEST(ReconfigRound, InstallBuildsNoCombTable) {
  RoundFixture fx;
  ProtocolServer server(fx.ts.cfg, fx.ts.b_secrets[3], ProtocolOptions{});
  testing::NullContext ctx(9);
  server.on_start(ctx);
  const SignedMessage apply = fx.apply(1, {fx.honest_deal(1), fx.honest_deal(2)});
  const hash::Digest d = reconfig_apply_digest(apply);
  const SignedMessage last = fx.echo(2, d);
  server.on_message(ctx, fx.node(1), framed(apply));
  server.on_message(ctx, fx.node(1), framed(fx.echo(1, d)));
  ASSERT_EQ(server.config_epoch(), 0u);

  const ReconfigApplyMsg msg = decode_as<ReconfigApplyMsg>(MsgType::kReconfigApply, apply.body,
                                                           fx.gp());
  const std::uint64_t echo_check =
      fx.ops([&] { EXPECT_TRUE(envelope_signature_ok(fx.ts.cfg, last)); });
  const std::uint64_t derive = fx.ops([&] { (void)next_service(fx.ts.cfg, msg); });
  const std::size_t pinned = fx.gp().pinned_table_count();
  EXPECT_EQ(fx.ops([&] { server.on_message(ctx, fx.node(2), framed(last)); }),
            echo_check + derive);
  EXPECT_EQ(server.config_epoch(), 1u);
  EXPECT_EQ(fx.gp().pinned_table_count(), pinned);
}

// Echo votes are keyed by (service, rank): an A member's echo naming B's
// apply digest takes no B member's place, so B rank 1's later echo counts.
TEST(ReconfigRound, ForeignServiceEchoCannotShadowAVote) {
  RoundFixture fx;
  ProtocolServer server(fx.ts.cfg, fx.ts.b_secrets[3], ProtocolOptions{});
  testing::NullContext ctx(11);
  server.on_start(ctx);
  const SignedMessage apply = fx.apply(1, {fx.honest_deal(1), fx.honest_deal(2)});
  const hash::Digest d = reconfig_apply_digest(apply);
  constexpr auto kA = static_cast<std::uint8_t>(ServiceRole::kServiceA);
  const SignedMessage foreign = make_envelope(
      fx.ts.a_secrets[0], encode_body(MsgType::kReconfigEcho, ReconfigEchoMsg{kA, 1, d}), 0,
      fx.prng);
  server.on_message(ctx, fx.node(1), framed(apply));  // and rank 4 echoes it
  server.on_message(ctx, fx.ts.cfg.a.node_of(1), framed(foreign));
  server.on_message(ctx, fx.node(1), framed(fx.echo(1, d)));
  EXPECT_EQ(server.config_epoch(), 0u);
  server.on_message(ctx, fx.node(2), framed(fx.echo(2, d)));
  EXPECT_EQ(server.config_epoch(), 1u);
}

}  // namespace
}  // namespace dblind::core

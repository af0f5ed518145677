// Soak tests: the full system under combined stress — many transfers,
// message duplication, mid-run crashes, and Byzantine servers at once.
#include <gtest/gtest.h>

#include "core/system.hpp"

namespace dblind::core {
namespace {

using mpz::Bigint;
using Behavior = ProtocolServer::Behavior;

TEST(Soak, ManyTransfersWithDuplicationAndCrash) {
  SystemOptions o;
  o.seed = 8001;
  o.a = {4, 1};
  o.b = {4, 1};
  System sys(std::move(o));
  sys.sim().set_duplication_percent(25);

  std::vector<TransferId> transfers;
  for (int i = 0; i < 8; ++i)
    transfers.push_back(sys.add_transfer(sys.config().params.encode_message(Bigint(7000 + i))));

  // One A server dies mid-run; one B server (a backup coordinator) too.
  sys.sim().crash_at(sys.config().a.node_of(4), 150'000);
  sys.sim().crash_at(sys.config().b.node_of(3), 250'000);

  ASSERT_TRUE(sys.run_to_completion());
  for (TransferId t : transfers) {
    for (ServerRank r : {1u, 2u, 4u}) {
      auto res = sys.result(t, r);
      ASSERT_TRUE(res.has_value()) << "t=" << t << " r=" << r;
      EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t)) << "t=" << t << " r=" << r;
    }
  }
}

TEST(Soak, ByzantinePlusCrashAtFullFaultBudget) {
  // f=2 per service: one Byzantine B server AND one crashed B server (2 = f
  // faults total at B); one crashed A server.
  SystemOptions o;
  o.seed = 8002;
  o.a = {7, 2};
  o.b = {7, 2};
  o.b_behaviors.assign(7, Behavior::kHonest);
  o.b_behaviors[0] = Behavior::kAdaptiveCancelCoordinator;  // designated coordinator hostile
  System sys(std::move(o));
  sys.sim().crash_at(sys.config().b.node_of(5), 0);
  sys.sim().crash_at(sys.config().a.node_of(2), 100'000);

  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(12321)));
  ASSERT_TRUE(sys.run_to_completion());
  EXPECT_EQ(sys.b_server(1).attack_successes(), 0);
  for (ServerRank r : {2u, 3u, 4u, 6u, 7u}) {
    auto res = sys.result(t, r);
    ASSERT_TRUE(res.has_value()) << r;
    EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t)) << r;
  }
}

TEST(Soak, TwoDifferentByzantineBehaviorsTogether) {
  SystemOptions o;
  o.seed = 8003;
  o.a = {7, 2};
  o.b = {7, 2};
  o.b_behaviors.assign(7, Behavior::kHonest);
  o.b_behaviors[2] = Behavior::kInconsistentContribution;
  o.b_behaviors[5] = Behavior::kWithholdPartial;
  System sys(std::move(o));
  sys.sim().set_duplication_percent(15);
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(555)));
  ASSERT_TRUE(sys.run_to_completion());
  auto res = sys.result(t, 1);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t));
}

TEST(Soak, StaggeredSecretsAndPrecompute) {
  // Transfers whose ciphertexts materialize at different times, with
  // contributions built ahead and duplication enabled.
  SystemOptions o;
  o.seed = 8004;
  System sys(std::move(o));
  sys.sim().set_duplication_percent(20);
  std::vector<TransferId> transfers;
  for (int i = 0; i < 4; ++i) {
    transfers.push_back(sys.add_transfer_at(
        sys.config().params.encode_message(Bigint(100 + i)),
        static_cast<net::Time>(500'000) * static_cast<net::Time>(i + 1)));
  }
  ASSERT_TRUE(sys.run_to_completion());
  for (TransferId t : transfers) {
    auto res = sys.result(t);
    ASSERT_TRUE(res.has_value()) << t;
    EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t)) << t;
  }
}

TEST(Soak, MessageHistogramShapeIsSane) {
  SystemOptions o;
  o.seed = 8005;
  System sys(std::move(o));
  // 2, not 1: encode_message(1) is the mod-p identity, which add_transfer now
  // rejects as a degenerate plaintext on every backend.
  TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(2)));
  ASSERT_TRUE(sys.run_to_completion());
  (void)t;
  auto hist = sys.rx_histogram();
  // Every protocol phase left a trace.
  for (MsgType type : {MsgType::kInit, MsgType::kCommit, MsgType::kReveal, MsgType::kContribute,
                       MsgType::kBlind, MsgType::kDone, MsgType::kSignRequest,
                       MsgType::kDecryptRequest, MsgType::kDecryptShareReply}) {
    EXPECT_GT(hist[type], 0u) << static_cast<int>(type);
  }
  // Commit messages outnumber contribute messages (2f+1 vs f+1 per round).
  EXPECT_GT(hist[MsgType::kCommit], hist[MsgType::kContribute]);
}

}  // namespace
}  // namespace dblind::core

// End-to-end through the client API: publish at A, re-encrypt to B, retrieve
// and threshold-decrypt at B — no test oracle anywhere.
#include "core/client.hpp"

#include <gtest/gtest.h>

#include "core/system.hpp"

namespace dblind::core {
namespace {

using mpz::Bigint;
using Behavior = ProtocolServer::Behavior;

struct ClientFixture {
  System sys;
  ClientNode* client = nullptr;
  Bigint m;

  explicit ClientFixture(SystemOptions opts, std::uint64_t value = 987654321,
                         TransferId transfer = 1000)
      : sys(std::move(opts)), m(sys.config().params.encode_message(Bigint(value))) {
    auto node = std::make_unique<ClientNode>(sys.config(), transfer, m);
    client = node.get();
    sys.sim().add_node(std::move(node));
  }

  bool run() {
    return sys.sim().run_until([&] { return client->plaintext().has_value(); }, 20'000'000);
  }
};

SystemOptions base(std::uint64_t seed) {
  SystemOptions o;
  o.seed = seed;
  return o;
}

TEST(Client, FullPipelineWithoutOracle) {
  ClientFixture fx(base(1));
  ASSERT_TRUE(fx.run());
  EXPECT_EQ(*fx.client->plaintext(), fx.m);
}

TEST(Client, WorksWithByzantineCoordinator) {
  SystemOptions o = base(2);
  o.b_behaviors = {Behavior::kAdaptiveCancelCoordinator, Behavior::kHonest, Behavior::kHonest,
                   Behavior::kHonest};
  ClientFixture fx(std::move(o), 1234);
  ASSERT_TRUE(fx.run());
  EXPECT_EQ(*fx.client->plaintext(), fx.m);
}

TEST(Client, WorksWithCrashedServers) {
  ClientFixture fx(base(3), 777);
  fx.sys.sim().crash_at(fx.sys.config().a.node_of(2), 0);
  fx.sys.sim().crash_at(fx.sys.config().b.node_of(4), 0);
  ASSERT_TRUE(fx.run());
  EXPECT_EQ(*fx.client->plaintext(), fx.m);
}

TEST(Client, WorksUnderDuplication) {
  ClientFixture fx(base(4), 31415);
  fx.sys.sim().set_duplication_percent(30);
  ASSERT_TRUE(fx.run());
  EXPECT_EQ(*fx.client->plaintext(), fx.m);
}

TEST(Client, TwoClientsTwoTransfers) {
  System sys(base(5));
  Bigint m1 = sys.config().params.encode_message(Bigint(11));
  Bigint m2 = sys.config().params.encode_message(Bigint(22));
  auto c1 = std::make_unique<ClientNode>(sys.config(), 2000, m1);
  auto c2 = std::make_unique<ClientNode>(sys.config(), 2001, m2);
  ClientNode* p1 = c1.get();
  ClientNode* p2 = c2.get();
  sys.sim().add_node(std::move(c1));
  sys.sim().add_node(std::move(c2));
  ASSERT_TRUE(sys.sim().run_until(
      [&] { return p1->plaintext().has_value() && p2->plaintext().has_value(); }, 40'000'000));
  EXPECT_EQ(*p1->plaintext(), m1);
  EXPECT_EQ(*p2->plaintext(), m2);
}

// A's done goes to each B server once. Here, over a bus that drops 12% of
// messages, A's done for B rank 1's instance reached only B rank 1, and the
// done for B rank 2's backup instance reached the others: the client chose
// B rank 1's. The other B servers hold a result and never pull that done,
// and a B server decrypts only what a done it holds names, so the client
// hands the done it chose to every B server.
TEST(Client, HandsTheChosenDoneToEveryBServer) {
  SystemOptions o = base(3841);
  o.params = group::GroupParams::named(group::ParamId::kToy64);
  o.protocol.backup_delay = 300'000;
  o.protocol.signing_retry_delay = 500'000;
  System sys(std::move(o));
  net::FaultPlan plan;
  plan.drop_percent = 12;
  sys.sim().set_fault_plan(plan);
  const Bigint m = sys.config().params.encode_message(Bigint(std::uint64_t{2718281828}));
  auto node = std::make_unique<ClientNode>(sys.config(), 9001, m, /*poll_interval=*/20'000);
  ClientNode* client = node.get();
  sys.sim().add_node(std::move(node));
  ASSERT_TRUE(sys.sim().run_until(
      [&] { return client->plaintext().has_value() || sys.sim().now() > 60'000'000; }));
  ASSERT_TRUE(client->plaintext().has_value());
  EXPECT_EQ(*client->plaintext(), m);
}

TEST(Client, ServersRefuseUnauthorizedDecryption) {
  // A malicious "client" asks B to decrypt a ciphertext that is NOT a
  // re-encryption result: servers must stay silent.
  class Thief final : public net::Node {
   public:
    Thief(SystemConfig cfg, elgamal::Ciphertext target) : cfg_(std::move(cfg)), target_(std::move(target)) {}
    void on_start(net::Context& ctx) override {
      ClientDecryptRequestMsg req;
      req.transfer = 1000;
      req.ciphertext = target_;
      Writer w;
      w.u8(static_cast<std::uint8_t>(WireKind::kClient));
      w.bytes(encode_body(MsgType::kClientDecryptRequest, req));
      for (ServerRank r = 1; r <= cfg_.b.cfg.n; ++r) ctx.send(cfg_.b.node_of(r), w.take());
      // resend a few times to be sure
      ctx.set_timer(100'000, 1);
    }
    void on_timer(net::Context&, std::uint64_t) override {}
    void on_message(net::Context&, net::NodeId, std::span<const std::uint8_t>) override {
      ++replies;
    }
    SystemConfig cfg_;
    elgamal::Ciphertext target_;
    int replies = 0;
  };

  ClientFixture fx(base(6), 5555);
  // The thief targets an arbitrary ciphertext under K_B (a secret someone
  // else encrypted directly to B, never re-encrypted).
  mpz::Prng prng(9);
  Bigint victim = fx.sys.config().params.encode_message(Bigint(666));
  elgamal::Ciphertext target = fx.sys.config().b.encryption_key.encrypt(victim, prng);
  auto thief = std::make_unique<Thief>(fx.sys.config(), target);
  Thief* thief_ptr = thief.get();
  fx.sys.sim().add_node(std::move(thief));

  ASSERT_TRUE(fx.run());
  EXPECT_EQ(*fx.client->plaintext(), fx.m);  // honest client unaffected
  EXPECT_EQ(thief_ptr->replies, 0);          // thief got nothing
}

}  // namespace
}  // namespace dblind::core

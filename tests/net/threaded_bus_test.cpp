// ThreadedBus: the same Node code under real threads and real time.
#include "net/threaded_bus.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "core/server.hpp"
#include "tests/core/test_util.hpp"

namespace dblind::net {
namespace {

class Counter final : public Node {
 public:
  void on_start(Context& ctx) override { ctx.set_timer(1000, 1); }
  void on_message(Context& ctx, NodeId from, std::span<const std::uint8_t>) override {
    received.fetch_add(1, std::memory_order_relaxed);
    if (received.load() < 5) ctx.send(from, {0x01});
  }
  void on_timer(Context& ctx, std::uint64_t) override {
    timer_fired.store(true, std::memory_order_relaxed);
    ctx.send(peer, {0x02});
  }
  NodeId peer = 0;
  std::atomic<int> received{0};
  std::atomic<bool> timer_fired{false};
};

TEST(ThreadedBus, PingPongAcrossThreads) {
  ThreadedBus bus(1);
  auto a = std::make_unique<Counter>();
  auto b = std::make_unique<Counter>();
  Counter* ap = a.get();
  Counter* bp = b.get();
  NodeId aid = bus.add_node(std::move(a));
  NodeId bid = bus.add_node(std::move(b));
  ap->peer = bid;
  bp->peer = aid;
  bus.start();
  bool done = bus.run_until(
      [&] { return ap->received.load() >= 5 && bp->received.load() >= 5; },
      std::chrono::milliseconds(5000));
  bus.stop();
  EXPECT_TRUE(done);
  EXPECT_TRUE(ap->timer_fired.load());
  EXPECT_TRUE(bp->timer_fired.load());
}

TEST(ThreadedBus, TimersFire) {
  class TimerOnly final : public Node {
   public:
    void on_start(Context& ctx) override {
      ctx.set_timer(1000, 7);
      ctx.set_timer(2000, 8);
    }
    void on_message(Context&, NodeId, std::span<const std::uint8_t>) override {}
    void on_timer(Context&, std::uint64_t token) override {
      fired.fetch_add(token == 7 ? 1 : 100, std::memory_order_relaxed);
    }
    std::atomic<int> fired{0};
  };
  ThreadedBus bus(2);
  auto node = std::make_unique<TimerOnly>();
  TimerOnly* ptr = node.get();
  bus.add_node(std::move(node));
  bus.start();
  bool done =
      bus.run_until([&] { return ptr->fired.load() == 101; }, std::chrono::milliseconds(5000));
  bus.stop();
  EXPECT_TRUE(done);
}

TEST(ThreadedBus, AddAfterStartRejected) {
  ThreadedBus bus(3);
  bus.add_node(std::make_unique<Counter>());
  bus.start();
  EXPECT_THROW((void)bus.add_node(std::make_unique<Counter>()), std::logic_error);
  bus.stop();
}

// The headline test: the COMPLETE re-encryption protocol, byte-for-byte the
// same ProtocolServer code, on 8 real threads with real-time delays.
TEST(ThreadedBus, FullProtocolRunsOnRealThreads) {
  auto ts = core::testing::TestSystem::make(0xbeef);
  mpz::Prng setup(42);
  mpz::Bigint m = ts.params.encode_message(mpz::Bigint(271828));
  elgamal::Ciphertext ea_m = ts.cfg.a.encryption_key.encrypt(m, setup);

  core::ProtocolOptions opts;
  // Real-time timers: keep backup delays short so retries are fast if the
  // scheduler hiccups, but long enough not to trigger spurious backups.
  opts.backup_delay = 300'000;  // 300 ms
  opts.signing_retry_delay = 500'000;

  ThreadedBus bus(0xfeed);
  std::vector<core::ProtocolServer*> b_servers;
  for (core::ServerRank r = 1; r <= 4; ++r) {
    auto node = std::make_unique<core::ProtocolServer>(ts.cfg, ts.a_secrets[r - 1], opts);
    node->store_secret(1, ea_m);
    bus.add_node(std::move(node));
  }
  for (core::ServerRank r = 1; r <= 4; ++r) {
    auto node = std::make_unique<core::ProtocolServer>(ts.cfg, ts.b_secrets[r - 1], opts);
    node->register_transfer(1);
    b_servers.push_back(node.get());
    bus.add_node(std::move(node));
  }

  bus.start();
  bool done = bus.run_until(
      [&] {
        for (core::ProtocolServer* s : b_servers) {
          if (s->results_count() == 0) return false;
        }
        return true;
      },
      std::chrono::milliseconds(30000));
  bus.stop();
  ASSERT_TRUE(done) << "protocol did not complete on real threads";

  elgamal::KeyPair kb = elgamal::KeyPair::from_private(ts.params, ts.b_key);
  for (core::ProtocolServer* s : b_servers) {
    auto res = s->result(1);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(kb.decrypt(*res), m);
  }
}

}  // namespace
}  // namespace dblind::net

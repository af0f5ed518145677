// The COMPLETE pipeline — publisher client, both services, subscriber
// retrieval — on real threads (one per node, plus the client).
#include <gtest/gtest.h>

#include "core/client.hpp"
#include "core/server.hpp"
#include "net/threaded_bus.hpp"
#include "tests/core/test_util.hpp"

namespace dblind::core {
namespace {

TEST(ThreadedClient, FullPipelineOnRealThreads) {
  auto ts = testing::TestSystem::make(0xabcd);
  mpz::Bigint m = ts.params.encode_message(mpz::Bigint(1618033988));

  ProtocolOptions opts;
  opts.backup_delay = 300'000;
  opts.signing_retry_delay = 500'000;

  net::ThreadedBus bus(0x1234);
  for (ServerRank r = 1; r <= 4; ++r)
    bus.add_node(std::make_unique<ProtocolServer>(ts.cfg, ts.a_secrets[r - 1], opts));
  for (ServerRank r = 1; r <= 4; ++r)
    bus.add_node(std::make_unique<ProtocolServer>(ts.cfg, ts.b_secrets[r - 1], opts));
  auto client = std::make_unique<ClientNode>(ts.cfg, 9000, m, /*poll_interval=*/20'000);
  ClientNode* handle = client.get();
  bus.add_node(std::move(client));

  bus.start();
  bool done = bus.run_until([&] { return handle->finished(); }, std::chrono::milliseconds(30000));
  bus.stop();
  ASSERT_TRUE(done) << "client pipeline did not finish on real threads";
  ASSERT_TRUE(handle->plaintext().has_value());
  EXPECT_EQ(*handle->plaintext(), m);
}

// The same pipeline on ristretto255: node threads share elements (keys, DKG
// commitments, ciphertexts) whose encodings are computed on first read, so
// this is the run that exercises that memo across real threads.
TEST(ThreadedClient, FullPipelineOnRealThreadsEc255) {
  auto ts = testing::TestSystem::make(0xec25, {4, 1}, {4, 1}, group::ParamId::kEc255);
  mpz::Bigint m = ts.params.encode_message(mpz::Bigint(1414213562));

  ProtocolOptions opts;
  opts.backup_delay = 300'000;
  opts.signing_retry_delay = 500'000;

  net::ThreadedBus bus(0x2552);
  for (ServerRank r = 1; r <= 4; ++r)
    bus.add_node(std::make_unique<ProtocolServer>(ts.cfg, ts.a_secrets[r - 1], opts));
  for (ServerRank r = 1; r <= 4; ++r)
    bus.add_node(std::make_unique<ProtocolServer>(ts.cfg, ts.b_secrets[r - 1], opts));
  auto client = std::make_unique<ClientNode>(ts.cfg, 9002, m, /*poll_interval=*/20'000);
  ClientNode* handle = client.get();
  bus.add_node(std::move(client));

  bus.start();
  bool done = bus.run_until([&] { return handle->finished(); }, std::chrono::milliseconds(30000));
  bus.stop();
  ASSERT_TRUE(done) << "ec255 client pipeline did not finish on real threads";
  ASSERT_TRUE(handle->plaintext().has_value());
  EXPECT_EQ(*handle->plaintext(), m);
}

TEST(ThreadedClient, FullPipelineSurvivesLossyBus) {
  // Same pipeline, but the transport drops 12% of messages: only the
  // retransmission layer — server resend timers, idempotent cached replies,
  // client polling — can carry it to completion.
  // Wall-clock timers here are µs of real time, so retransmits fire fast.
  auto ts = testing::TestSystem::make(0xbeef);
  mpz::Bigint m = ts.params.encode_message(mpz::Bigint(2718281828));

  ProtocolOptions opts;
  opts.backup_delay = 300'000;
  opts.signing_retry_delay = 500'000;

  net::ThreadedBus bus(0x5678);
  net::FaultPlan plan;
  plan.drop_percent = 12;
  bus.set_fault_plan(plan);
  for (ServerRank r = 1; r <= 4; ++r)
    bus.add_node(std::make_unique<ProtocolServer>(ts.cfg, ts.a_secrets[r - 1], opts));
  for (ServerRank r = 1; r <= 4; ++r)
    bus.add_node(std::make_unique<ProtocolServer>(ts.cfg, ts.b_secrets[r - 1], opts));
  auto client = std::make_unique<ClientNode>(ts.cfg, 9001, m, /*poll_interval=*/20'000);
  ClientNode* handle = client.get();
  bus.add_node(std::move(client));

  bus.start();
  bool done = bus.run_until([&] { return handle->finished(); }, std::chrono::milliseconds(60000));
  bus.stop();
  ASSERT_TRUE(done) << "client pipeline did not finish on a lossy threaded bus";
  ASSERT_TRUE(handle->plaintext().has_value());
  EXPECT_EQ(*handle->plaintext(), m);
  EXPECT_GT(bus.stats().messages_dropped, 0u);
}

}  // namespace
}  // namespace dblind::core

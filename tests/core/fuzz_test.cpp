// Robustness fuzzing: random and mutated byte strings fed into every decoder
// and into live protocol nodes must never crash — at worst they raise
// CodecError (and protocol handlers swallow that, treating garbage as loss).
#include <gtest/gtest.h>

#include <optional>

#include "core/client.hpp"
#include "core/messages.hpp"
#include "core/server.hpp"
#include "core/system.hpp"
#include "core/validity.hpp"
#include "mpz/random.hpp"
#include "tests/core/fig5_oracle.hpp"
#include "tests/core/test_util.hpp"
#include "tests/core/wire_table.hpp"

namespace dblind::core {
namespace {

using mpz::Prng;

template <typename Fn>
void expect_no_crash(Fn&& fn) {
  try {
    fn();
  } catch (const CodecError&) {
    // expected for malformed input
  } catch (const std::invalid_argument&) {
    // some decoders surface domain validation errors
  }
}

std::vector<std::uint8_t> random_bytes(Prng& prng, std::size_t max_len) {
  std::vector<std::uint8_t> out(prng.uniform_u64(max_len + 1));
  prng.fill(out);
  return out;
}

class DecoderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// One byte form per value: `row` rejects `bytes`, or writes back exactly the
// bytes it accepted.
void expect_rejected_or_canonical(const testing::WireRow& row,
                                  const std::vector<std::uint8_t>& bytes) {
  std::optional<std::vector<std::uint8_t>> again;
  expect_no_crash([&] { again = row.reparse(bytes); });
  if (again) {
    EXPECT_EQ(*again, bytes) << row.name << " accepted a second byte form";
  }
}

// Every parser of the wire table (tests/core/wire_table.hpp), fed random
// bytes and single-byte mutations of its row's valid encoding.
TEST_P(DecoderFuzz, RandomBytesNeverCrashDecoders) {
  Prng prng(GetParam());
  const std::vector<testing::WireRow> table = testing::wire_table();
  for (int iter = 0; iter < 300; ++iter) {
    auto bytes = random_bytes(prng, 160);
    for (const testing::WireRow& row : table) {
      expect_rejected_or_canonical(row, bytes);
      std::vector<std::uint8_t> mutated = row.bytes;
      mutated[prng.uniform_u64(mutated.size())] ^= static_cast<std::uint8_t>(1 + iter % 255);
      expect_rejected_or_canonical(row, mutated);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz, ::testing::Values(1u, 2u, 3u, 4u));

TEST(ValidityFuzz, MutatedValidMessagesNeverValidateOrCrash) {
  // Take a fully valid contribute message, flip bytes everywhere, and make
  // sure validation either rejects or (for mutations outside signed regions)
  // still behaves sanely — and never crashes.
  auto ts = testing::TestSystem::make(77);
  Prng prng(5);
  InstanceId id{1, 1, 0};

  // Build a valid contribute chain (commit -> reveal -> contribute).
  struct C {
    mpz::Bigint rho, r1, r2;
    Contribution contribution;
  };
  std::vector<C> contribs;
  std::vector<SignedMessage> commits;
  for (ServerRank r = 1; r <= 3; ++r) {
    C c;
    c.rho = ts.params.random_element(prng);
    c.r1 = ts.params.random_exponent(prng);
    c.r2 = ts.params.random_exponent(prng);
    c.contribution.ea = ts.cfg.a.encryption_key.encrypt_with_nonce(c.rho, c.r1);
    c.contribution.eb = ts.cfg.b.encryption_key.encrypt_with_nonce(c.rho, c.r2);
    contribs.push_back(c);
    CommitMsg m;
    m.id = id;
    m.server = r;
    m.commitment = c.contribution.commitment_digest();
    commits.push_back(
        make_envelope(ts.b_secrets[r - 1], encode_body(MsgType::kCommit, m), 0, prng));
  }
  RevealMsg reveal;
  reveal.id = id;
  reveal.commits = commits;
  SignedMessage reveal_env = make_envelope(ts.b_secrets[0],
                                           encode_body(MsgType::kReveal, reveal), 0, prng);
  ContributeMsg cm;
  cm.id = id;
  cm.server = 2;
  cm.reveal = reveal_env;
  cm.contribution = contribs[1].contribution;
  cm.vde = zkp::vde_prove(ts.cfg.a.encryption_key, cm.contribution.ea, contribs[1].r1,
                          ts.cfg.b.encryption_key, cm.contribution.eb, contribs[1].r2,
                          vde_context(id, 2), prng);
  SignedMessage env = make_envelope(ts.b_secrets[1],
                                    encode_body(MsgType::kContribute, cm), 0, prng);
  ASSERT_TRUE(oracle::check_contribute(ts.cfg, env).has_value());
  const auto decoded = try_decode<ContributeMsg>(ts.cfg, MsgType::kContribute, env.body);
  ASSERT_TRUE(decoded && check_contribute(ts.cfg, env, *decoded, prng));

  // Serialize the envelope, mutate one byte at a stride, re-parse, validate
  // with the Fig. 5 reference and with the check the servers run: the two
  // must agree on every mutation, on the contribute and on the reveal it
  // embeds.
  Writer w;
  env.encode(w);
  std::vector<std::uint8_t> wire = w.take();
  int accepted = 0;
  int reveals_accepted = 0;
  int reveals_rejected = 0;
  for (std::size_t pos = 0; pos < wire.size(); pos += 7) {
    std::vector<std::uint8_t> mutated = wire;
    mutated[pos] ^= 0x5A;
    expect_no_crash([&] {
      Reader r(mutated);
      SignedMessage m2 = SignedMessage::decode(r);
      r.expect_done();
      const bool serial = oracle::check_contribute(ts.cfg, m2).has_value();
      auto c = try_decode<ContributeMsg>(ts.cfg, MsgType::kContribute, m2.body);
      EXPECT_EQ(c && check_contribute(ts.cfg, m2, *c, prng), serial) << "pos=" << pos;
      if (serial) ++accepted;
      if (!c) return;
      const bool serial_reveal = oracle::check_reveal(ts.cfg, c->reveal).has_value();
      auto reveal = try_decode<RevealMsg>(ts.cfg, MsgType::kReveal, c->reveal.body);
      EXPECT_EQ(reveal && check_reveal(ts.cfg, c->reveal, *reveal), serial_reveal)
          << "pos=" << pos;
      ++(serial_reveal ? reveals_accepted : reveals_rejected);
    });
  }
  // A mutation that still validates must be a mutation that decodes to the
  // identical message (e.g. inside ignored padding — our codec has none), so
  // none should be accepted.
  EXPECT_EQ(accepted, 0);
  // Mutations outside the embedded reveal leave it valid; some inside it
  // still decode, and must be rejected by both.
  EXPECT_GT(reveals_accepted, 0);
  EXPECT_GT(reveals_rejected, 0);

  // The same mutations through the group-aware envelope parse the servers
  // run: it either throws CodecError — and then the group-less parse of the
  // same bytes, if it succeeds, never validates — or it yields exactly the
  // group-less message, every element decoded.
  int rejected_at_parse = 0;
  for (std::size_t pos = 0; pos < wire.size(); pos += 3) {
    std::vector<std::uint8_t> mutated = wire;
    mutated[pos] ^= 0x5A;
    std::optional<SignedMessage> typed;
    try {
      Reader r(mutated, &ts.params);
      typed = SignedMessage::decode(r);
      r.expect_done();
    } catch (const CodecError&) {
      typed.reset();
    }
    expect_no_crash([&] {
      Reader r(mutated);
      SignedMessage bare = SignedMessage::decode(r);
      r.expect_done();
      if (typed) {
        EXPECT_EQ(*typed, bare) << "pos=" << pos;
        EXPECT_TRUE(typed->sig.r.is_decoded()) << "pos=" << pos;
      } else {
        ++rejected_at_parse;
        EXPECT_FALSE(oracle::check_contribute(ts.cfg, bare).has_value()) << "pos=" << pos;
      }
    });
  }
  EXPECT_GT(rejected_at_parse, 0);  // mutations inside the signature commitment
}

TEST(NodeFuzz, GarbageTrafficDoesNotDisturbProtocol) {
  // Blast random bytes at every node while a real transfer runs: all of it
  // must be ignored, and the transfer must still complete correctly.
  class GarbageBlaster final : public net::Node {
   public:
    explicit GarbageBlaster(std::size_t targets) : targets_(targets) {}
    void on_start(net::Context& ctx) override {
      for (int burst = 0; burst < 10; ++burst) ctx.set_timer(1000 * (burst + 1), 1);
    }
    void on_timer(net::Context& ctx, std::uint64_t) override {
      for (net::NodeId t = 0; t < targets_; ++t) {
        std::vector<std::uint8_t> junk(ctx.rng().uniform_u64(200));
        ctx.rng().fill(junk);
        ctx.send(t, std::move(junk));
      }
    }
    void on_message(net::Context&, net::NodeId, std::span<const std::uint8_t>) override {}

   private:
    std::size_t targets_;
  };

  SystemOptions o;
  o.seed = 31337;
  System sys(std::move(o));
  TransferId t = sys.add_transfer(sys.config().params.encode_message(mpz::Bigint(9999)));
  sys.sim().add_node(std::make_unique<GarbageBlaster>(8));  // 8 protocol nodes
  ASSERT_TRUE(sys.run_to_completion());
  auto res = sys.result(t);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t));
}

TEST(ClientFuzz, MutatedRepliesNeverCrashClient) {
  // ClientNode::on_message must survive random bytes AND structurally valid
  // client frames whose payloads are mutated/fabricated. None of it may make
  // the client accept a result (check_done / share verification gate that).
  auto ts = testing::TestSystem::make(42);
  Prng prng(6);
  ClientNode client(ts.cfg, /*transfer=*/9, ts.params.encode_message(mpz::Bigint(1234)));
  testing::NullContext ctx(7);
  client.on_start(ctx);

  for (int iter = 0; iter < 300; ++iter) {
    expect_no_crash([&] { client.on_message(ctx, 0, random_bytes(prng, 200)); });
  }

  // A well-framed ResultReply whose service signature is fabricated garbage:
  // decodes cleanly, must be rejected by check_done, never crash — and the
  // same for every single-byte mutation of the frame.
  ResultReplyMsg reply;
  reply.transfer = 9;
  reply.done.service = static_cast<std::uint8_t>(ServiceRole::kServiceB);
  reply.done.body = random_bytes(prng, 64);
  reply.done.sig = zkp::SchnorrSignature{ts.params.random_exponent(prng),
                                         ts.params.random_exponent(prng)};
  Writer w;
  w.u8(static_cast<std::uint8_t>(WireKind::kClient));
  w.bytes(encode_body(MsgType::kResultReply, reply));
  std::vector<std::uint8_t> frame = w.take();
  expect_no_crash([&] { client.on_message(ctx, 4, frame); });
  for (std::size_t pos = 0; pos < frame.size(); ++pos) {
    std::vector<std::uint8_t> mutated = frame;
    mutated[pos] ^= 0xA5;
    expect_no_crash([&] { client.on_message(ctx, 4, mutated); });
  }
  EXPECT_FALSE(client.have_result());
  EXPECT_FALSE(client.plaintext().has_value());
}

TEST(RestoreFuzz, GarbageSnapshotsNeverCrashAndYieldEmptyState) {
  // ProtocolServer::restore is the crash-recovery decoder: any byte string —
  // random garbage, truncations, or bit-flips of a valid snapshot — must be
  // absorbed without throwing, leaving at worst an empty (amnesiac) server.
  auto ts = testing::TestSystem::make(43);
  Prng prng(11);
  ProtocolOptions opts;

  ProtocolServer server(ts.cfg, ts.b_secrets[0], opts);
  server.register_transfer(5);
  server.register_transfer(6);
  std::vector<std::uint8_t> snap = server.snapshot();
  ASSERT_FALSE(snap.empty());

  // Round-trip: restoring a snapshot and snapshotting again is the identity
  // on durable state.
  ProtocolServer twin(ts.cfg, ts.b_secrets[0], opts);
  twin.restore(snap);
  EXPECT_EQ(twin.snapshot(), snap);

  for (int iter = 0; iter < 300; ++iter) {
    ProtocolServer victim(ts.cfg, ts.b_secrets[0], opts);
    victim.restore(random_bytes(prng, 200));  // must not throw
    EXPECT_EQ(victim.results_count(), 0u);
  }
  for (std::size_t len = 0; len < snap.size(); ++len) {
    ProtocolServer victim(ts.cfg, ts.b_secrets[0], opts);
    victim.restore(std::span<const std::uint8_t>(snap).first(len));
  }
  for (std::size_t pos = 0; pos < snap.size(); ++pos) {
    std::vector<std::uint8_t> mutated = snap;
    mutated[pos] ^= 0x42;
    ProtocolServer victim(ts.cfg, ts.b_secrets[0], opts);
    victim.restore(mutated);
  }
}

TEST(RestoreFuzz, ASideSnapshotRoundTripsStoredSecrets) {
  auto ts = testing::TestSystem::make(44);
  Prng prng(12);
  ProtocolOptions opts;
  ProtocolServer a(ts.cfg, ts.a_secrets[0], opts);
  a.store_secret(3, ts.cfg.a.encryption_key.encrypt(ts.params.encode_message(mpz::Bigint(77)), prng));
  a.store_secret_at(4, ts.cfg.a.encryption_key.encrypt(ts.params.encode_message(mpz::Bigint(78)), prng),
                    25'000);
  std::vector<std::uint8_t> snap = a.snapshot();
  ProtocolServer twin(ts.cfg, ts.a_secrets[0], opts);
  twin.restore(snap);
  EXPECT_EQ(twin.snapshot(), snap);
}

}  // namespace
}  // namespace dblind::core

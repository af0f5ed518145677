#include "common/codec.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <map>
#include <new>
#include <set>
#include <string>

#include "core/messages.hpp"
#include "core/server.hpp"
#include "core/system.hpp"
#include "core/types.hpp"
#include "core/validity.hpp"
#include "hash/sha256.hpp"
#include "tests/core/test_util.hpp"
#include "tests/core/wire_table.hpp"
#include "threshold/reshare.hpp"

// A counting global operator new: while g_count_allocs is set it records
// the largest single allocation (CodecAllocation below); otherwise it is
// plain malloc.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_largest_alloc{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
    while (size > seen &&
           !g_largest_alloc.compare_exchange_weak(seen, size, std::memory_order_relaxed)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so GCC does not pair an inlined free() with the operator new
// call it replaces (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }

namespace dblind::core {
namespace {

using mpz::Bigint;

TEST(Codec, PrimitivesRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.str("hello");
  w.bigint(Bigint::from_hex("123456789abcdef0123"));
  w.bigint(Bigint::from_hex("-ff"));
  w.bigint(Bigint(0));
  std::array<std::uint8_t, 32> d{};
  d[0] = 1;
  d[31] = 2;
  w.digest(d);
  auto bytes = w.take();

  Reader r(bytes);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.bigint(), Bigint::from_hex("123456789abcdef0123"));
  EXPECT_EQ(r.bigint(), Bigint::from_hex("-ff"));
  EXPECT_EQ(r.bigint(), Bigint(0));
  EXPECT_EQ(r.digest(), d);
  EXPECT_TRUE(r.done());
}

TEST(Codec, ReaderBoundsChecked) {
  // Size goes through a volatile so GCC can't constant-fold it: with a
  // statically-known 2-byte buffer, GCC 12 emits a false -Warray-bounds on
  // digest()'s copy, which the bounds check makes unreachable (GCC PR105679).
  volatile std::size_t tiny_len = 2;
  std::vector<std::uint8_t> tiny(tiny_len, 1);
  Reader r(tiny);
  EXPECT_EQ(r.u8(), 1);
  EXPECT_THROW((void)r.u32(), CodecError);
  Reader r2(tiny);
  EXPECT_THROW((void)r2.u64(), CodecError);
  Reader r3(tiny);
  EXPECT_THROW((void)r3.digest(), CodecError);
}

TEST(Codec, TruncatedBytesRejected) {
  Writer w;
  w.bytes(std::vector<std::uint8_t>(100, 7));
  auto buf = w.take();
  buf.resize(50);
  Reader r(buf);
  EXPECT_THROW((void)r.bytes(), CodecError);
}

TEST(Codec, BadBigintSignRejected) {
  std::vector<std::uint8_t> buf = {2 /*bad sign*/, 1, 0, 0, 0, 42};
  Reader r(buf);
  EXPECT_THROW((void)r.bigint(), CodecError);
}

// One byte form per value. A SignedMessage whose sig.s is written with a
// leading zero byte (00 52 52) would parse equal to the canonical 52 52, so
// the reader rejects it, as it rejects an empty magnitude and a negative
// zero, and set or map keys that are not strictly ascending.
TEST(Codec, SecondByteFormsRejected) {
  const SignedMessage env{1, 3, 0, {9, 8, 7}, {Bigint(123), Bigint(0x5252)}};
  Writer w;
  w.u8(env.service);
  w.u32(env.signer);
  w.u32(env.cfg_epoch);
  w.bytes(env.body);
  w.bigint(env.sig.r);
  w.u8(0);
  w.bytes(std::vector<std::uint8_t>{0x00, 0x52, 0x52});
  const std::vector<std::uint8_t> padded = w.take();
  const std::vector<std::uint8_t> canonical = group::to_bytes(env);
  ASSERT_EQ(padded.size(), canonical.size() + 1);
  EXPECT_EQ(group::from_bytes<SignedMessage>(canonical), env);
  EXPECT_THROW((void)group::from_bytes<SignedMessage>(padded), CodecError);

  for (const std::vector<std::uint8_t>& bigint :
       {std::vector<std::uint8_t>{0, 0, 0, 0, 0}, std::vector<std::uint8_t>{1, 1, 0, 0, 0, 0}}) {
    Reader r(bigint);
    EXPECT_THROW((void)r.bigint(), CodecError);
  }
  Writer zero;
  zero.bigint(Bigint(0));
  EXPECT_EQ(zero.take(), (std::vector<std::uint8_t>{0, 1, 0, 0, 0, 0}));

  const auto keys = [](std::initializer_list<std::uint64_t> ks) {
    Writer kw;
    kw.u32(static_cast<std::uint32_t>(ks.size()));
    for (std::uint64_t k : ks) kw.u64(k);
    return kw.take();
  };
  using Set = std::set<std::uint64_t>;
  EXPECT_EQ(group::from_bytes<Set>(keys({1, 2})), (Set{1, 2}));
  EXPECT_THROW((void)group::from_bytes<Set>(keys({2, 1})), CodecError);
  EXPECT_THROW((void)group::from_bytes<Set>(keys({1, 1})), CodecError);
  using Map = std::map<std::uint64_t, std::uint8_t>;
  std::vector<std::uint8_t> repeated = group::to_bytes(Map{{1, 7}, {2, 8}});
  repeated[13] = 1;  // after the count and the first entry: the second key, 2, becomes 1
  EXPECT_THROW((void)group::from_bytes<Map>(repeated), CodecError);
}

TEST(Codec, ExpectDoneCatchesTrailing) {
  std::vector<std::uint8_t> buf = {1, 2, 3};
  Reader r(buf);
  (void)r.u8();
  EXPECT_THROW(r.expect_done(), CodecError);
  (void)r.u8();
  (void)r.u8();
  EXPECT_NO_THROW(r.expect_done());
}

TEST(Codec, InstanceIdRoundTrip) {
  InstanceId id{7, 3, 2};
  EXPECT_EQ(group::from_bytes<InstanceId>(group::to_bytes(id)), id);
  EXPECT_EQ(id.str(), "t7/c3/e2");
}

TEST(Codec, MessageBodiesRoundTrip) {
  InstanceId id{1, 2, 0};

  CommitMsg commit;
  commit.id = id;
  commit.server = 5;
  commit.commitment.fill(0x42);
  auto body = encode_body(MsgType::kCommit, commit);
  EXPECT_EQ(peek_type(body), MsgType::kCommit);
  CommitMsg back = decode_as<CommitMsg>(MsgType::kCommit, body);
  EXPECT_EQ(back.id, id);
  EXPECT_EQ(back.server, 5u);
  EXPECT_EQ(back.commitment, commit.commitment);
}

TEST(Codec, DecodeAsRejectsWrongTag) {
  InitMsg init{{1, 1, 0}};
  auto body = encode_body(MsgType::kInit, init);
  EXPECT_THROW((void)decode_as<CommitMsg>(MsgType::kCommit, body), CodecError);
}

TEST(Codec, DecodeAsRejectsTrailingGarbage) {
  InitMsg init{{1, 1, 0}};
  auto body = encode_body(MsgType::kInit, init);
  body.push_back(0x00);
  EXPECT_THROW((void)decode_as<InitMsg>(MsgType::kInit, body), CodecError);
}

TEST(Codec, ContributionDigestIsCanonical) {
  group::GroupParams gp = group::GroupParams::named(group::ParamId::kToy64);
  mpz::Prng prng(1);
  elgamal::KeyPair ka = elgamal::KeyPair::generate(gp, prng);
  Contribution c;
  c.ea = ka.public_key().encrypt(gp.random_element(prng), prng);
  c.eb = ka.public_key().encrypt(gp.random_element(prng), prng);
  EXPECT_EQ(c.commitment_digest(), c.commitment_digest());
  Contribution c2 = c;
  c2.eb.b = gp.mul(c2.eb.b, gp.g());
  EXPECT_NE(c.commitment_digest(), c2.commitment_digest());
}

TEST(Codec, SignedMessageRoundTrip) {
  SignedMessage env;
  env.service = 1;
  env.signer = 3;
  env.body = {9, 8, 7};
  env.sig = {Bigint(123), Bigint(456)};
  Writer w;
  env.encode(w);
  auto bytes = w.take();
  Reader r(bytes);
  SignedMessage back = SignedMessage::decode(r);
  r.expect_done();
  EXPECT_EQ(back, env);
}

TEST(Codec, NestedEvidenceRoundTrip) {
  // Reveal containing commits containing digests: three levels of nesting.
  InstanceId id{9, 1, 0};
  RevealMsg reveal;
  reveal.id = id;
  for (std::uint32_t i = 1; i <= 3; ++i) {
    CommitMsg c;
    c.id = id;
    c.server = i;
    c.commitment.fill(static_cast<std::uint8_t>(i));
    SignedMessage env;
    env.service = 1;
    env.signer = i;
    env.body = encode_body(MsgType::kCommit, c);
    env.sig = {Bigint(std::uint64_t{i}), Bigint(std::uint64_t{i} + 1)};
    reveal.commits.push_back(env);
  }
  auto body = encode_body(MsgType::kReveal, reveal);
  RevealMsg back = decode_as<RevealMsg>(MsgType::kReveal, body);
  ASSERT_EQ(back.commits.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    CommitMsg c = decode_as<CommitMsg>(MsgType::kCommit, back.commits[i].body);
    EXPECT_EQ(c.server, i + 1);
  }
}

TEST(Codec, EmptyInputPeekThrows) {
  EXPECT_THROW((void)peek_type({}), CodecError);
}

TEST(Codec, ReconfigMessagesRoundTrip) {
  ReconfigSpec spec;
  spec.service = 1;
  spec.epoch = 3;
  spec.n = 5;
  spec.f = 1;
  for (std::uint32_t j = 1; j <= 5; ++j) {
    spec.roster.push_back({10 + j, Bigint(std::uint64_t{j} * 111)});
  }

  {
    ReconfigStartMsg start{spec};
    auto body = encode_body(MsgType::kReconfigStart, start);
    EXPECT_EQ(peek_type(body), MsgType::kReconfigStart);
    auto back = decode_as<ReconfigStartMsg>(MsgType::kReconfigStart, body);
    EXPECT_EQ(back.spec, spec);
  }
  {
    ReshareDealMsg deal;
    deal.service = 1;
    deal.epoch = 3;
    deal.dealer = 2;
    deal.enc.coefficients = {Bigint(11), Bigint(22)};
    deal.sign.coefficients = {Bigint(33), Bigint(44)};
    auto body = encode_body(MsgType::kReshareDeal, deal);
    auto back = decode_as<ReshareDealMsg>(MsgType::kReshareDeal, body);
    EXPECT_EQ(back.dealer, 2u);
    EXPECT_EQ(back.enc, deal.enc);
    EXPECT_EQ(back.sign, deal.sign);
  }
  {
    ReshareSubshareMsg sub;
    sub.service = 1;
    sub.epoch = 3;
    sub.dealer = 2;
    sub.target_rank = 4;
    sub.enc_sub = Bigint::from_hex("deadbeef");
    sub.sign_sub = Bigint::from_hex("-cafe");
    auto body = encode_body(MsgType::kReshareSubshare, sub);
    auto back = decode_as<ReshareSubshareMsg>(MsgType::kReshareSubshare, body);
    EXPECT_EQ(back.target_rank, 4u);
    EXPECT_EQ(back.enc_sub, sub.enc_sub);
    EXPECT_EQ(back.sign_sub, sub.sign_sub);
  }
  {
    ReconfigApplyMsg apply;
    apply.spec = spec;
    SignedMessage deal_env;
    deal_env.service = 1;
    deal_env.signer = 2;
    deal_env.body = {1, 2, 3};
    deal_env.sig = {Bigint(5), Bigint(6)};
    apply.deals.push_back(deal_env);
    apply.transfers = {7, 9};
    auto body = encode_body(MsgType::kReconfigApply, apply);
    auto back = decode_as<ReconfigApplyMsg>(MsgType::kReconfigApply, body);
    EXPECT_EQ(back.spec, spec);
    ASSERT_EQ(back.deals.size(), 1u);
    EXPECT_EQ(back.deals[0], deal_env);
    EXPECT_EQ(back.transfers, apply.transfers);
  }
  {
    ReconfigEchoMsg echo;
    echo.service = 1;
    echo.epoch = 3;
    echo.digest.fill(0x5A);
    auto body = encode_body(MsgType::kReconfigEcho, echo);
    auto back = decode_as<ReconfigEchoMsg>(MsgType::kReconfigEcho, body);
    EXPECT_EQ(back.epoch, 3u);
    EXPECT_EQ(back.digest, echo.digest);
  }
  {
    WrongEpochMsg we;
    we.service = 0;
    we.epoch = 9;
    auto body = encode_body(MsgType::kWrongEpoch, we);
    auto back = decode_as<WrongEpochMsg>(MsgType::kWrongEpoch, body);
    EXPECT_EQ(back.epoch, 9u);
  }
  {
    ReconfigPullMsg pull;
    pull.epoch = 2;
    auto body = encode_body(MsgType::kReconfigPull, pull);
    auto back = decode_as<ReconfigPullMsg>(MsgType::kReconfigPull, body);
    EXPECT_EQ(back.epoch, 2u);
  }
  {
    ReconfigStateMsg state;
    state.apply.service = 1;
    state.apply.signer = 0;
    state.apply.body = {4, 5};
    state.apply.sig = {Bigint(1), Bigint(2)};
    for (std::uint32_t i = 0; i < 3; ++i) {
      SignedMessage e;
      e.service = 1;
      e.signer = i;
      e.body = {static_cast<std::uint8_t>(i)};
      e.sig = {Bigint(std::uint64_t{i}), Bigint(std::uint64_t{i} + 1)};
      state.echoes.push_back(e);
    }
    auto body = encode_body(MsgType::kReconfigState, state);
    auto back = decode_as<ReconfigStateMsg>(MsgType::kReconfigState, body);
    EXPECT_EQ(back.apply, state.apply);
    EXPECT_EQ(back.echoes, state.echoes);
  }
  {
    SubsharePullMsg pull;
    pull.service = 1;
    pull.epoch = 3;
    pull.my_new_rank = 5;
    auto body = encode_body(MsgType::kSubsharePull, pull);
    auto back = decode_as<SubsharePullMsg>(MsgType::kSubsharePull, body);
    EXPECT_EQ(back.my_new_rank, 5u);
  }
}

// ---- the wire table: one pinned encoding per wire type -----------------------

// The body struct of every MsgType. The switch has no default, so -Wswitch
// names an enumerator added without a case here.
const char* body_struct(MsgType type) {
  switch (type) {
    case MsgType::kInit: return "InitMsg";
    case MsgType::kCommit: return "CommitMsg";
    case MsgType::kReveal: return "RevealMsg";
    case MsgType::kContribute: return "ContributeMsg";
    case MsgType::kBlind: return "BlindPayload";
    case MsgType::kDone: return "DonePayload";
    case MsgType::kSignRequest: return "SignRequestMsg";
    case MsgType::kSignCommitReply: return "SignCommitReplyMsg";
    case MsgType::kSignQuorum: return "SignQuorumMsg";
    case MsgType::kSignRevealReply: return "SignRevealReplyMsg";
    case MsgType::kSignRevealSet: return "SignRevealSetMsg";
    case MsgType::kSignPartialReply: return "SignPartialReplyMsg";
    case MsgType::kDecryptRequest: return "DecryptRequestMsg";
    case MsgType::kDecryptShareReply: return "DecryptShareReplyMsg";
    case MsgType::kTransferRequest: return "TransferRequestMsg";
    case MsgType::kResultRequest: return "ResultRequestMsg";
    case MsgType::kResultReply: return "ResultReplyMsg";
    case MsgType::kClientDecryptRequest: return "ClientDecryptRequestMsg";
    case MsgType::kClientDecryptReply: return "ClientDecryptReplyMsg";
    case MsgType::kReconfigStart: return "ReconfigStartMsg";
    case MsgType::kReshareDeal: return "ReshareDealMsg";
    case MsgType::kReshareSubshare: return "ReshareSubshareMsg";
    case MsgType::kReconfigApply: return "ReconfigApplyMsg";
    case MsgType::kReconfigEcho: return "ReconfigEchoMsg";
    case MsgType::kWrongEpoch: return "WrongEpochMsg";
    case MsgType::kReconfigPull: return "ReconfigPullMsg";
    case MsgType::kReconfigState: return "ReconfigStateMsg";
    case MsgType::kSubsharePull: return "SubsharePullMsg";
  }
  return nullptr;
}

TEST(WireTable, EveryMsgTypeHasItsBodyRow) {
  const std::vector<testing::WireRow> table = testing::wire_table();
  int types = 0;
  for (int v = 0; v < 256; ++v) {
    const auto type = static_cast<MsgType>(v);
    const char* name = body_struct(type);
    if (name == nullptr) continue;
    ++types;
    int rows = 0;
    for (const testing::WireRow& row : table) {
      if (row.type != type) continue;
      ++rows;
      EXPECT_EQ(row.name, name) << "tag " << v;
    }
    EXPECT_EQ(rows, 1) << "tag " << v << " (" << name << ")";
  }
  EXPECT_EQ(types, 28);
}

TEST(WireTable, EveryRowEncodesToItsPinnedBytes) {
  for (const testing::WireRow& row : testing::wire_table()) {
    const std::string actual = hash::to_hex(row.bytes);
    EXPECT_EQ(actual, row.hex) << row.name << " encodes to " << actual;
  }
}

TEST(WireTable, EveryRowRoundTrips) {
  for (const testing::WireRow& row : testing::wire_table()) {
    EXPECT_EQ(row.reparse(row.bytes), row.bytes) << row.name;
  }
}

TEST(WireTable, EveryStrictPrefixIsRejected) {
  for (const testing::WireRow& row : testing::wire_table()) {
    const std::span<const std::uint8_t> bytes(row.bytes);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_THROW((void)row.reparse(bytes.first(len)), CodecError)
          << row.name << " prefix " << len << "/" << bytes.size();
    }
  }
}

// Durable state: a server's snapshot after a fixed-seed run on explicit
// Toy64 parameters (so DBLIND_BACKEND does not move it). Every link has the
// same delay: a random one is drawn per send, so one send more or less would
// move the rest of the schedule, and with it which contributions the dones
// combine, although no byte format changed.
TEST(WireTable, SnapshotBytesPinned) {
  SystemOptions o;
  o.params = group::GroupParams::named(group::ParamId::kToy64);
  o.seed = 20;
  o.delay_min = 5'000;
  o.delay_max = 5'000;
  System sys(std::move(o));
  for (std::uint64_t m = 100; m < 103; ++m)
    sys.add_transfer(sys.config().params.encode_message(Bigint(m)));
  ASSERT_TRUE(sys.run_to_completion());
  const auto sha = [](const std::vector<std::uint8_t>& snap) {
    const hash::Digest d = hash::Sha256::digest(snap);
    return hash::to_hex(d);
  };
  const std::string a = sha(sys.a_server(1).snapshot());
  const std::string b = sha(sys.b_server(1).snapshot());
  ASSERT_GT(sys.a_server(1).snapshot().size(), 100u);
  ASSERT_GT(sys.b_server(1).snapshot().size(), 100u);
  EXPECT_EQ(a, "87a2eefb63205ca54f36faa0822d74208645506bf42c910a5584f4628a84c850");
  EXPECT_EQ(b, "788c12e65d1fa94e19d5121bd3b13438d4889a0de3a721b01362290f9a0bd832");
}

// ---- allocation bound: a vector count cannot amplify one frame --------------
//
// Each body below ends in a vector count followed by zero bytes. A reader
// that reserves `count` elements before checking the count against the
// element's smallest encoding turns every input byte into sizeof(element)
// reserved bytes (208 for a DecryptionShare, 128 for a SignedMessage, 56 for
// an Element). With the bound, the worst case is 56 / 6 ≈ 9.3.

// The largest single allocation `parse` makes.
std::size_t largest_alloc(const std::function<void()>& parse) {
  g_largest_alloc.store(0);
  g_count_allocs.store(true);
  try {
    parse();
  } catch (const CodecError&) {
  }
  g_count_allocs.store(false);
  return g_largest_alloc.load();
}

// `head`, then `count`, then `fill` zero bytes.
std::vector<std::uint8_t> counted_body(std::vector<std::uint8_t> head, std::uint32_t count,
                                       std::size_t fill) {
  Writer w;
  w.u32(count);
  const std::vector<std::uint8_t> tail = w.take();
  head.insert(head.end(), tail.begin(), tail.end());
  head.resize(head.size() + fill, 0);
  return head;
}

TEST(CodecAllocation, VectorCountsCannotAmplifyAFrame) {
  constexpr std::size_t kFill = 4096;
  const ServiceSignedMsg blind{1, {0xfa, 0xce}, {Bigint(7), Bigint(8)}};
  std::vector<std::uint8_t> done_head = group::to_bytes(blind);
  {
    Writer w;
    w.bigint(Bigint(9));  // m_rho
    const std::vector<std::uint8_t> m_rho = w.take();
    done_head.insert(done_head.end(), m_rho.begin(), m_rho.end());
  }
  Writer reveal_head;  // tag, InstanceId
  reveal_head.u8(static_cast<std::uint8_t>(MsgType::kReveal));
  reveal_head.u64(1);
  reveal_head.u32(1);
  reveal_head.u32(0);
  Writer deal_head;  // tag, service, epoch, dealer
  deal_head.u8(static_cast<std::uint8_t>(MsgType::kReshareDeal));
  deal_head.u8(1);
  deal_head.u32(1);
  deal_head.u32(1);

  struct Case {
    std::string name;
    std::vector<std::uint8_t> head;
    std::size_t min_elem;  // the element's smallest encoding
    std::function<void(std::span<const std::uint8_t>)> parse;
  };
  const std::vector<Case> cases = {
      {"DoneEvidence::shares", done_head, 28,
       [](std::span<const std::uint8_t> b) { (void)group::from_bytes<DoneEvidence>(b); }},
      {"RevealMsg::commits", reveal_head.take(), 25,
       [](std::span<const std::uint8_t> b) {
         (void)decode_as<RevealMsg>(MsgType::kReveal, b);
       }},
      {"ReshareDealMsg::enc", deal_head.take(), 6,
       [](std::span<const std::uint8_t> b) {
         (void)decode_as<ReshareDealMsg>(MsgType::kReshareDeal, b);
       }},
  };
  for (const Case& c : cases) {
    // A count of one element per remaining byte, and the largest count the
    // bound accepts.
    for (std::size_t count : {kFill, kFill / c.min_elem}) {
      const std::vector<std::uint8_t> body =
          counted_body(c.head, static_cast<std::uint32_t>(count), kFill);
      const std::size_t largest = largest_alloc([&] { c.parse(body); });
      EXPECT_LE(largest, 16 * body.size())
          << c.name << " count " << count << ": one allocation of " << largest << " bytes ("
          << static_cast<double>(largest) / static_cast<double>(body.size())
          << "x) from a " << body.size() << "-byte body";
    }
  }
}

// ---- codec boundary: a parse with the group rejects non-elements ------------
//
// Every element field kind — ciphertext component, VDE g12/g21, proof t1/t2,
// signature r, decryption share d, Feldman coefficient, nonce reveal t — is
// set to a value outside the group: on ec255 a non-canonical encoding (g with
// s negated) and an encoding >= p, on mod-p zero and a non-residue. The
// group-aware parse throws CodecError; the group-less parse of the same bytes
// still succeeds, with bare elements, and verification rejects the result.

std::vector<Bigint> bad_elements(const group::GroupParams& gp) {
  if (gp.backend_kind() == group::backend::Kind::kEc255) {
    const Bigint& g = gp.g();
    return {g.is_odd() ? g - Bigint(1) : g + Bigint(1), Bigint(1).shl(255) - Bigint(1)};
  }
  return {Bigint(0), gp.p() - Bigint(1)};  // p = 3 mod 4: -1 is a non-residue
}

class CodecBoundary : public ::testing::TestWithParam<group::ParamId> {
 protected:
  testing::TestSystem ts = testing::TestSystem::make(31, {4, 1}, {4, 1}, GetParam());
  const group::GroupParams& gp = ts.params;
  mpz::Prng prng{32};

  // `honest` must verify after a group-aware parse; every bad value placed
  // by `poison` must fail that parse and, parsed without the group, verify.
  template <typename T>
  void expect_rejected(MsgType type, const T& honest,
                       const std::function<void(T&, const Bigint&)>& poison,
                       const std::function<bool(const T&)>& verify, const std::string& what) {
    ASSERT_TRUE(verify(decode_as<T>(type, encode_body(type, honest), gp))) << what;
    for (const Bigint& bad : bad_elements(gp)) {
      T msg = honest;
      poison(msg, bad);
      const std::vector<std::uint8_t> body = encode_body(type, msg);
      EXPECT_THROW((void)decode_as<T>(type, body, gp), CodecError) << what << " " << bad.to_hex();
      const T bare = decode_as<T>(type, body);
      EXPECT_FALSE(verify(bare)) << what << " " << bad.to_hex();
    }
  }
};

TEST_P(CodecBoundary, ContributionElementsRejectedAtParse) {
  const elgamal::PublicKey& ka = ts.cfg.a.encryption_key;
  const elgamal::PublicKey& kb = ts.cfg.b.encryption_key;
  const InstanceId id{1, 1, 0};
  const group::Element rho = gp.random_element(prng);
  const Bigint r1 = gp.random_exponent(prng);
  const Bigint r2 = gp.random_exponent(prng);
  ContributeMsg honest;
  honest.id = id;
  honest.server = 2;
  honest.reveal =
      make_envelope(ts.b_secrets[0], encode_body(MsgType::kReveal, RevealMsg{id, {}}), 0, prng);
  honest.contribution = {ka.encrypt_with_nonce(rho, r1), kb.encrypt_with_nonce(rho, r2)};
  honest.vde = zkp::vde_prove(ka, honest.contribution.ea, r1, kb, honest.contribution.eb, r2,
                              vde_context(id, 2), prng);
  const auto verify = [&](const ContributeMsg& m) {
    return zkp::vde_verify(ka, m.contribution.ea, kb, m.contribution.eb, m.vde,
                           vde_context(m.id, m.server));
  };
  using Poison = std::function<void(ContributeMsg&, const Bigint&)>;
  const std::vector<std::pair<std::string, Poison>> fields = {
      {"ciphertext a", [](ContributeMsg& m, const Bigint& v) { m.contribution.ea.a = v; }},
      {"ciphertext b", [](ContributeMsg& m, const Bigint& v) { m.contribution.eb.b = v; }},
      {"vde g12", [](ContributeMsg& m, const Bigint& v) { m.vde.g12 = v; }},
      {"vde g21", [](ContributeMsg& m, const Bigint& v) { m.vde.g21 = v; }},
      {"proof t1", [](ContributeMsg& m, const Bigint& v) { m.vde.pr1.t1 = v; }},
      {"proof t2", [](ContributeMsg& m, const Bigint& v) { m.vde.pr3.t2 = v; }},
  };
  for (const auto& [what, poison] : fields)
    expect_rejected<ContributeMsg>(MsgType::kContribute, honest, poison, verify, what);
}

TEST_P(CodecBoundary, SignatureCommitmentRejectedAtParse) {
  const SignedMessage honest = make_envelope(
      ts.b_secrets[0], encode_body(MsgType::kInit, InitMsg{InstanceId{1, 1, 0}}), 0, prng);
  ASSERT_TRUE(envelope_signature_ok(ts.cfg, honest));
  for (const Bigint& bad : bad_elements(gp)) {
    SignedMessage env = honest;
    env.sig.r = bad;
    Writer w;
    env.encode(w);
    const std::vector<std::uint8_t> bytes = w.take();
    Reader with_group(bytes, &gp);
    EXPECT_THROW((void)SignedMessage::decode(with_group), CodecError) << bad.to_hex();
    Reader groupless(bytes);
    const SignedMessage back = SignedMessage::decode(groupless);
    EXPECT_FALSE(back.sig.r.is_decoded());
    EXPECT_FALSE(envelope_signature_ok(ts.cfg, back)) << bad.to_hex();
  }
}

TEST_P(CodecBoundary, DecryptionShareRejectedAtParse) {
  const elgamal::Ciphertext c = ts.cfg.a.encryption_key.encrypt(gp.random_element(prng), prng);
  const std::string context = "codec-boundary/decrypt";
  DecryptShareReplyMsg honest{InstanceId{1, 1, 0},
                              threshold::make_decryption_share(
                                  gp, c, ts.a_secrets[0].enc_share, context, prng)};
  const auto verify = [&](const DecryptShareReplyMsg& m) {
    return threshold::verify_decryption_share(gp, ts.cfg.a.enc_commitments, c, m.share, context);
  };
  expect_rejected<DecryptShareReplyMsg>(
      MsgType::kDecryptShareReply, honest,
      [](DecryptShareReplyMsg& m, const Bigint& v) { m.share.d = v; }, verify, "share d");
  expect_rejected<DecryptShareReplyMsg>(
      MsgType::kDecryptShareReply, honest,
      [](DecryptShareReplyMsg& m, const Bigint& v) { m.share.proof.t1 = v; }, verify,
      "share proof t1");
}

TEST_P(CodecBoundary, FeldmanCoefficientRejectedAtParse) {
  const threshold::ReshareDeal enc =
      threshold::reshare_deal(gp, ts.b_secrets[1].enc_share, 4, 1, prng);
  const threshold::ReshareDeal sign =
      threshold::reshare_deal(gp, ts.b_secrets[1].sign_share, 4, 1, prng);
  ReshareDealMsg honest{static_cast<std::uint8_t>(ServiceRole::kServiceB), 1, 2,
                        enc.commitments, sign.commitments};
  const auto verify = [&](const ReshareDealMsg& m) {
    return threshold::reshare_verify_commitments(gp, ts.cfg.b.enc_commitments,
                                                 {m.dealer, m.enc, {}}, 1);
  };
  for (std::size_t k : {0u, 1u}) {
    expect_rejected<ReshareDealMsg>(
        MsgType::kReshareDeal, honest,
        [k](ReshareDealMsg& m, const Bigint& v) { m.enc.coefficients[k] = v; }, verify,
        "feldman coefficient " + std::to_string(k));
  }
}

TEST_P(CodecBoundary, NonceRevealRejectedAtParse) {
  const std::vector<std::uint8_t> payload(40, 0x42);
  const group::Element& y = ts.cfg.a.signing_key.point();
  std::vector<threshold::SigningMember> members;
  std::vector<threshold::NonceCommitment> commits;
  std::vector<threshold::NonceReveal> reveals;
  for (std::size_t i = 0; i < 2; ++i) {
    members.emplace_back(gp, ts.a_secrets[i].sign_share, prng);
    commits.push_back(members.back().commitment());
    reveals.push_back(members.back().reveal());
  }
  const std::optional<threshold::PartialSignature> partial =
      members.front().respond(commits, reveals, y, payload);
  ASSERT_TRUE(partial.has_value());
  const Bigint e = zkp::schnorr_challenge(gp, threshold::combine_nonce(gp, reveals), y, payload);
  SignRevealReplyMsg honest{7, reveals.front()};
  expect_rejected<SignRevealReplyMsg>(
      MsgType::kSignRevealReply, honest,
      [](SignRevealReplyMsg& m, const Bigint& v) { m.reveal.t = v; },
      [&](const SignRevealReplyMsg& m) {
        return threshold::verify_partial_signature(gp, ts.cfg.a.sign_commitments, m.reveal,
                                                   *partial, e);
      },
      "nonce reveal t");
}

// A server handed a message whose first element is not a group element pays
// nothing for it: the parse throws before any group operation, as with an
// init from a coordinator rank above f+1.
TEST_P(CodecBoundary, ServerPaysNoGroupOpsForRejectedElements) {
  ProtocolServer server(ts.cfg, ts.b_secrets[1], ProtocolOptions{});
  testing::NullContext ctx(3);
  server.on_start(ctx);
  server.register_transfer(1);
  const int sent0 = ctx.sent;
  for (const Bigint& bad : bad_elements(gp)) {
    std::vector<std::vector<std::uint8_t>> frames;
    {  // server-signed envelope: signature r
      SignedMessage env = make_envelope(
          ts.b_secrets[0], encode_body(MsgType::kInit, InitMsg{InstanceId{1, 1, 0}}), 0, prng);
      env.sig.r = bad;
      Writer w;
      w.u8(static_cast<std::uint8_t>(WireKind::kServerSigned));
      env.encode(w);
      frames.push_back(w.take());
    }
    {  // service-signed blind: signature r
      ServiceSignedMsg blind{static_cast<std::uint8_t>(ServiceRole::kServiceB),
                             encode_body(MsgType::kBlind, BlindPayload{}), {bad, Bigint(1)}};
      frames.push_back(frame_service(blind));
    }
    {  // client transfer request: ciphertext component
      TransferRequestMsg req{2, {bad, gp.g()}};
      Writer w;
      w.u8(static_cast<std::uint8_t>(WireKind::kClient));
      w.bytes(encode_body(MsgType::kTransferRequest, req));
      frames.push_back(w.take());
    }
    for (const std::vector<std::uint8_t>& frame : frames) {
      const std::uint64_t ops = gp.group_op_count();
      server.on_message(ctx, ts.cfg.b.node_of(1), frame);
      EXPECT_EQ(gp.group_op_count(), ops) << bad.to_hex();
    }
  }
  EXPECT_EQ(ctx.sent, sent0);
  EXPECT_EQ(server.contributor_instances(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, CodecBoundary,
                         ::testing::Values(group::ParamId::kToy64, group::ParamId::kEc255),
                         [](const auto& info) {
                           return info.param == group::ParamId::kEc255 ? "ec255" : "modp";
                         });

}  // namespace
}  // namespace dblind::core

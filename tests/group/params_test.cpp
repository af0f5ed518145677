#include "group/params.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mpz/modmath.hpp"
#include "mpz/prime.hpp"

namespace dblind::group {
namespace {

using mpz::Bigint;

class NamedParamsTest : public ::testing::TestWithParam<ParamId> {};

TEST_P(NamedParamsTest, StructureHolds) {
  GroupParams gp = GroupParams::named(GetParam());
  EXPECT_EQ(gp.p(), gp.q().shl(1) + Bigint(1));  // p = 2q + 1
  EXPECT_EQ(gp.g(), Bigint(4));
  // g generates the order-q subgroup: g^q == 1 and g != 1.
  EXPECT_EQ(mpz::powmod(gp.g(), gp.q(), gp.p()), Bigint(1));
  EXPECT_TRUE(gp.in_group(gp.g()));
}

TEST_P(NamedParamsTest, PrimalityHolds) {
  GroupParams gp = GroupParams::named(GetParam());
  mpz::Prng prng(99);
  // Modest round count to keep the 2048-bit case quick; the sets were
  // generated with 40 rounds offline.
  EXPECT_TRUE(mpz::is_probable_prime(gp.p(), prng, 4));
  EXPECT_TRUE(mpz::is_probable_prime(gp.q(), prng, 4));
}

INSTANTIATE_TEST_SUITE_P(AllSizes, NamedParamsTest,
                         ::testing::Values(ParamId::kToy64, ParamId::kTest128, ParamId::kTest256,
                                           ParamId::kSec512, ParamId::kSec1024, ParamId::kSec2048),
                         [](const auto& info) {
                           switch (info.param) {
                             case ParamId::kToy64: return "Toy64";
                             case ParamId::kTest128: return "Test128";
                             case ParamId::kTest256: return "Test256";
                             case ParamId::kSec512: return "Sec512";
                             case ParamId::kSec1024: return "Sec1024";
                             case ParamId::kSec2048: return "Sec2048";
                             case ParamId::kEc255: return "Ec255";
                           }
                           return "Unknown";
                         });

GroupParams toy() { return GroupParams::named(ParamId::kToy64); }

TEST(GroupParams, BitsReported) {
  EXPECT_EQ(toy().bits(), 64u);
  EXPECT_EQ(GroupParams::named(ParamId::kTest256).bits(), 256u);
}

TEST(GroupParams, MembershipChecks) {
  GroupParams gp = toy();
  EXPECT_TRUE(gp.in_group(Bigint(4)));   // g
  EXPECT_TRUE(gp.in_group(Bigint(1)));   // identity is a QR
  EXPECT_FALSE(gp.in_group(Bigint(0)));
  EXPECT_FALSE(gp.in_group(gp.p()));
  EXPECT_FALSE(gp.in_group(Bigint(-4)));
  // Generator of the full group Z_p^* is not in the QR subgroup: p-1 = -1
  // is a non-residue for p ≡ 3 (mod 4).
  EXPECT_FALSE(gp.in_group(gp.p() - Bigint(1)));
}

TEST(GroupParams, ExponentRange) {
  GroupParams gp = toy();
  EXPECT_TRUE(gp.is_exponent(Bigint(0)));
  EXPECT_TRUE(gp.is_exponent(gp.q() - Bigint(1)));
  EXPECT_FALSE(gp.is_exponent(gp.q()));
  EXPECT_FALSE(gp.is_exponent(Bigint(-1)));
}

TEST(GroupParams, PowAndMulConsistent) {
  GroupParams gp = toy();
  mpz::Prng prng(5);
  Bigint x = gp.random_exponent(prng);
  Bigint y = gp.random_exponent(prng);
  // g^x * g^y == g^(x+y)
  EXPECT_EQ(gp.mul(gp.pow_g(x), gp.pow_g(y)), gp.pow_g(mpz::addmod(x, y, gp.q())));
  // (g^x)^y == (g^y)^x
  EXPECT_EQ(gp.pow(gp.pow_g(x), y), gp.pow(gp.pow_g(y), x));
}

TEST(GroupParams, InverseIsInverse) {
  GroupParams gp = toy();
  mpz::Prng prng(6);
  for (int i = 0; i < 10; ++i) {
    Bigint e = gp.random_element(prng);
    EXPECT_EQ(gp.mul(e, gp.inv(e)), Bigint(1));
  }
}

TEST(GroupParams, RandomElementInGroup) {
  GroupParams gp = toy();
  mpz::Prng prng(7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(gp.in_group(gp.random_element(prng)));
    Bigint e = gp.random_exponent(prng);
    EXPECT_TRUE(!e.is_zero() && e < gp.q());
  }
}

TEST(GroupParams, MessageEncodingRoundTrip) {
  GroupParams gp = toy();
  for (std::uint64_t v : {1ull, 2ull, 42ull, 1000000007ull}) {
    Bigint enc = gp.encode_message(Bigint(v));
    EXPECT_TRUE(gp.in_group(enc)) << v;
    EXPECT_EQ(gp.decode_message(enc), Bigint(v)) << v;
  }
  // Top of range: v == q.
  Bigint enc = gp.encode_message(gp.q());
  EXPECT_EQ(gp.decode_message(enc), gp.q());
}

TEST(GroupParams, MessageEncodingRejectsOutOfRange) {
  GroupParams gp = toy();
  EXPECT_THROW((void)gp.encode_message(Bigint(0)), std::invalid_argument);
  EXPECT_THROW((void)gp.encode_message(gp.q() + Bigint(1)), std::invalid_argument);
  EXPECT_THROW((void)gp.encode_message(Bigint(-3)), std::invalid_argument);
  EXPECT_THROW((void)gp.decode_message(Bigint(0)), std::invalid_argument);
}

TEST(GroupParams, ByteEncodingRoundTrip) {
  GroupParams gp = GroupParams::named(ParamId::kTest256);
  std::vector<std::uint8_t> payloads[] = {
      {}, {0x00}, {0x41}, {0x00, 0x00, 0x7f}, {0xde, 0xad, 0xbe, 0xef}, std::vector<std::uint8_t>(28, 0xab)};
  for (const auto& payload : payloads) {
    Bigint enc = gp.encode_bytes(payload);
    EXPECT_TRUE(gp.in_group(enc));
    EXPECT_EQ(gp.decode_bytes(enc), payload);
  }
}

TEST(GroupParams, ByteEncodingRejectsOversized) {
  GroupParams gp = toy();
  std::vector<std::uint8_t> big(9, 0xff);
  EXPECT_THROW((void)gp.encode_bytes(big), std::invalid_argument);
}

TEST(GroupParams, ElementBytesFixedWidth) {
  GroupParams gp = GroupParams::named(ParamId::kTest128);
  EXPECT_EQ(gp.element_size(), 16u);
  EXPECT_EQ(gp.element_bytes(Bigint(1)).size(), 16u);
  EXPECT_EQ(gp.element_bytes(gp.p() - Bigint(1)).size(), 16u);
}

TEST(GroupParams, GenerateFreshGroup) {
  mpz::Prng prng(8);
  GroupParams gp = GroupParams::generate(32, prng);
  EXPECT_EQ(gp.bits(), 32u);
  EXPECT_EQ(gp.p(), gp.q().shl(1) + Bigint(1));
  EXPECT_TRUE(gp.in_group(gp.g()));
}

TEST(GroupParams, FromValuesValidates) {
  mpz::Prng prng(9);
  GroupParams gp = toy();
  // Valid round trip.
  GroupParams again = GroupParams::from_values(gp.p(), gp.q(), gp.g(), prng);
  EXPECT_TRUE(again == gp);
  // p != 2q+1
  EXPECT_THROW((void)GroupParams::from_values(gp.p(), gp.q() + Bigint(1), gp.g(), prng),
               std::invalid_argument);
  // Composite p.
  EXPECT_THROW((void)GroupParams::from_values(gp.q().shl(1) + Bigint(3), gp.q() + Bigint(1),
                                              Bigint(4), prng),
               std::invalid_argument);
  // Bad generator: order-2 element p-1.
  EXPECT_THROW((void)GroupParams::from_values(gp.p(), gp.q(), gp.p() - Bigint(1), prng),
               std::invalid_argument);
  EXPECT_THROW((void)GroupParams::from_values(gp.p(), gp.q(), Bigint(1), prng),
               std::invalid_argument);
}

// The table cache behind pin_base/pow_fixed/pow_g is shared across all
// copies of a GroupParams and across threads (its mutex is a dblind::Mutex in
// the annotated-capability rollout, PR 6). Hammer g's first-use table build,
// pinning, and lookups from many threads at once; every result must still
// equal the plain pow() answer. Run under the tsan preset this is the
// data-race proof for the cache.
TEST(GroupParams, ConcurrentCachedPowAndPinning) {
  GroupParams gp = toy();
  mpz::Prng prng(2026);
  constexpr int kBases = 4;
  constexpr int kThreads = 8;
  constexpr int kIters = 40;
  std::vector<Bigint> bases;
  std::vector<Bigint> exps;
  bases.reserve(kBases);
  exps.reserve(kThreads * kIters);
  for (int i = 0; i < kBases; ++i) bases.push_back(gp.random_element(prng));
  for (int i = 0; i < kThreads * kIters; ++i) exps.push_back(gp.random_exponent(prng));

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Copies share the cache: each thread works through its own copy, so
      // first-use table builds race for real.
      GroupParams local = gp;
      for (int i = 0; i < kIters; ++i) {
        const Bigint& b = bases[static_cast<std::size_t>((t + i) % kBases)];
        const Bigint& e = exps[static_cast<std::size_t>(t * kIters + i)];
        if (i % 7 == 0) local.pin_base(b);  // pinning races lookups
        Bigint want = local.pow(b, e);
        if (local.pow_fixed(b, e) != want) mismatches.fetch_add(1);
        if (local.pow_g(e) != local.pow(local.g(), e)) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace dblind::group

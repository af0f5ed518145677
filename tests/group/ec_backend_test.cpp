// GroupParams on the ristretto255 backend: the full facade contract that
// every protocol layer relies on — algebra, message embedding, fixed-base
// caches and their epoch invalidation, element serialization, op accounting —
// plus cross-backend differential checks against the mod-p oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "group/params.hpp"
#include "group/serialize.hpp"
#include "hash/sha256.hpp"
#include "mpz/fe25519.hpp"
#include "mpz/modmath.hpp"
#include "mpz/random.hpp"

namespace dblind::group {
namespace {

using mpz::Bigint;

GroupParams ec() { return GroupParams::named(ParamId::kEc255); }

TEST(EcBackend, BasicShape) {
  GroupParams gp = ec();
  EXPECT_EQ(gp.backend_kind(), backend::Kind::kEc255);
  EXPECT_EQ(gp.backend_name(), "ec255");
  EXPECT_EQ(gp.element_size(), 32u);
  EXPECT_EQ(gp.bits(), 255u);
  // ell = 2^252 + 27742317777372353535851937790883648493.
  EXPECT_EQ(gp.q(), Bigint::from_hex(
                        "1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ed"));
  EXPECT_EQ(gp.p(), Bigint(1).shl(255) - Bigint(19));
  EXPECT_TRUE(gp.is_identity(gp.identity()));
  EXPECT_EQ(gp.identity(), Bigint(0));  // 32 zero bytes boxed
  EXPECT_TRUE(gp.in_group(gp.g()));
  EXPECT_FALSE(gp.is_identity(gp.g()));
}

// g and the identity are built from their known encodings (RFC 9496 §A.1's
// generator string and 32 zero bytes), so naming the group computes no
// encode. Each encoding is its point's: computing either element gives it.
TEST(EcBackend, NamingTheGroupCostsNoFieldMul) {
  const std::uint64_t fe0 = mpz::fe_mul_count();
  GroupParams gp = ec();
  EXPECT_EQ(mpz::fe_mul_count() - fe0, 0u);
  EXPECT_EQ(hash::to_hex(gp.element_bytes(gp.g())),
            "e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76");
  EXPECT_EQ(gp.element_bytes(gp.identity()), std::vector<std::uint8_t>(32, 0));
  EXPECT_EQ(gp.pow_g(Bigint(1)), gp.g());
  EXPECT_EQ(gp.pow_g(gp.q()), gp.identity());
  EXPECT_EQ(gp.mul(gp.g(), gp.identity()), gp.g());
}

TEST(EcBackend, GroupLawsThroughTheFacade) {
  GroupParams gp = ec();
  mpz::Prng prng(5);
  Bigint e1 = gp.random_exponent(prng);
  Bigint e2 = gp.random_exponent(prng);
  Bigint x = gp.pow_g(e1);
  Bigint y = gp.pow_g(e2);
  EXPECT_TRUE(gp.in_group(x));
  // Homomorphism: g^e1 * g^e2 == g^(e1+e2).
  EXPECT_EQ(gp.mul(x, y), gp.pow_g(mpz::addmod(e1, e2, gp.q())));
  // pow vs pow_g, inverse, identity.
  EXPECT_EQ(gp.pow(gp.g(), e1), x);
  EXPECT_EQ(gp.mul(x, gp.inv(x)), gp.identity());
  EXPECT_EQ(gp.mul(x, gp.identity()), x);
  EXPECT_EQ(gp.pow(x, Bigint(0)), gp.identity());
  // (g^e1)^e2 == (g^e2)^e1.
  EXPECT_EQ(gp.pow(x, e2), gp.pow(y, e1));
  // pow2 and multi_pow against explicit products.
  Bigint a = gp.random_element(prng);
  Bigint b = gp.random_element(prng);
  EXPECT_EQ(gp.pow2(a, e1, b, e2), gp.mul(gp.pow(a, e1), gp.pow(b, e2)));
  std::vector<Bigint> bases{a, b, x};
  std::vector<Bigint> exps{e1, e2, e2};
  EXPECT_EQ(gp.multi_pow(bases, exps),
            gp.mul(gp.mul(gp.pow(a, e1), gp.pow(b, e2)), gp.pow(x, e2)));
}

TEST(EcBackend, FixedBaseCachesMatchPlainPow) {
  GroupParams gp = ec();
  mpz::Prng prng(6);
  Bigint base = gp.random_element(prng);
  Bigint e = gp.random_exponent(prng);
  Bigint ref = gp.pow(base, e);
  // pow_fixed without a pin must not insert anything.
  std::size_t pinned_before = gp.pinned_table_count();
  EXPECT_EQ(gp.pow_fixed(base, e), ref);
  EXPECT_EQ(gp.pinned_table_count(), pinned_before);
  gp.pin_base(base);
  EXPECT_EQ(gp.pinned_table_count(), pinned_before + 1);
  EXPECT_EQ(gp.pow_fixed(base, e), ref);
  // Pinning g is a no-op (pow_g already combs it).
  gp.pin_base(gp.g());
  EXPECT_EQ(gp.pinned_table_count(), pinned_before + 1);
}

TEST(EcBackend, MessageEmbeddingRoundTrips) {
  GroupParams gp = ec();
  // 2^232 - 1: the 29-byte payload ceiling.
  EXPECT_EQ(gp.max_message_value(), Bigint(1).shl(232) - Bigint(1));
  std::vector<Bigint> values{Bigint(1), Bigint(2), Bigint(424242),
                             gp.max_message_value(),
                             gp.max_message_value() - Bigint(123456789)};
  for (const Bigint& v : values) {
    Bigint elem = gp.encode_message(v);
    EXPECT_TRUE(gp.in_group(elem));
    EXPECT_EQ(gp.decode_message(elem), v);
  }
  EXPECT_THROW((void)gp.encode_message(Bigint(0)), std::invalid_argument);
  EXPECT_THROW((void)gp.encode_message(gp.max_message_value() + Bigint(1)),
               std::invalid_argument);
  // Deterministic: same value, same element.
  EXPECT_EQ(gp.encode_message(Bigint(77)), gp.encode_message(Bigint(77)));
}

TEST(EcBackend, ByteEncodingRoundTrips) {
  GroupParams gp = ec();
  std::vector<std::uint8_t> payload{0x00, 0x01, 0xff, 0x42, 0x00};
  Bigint elem = gp.encode_bytes(payload);
  EXPECT_EQ(gp.decode_bytes(elem), payload);
  // 28 payload bytes + sentinel = 29 bytes fits; 29 + sentinel does not.
  std::vector<std::uint8_t> max_fit(28, 0xab);
  EXPECT_EQ(gp.decode_bytes(gp.encode_bytes(max_fit)), max_fit);
  std::vector<std::uint8_t> too_big(29, 0xab);
  EXPECT_THROW((void)gp.encode_bytes(too_big), std::invalid_argument);
}

TEST(EcBackend, ElementBytesAreCanonical32ByteEncodings) {
  GroupParams gp = ec();
  mpz::Prng prng(8);
  for (int i = 0; i < 4; ++i) {
    Bigint x = gp.random_element(prng);
    std::vector<std::uint8_t> bytes = gp.element_bytes(x);
    ASSERT_EQ(bytes.size(), 32u);
    // The boxed Bigint IS the little-endian encoding read as an integer.
    std::vector<std::uint8_t> be(bytes.rbegin(), bytes.rend());
    EXPECT_EQ(Bigint::from_bytes_be(be), x);
  }
  EXPECT_EQ(gp.element_bytes(gp.identity()), std::vector<std::uint8_t>(32, 0));
}

TEST(EcBackend, OpCounterAdvancesAndWeightIsEcScale) {
  GroupParams gp = ec();
  std::uint64_t before = gp.group_op_count();
  (void)gp.pow_g(Bigint(123456));
  EXPECT_GT(gp.group_op_count(), before);
  EXPECT_EQ(gp.op_cost_weight(), 25u);  // word-muls per field mul
  // The mod-p oracle weighs ops as 2k^2 word muls.
  GroupParams modp = GroupParams::named(ParamId::kToy64);
  EXPECT_EQ(modp.op_cost_weight(), 2u);  // k = 1 limb
}

TEST(EcBackend, RandomElementsAreDistinctAndValid) {
  GroupParams gp = ec();
  mpz::Prng prng(9);
  std::set<Bigint> seen;
  for (int i = 0; i < 16; ++i) {
    Bigint x = gp.random_element(prng);
    EXPECT_TRUE(gp.in_group(x));
    EXPECT_TRUE(seen.insert(x).second);
  }
}

TEST(EcBackend, InGroupRejectsNonEncodings) {
  GroupParams gp = ec();
  EXPECT_FALSE(gp.in_group(Bigint(-1)));
  EXPECT_FALSE(gp.in_group(Bigint(1).shl(256)));      // too wide
  EXPECT_FALSE(gp.in_group(Bigint(1).shl(255) - Bigint(1)));  // >= p, non-canonical
  // g with the sign bit of the encoding flipped (negative s) is rejected.
  const Bigint& g = gp.g();
  Bigint flipped = g.is_odd() ? g - Bigint(1) : g + Bigint(1);
  EXPECT_FALSE(gp.in_group(flipped));
}

TEST(EcBackend, NamedOrEnvSelectsBackend) {
  GroupParams def = GroupParams::named_or_env(ParamId::kToy64);
  const char* env = std::getenv("DBLIND_BACKEND");  // NOLINT(concurrency-mt-unsafe)
  if (env != nullptr && (std::string_view(env) == "ec" || std::string_view(env) == "ec255")) {
    EXPECT_EQ(def.backend_kind(), backend::Kind::kEc255);
  } else {
    EXPECT_EQ(def.backend_kind(), backend::Kind::kModP);
  }
}

TEST(EcBackend, SerializationRoundTripsAndIsCompact) {
  GroupParams gp = ec();
  std::vector<std::uint8_t> bytes = group_params_to_bytes(gp);
  EXPECT_EQ(bytes.size(), 1u);  // tag only: the curve is named, not negotiated
  mpz::Prng prng(10);
  GroupParams back = group_params_from_bytes(bytes, prng);
  EXPECT_EQ(back, gp);
  EXPECT_EQ(back.backend_kind(), backend::Kind::kEc255);
  GroupParams trusted = group_params_from_bytes_trusted(bytes);
  EXPECT_EQ(trusted, gp);
  // Hex form round trips too.
  EXPECT_EQ(group_params_from_hex(group_params_to_hex(gp), prng), gp);
}

TEST(EcBackend, EqualityDistinguishesBackends) {
  EXPECT_EQ(ec(), ec());
  EXPECT_FALSE(ec() == GroupParams::named(ParamId::kToy64));
  EXPECT_FALSE(ec() == GroupParams::named(ParamId::kSec2048));
}

// ---- cross-backend differential: the mod-p group is the oracle -------------

TEST(EcBackendDifferential, AlgebraAgreesWithModPOracle) {
  // The same algebraic scripts run on both backends must satisfy the same
  // identities; element values differ, structure must not.
  for (ParamId id : {ParamId::kToy64, ParamId::kEc255}) {
    GroupParams gp = GroupParams::named(id);
    mpz::Prng prng(42);
    Bigint k = gp.random_exponent(prng);
    Bigint r = gp.random_exponent(prng);
    Bigint m = gp.encode_message(Bigint(31337));
    // ElGamal round trip: (g^r, m * y^r) with y = g^k decrypts via a^k.
    Bigint y = gp.pow_g(k);
    Bigint a = gp.pow_g(r);
    Bigint b = gp.mul(m, gp.pow(y, r));
    Bigint recovered = gp.mul(b, gp.inv(gp.pow(a, k)));
    EXPECT_EQ(recovered, m) << "backend " << gp.backend_name();
    EXPECT_EQ(gp.decode_message(recovered), Bigint(31337))
        << "backend " << gp.backend_name();
  }
}

}  // namespace
}  // namespace dblind::group

// Cross-backend serialization fuzz: every malformed or non-canonical wire
// encoding of a group element or parameter set must be rejected at decode
// time with a typed error (CodecError / invalid_argument / in_group==false),
// never accepted, re-encoded differently, or crash — on BOTH backends.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/codec.hpp"
#include "group/params.hpp"
#include "group/serialize.hpp"
#include "mpz/random.hpp"

namespace dblind::group {
namespace {

using mpz::Bigint;
using mpz::Prng;

std::vector<std::uint8_t> random_bytes(Prng& prng, std::size_t max_len) {
  std::vector<std::uint8_t> out(prng.uniform_u64(max_len + 1));
  prng.fill(out);
  return out;
}

class BackendPair : public ::testing::TestWithParam<ParamId> {};

INSTANTIATE_TEST_SUITE_P(Backends, BackendPair,
                         ::testing::Values(ParamId::kToy64, ParamId::kEc255),
                         [](const auto& info) {
                           return info.param == ParamId::kEc255 ? "ec255" : "modp";
                         });

TEST_P(BackendPair, RandomIntegersRarelyLandInGroupAndNeverCrash) {
  GroupParams gp = GroupParams::named(GetParam());
  Prng prng(2024);
  for (int iter = 0; iter < 400; ++iter) {
    // Integers up to twice the element width, plus negatives: in_group must
    // classify every one of them without throwing.
    std::vector<std::uint8_t> raw(prng.uniform_u64(2 * gp.element_size()) + 1);
    prng.fill(raw);
    Bigint x = Bigint::from_bytes_be(raw);
    if (iter % 7 == 0) x = Bigint(0) - x;
    bool member = gp.in_group(x);
    if (member) {
      // Accepted values must round-trip through the canonical byte form.
      std::vector<std::uint8_t> bytes = gp.element_bytes(x);
      EXPECT_EQ(bytes.size(), gp.element_size());
    }
  }
}

TEST_P(BackendPair, MutatedElementsAreRejectedOrStayCanonical) {
  GroupParams gp = GroupParams::named(GetParam());
  Prng prng(77);
  for (int iter = 0; iter < 64; ++iter) {
    Bigint x = gp.random_element(prng);
    ASSERT_TRUE(gp.in_group(x));
    // Flip one bit of the canonical byte encoding. The result is either
    // rejected or a *different* valid element — never silently the same one.
    std::vector<std::uint8_t> be = x.to_bytes_be(gp.element_size());
    std::uint64_t bit = prng.uniform_u64(8 * gp.element_size());
    be[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    Bigint mutated = Bigint::from_bytes_be(be);
    if (gp.in_group(mutated)) {
      EXPECT_NE(mutated, x);
    }
  }
}

TEST_P(BackendPair, GroupAwareReadAcceptsExactlyTheMembers) {
  // read_element on a Reader carrying the group is in_group at the codec
  // boundary: members come back decoded with their encoding unchanged,
  // everything else is a CodecError. Without the group the same bytes read
  // back bare.
  GroupParams gp = GroupParams::named(GetParam());
  Prng prng(4096);
  int members = 0;
  for (int iter = 0; iter < 400; ++iter) {
    Bigint x;
    if (iter % 3 == 0) {
      x = gp.random_element(prng);
      std::vector<std::uint8_t> be = x.to_bytes_be(gp.element_size());
      const std::uint64_t bit = prng.uniform_u64(8 * gp.element_size());
      if (iter % 2 == 0) be[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      x = Bigint::from_bytes_be(be);
    } else {
      std::vector<std::uint8_t> raw(prng.uniform_u64(gp.element_size() + 2) + 1);
      prng.fill(raw);
      x = Bigint::from_bytes_be(raw);
      if (iter % 7 == 0) x = Bigint(0) - x;
    }
    common::Writer w;
    w.bigint(x);
    const std::vector<std::uint8_t> bytes = w.take();
    common::Reader with_group(bytes, &gp);
    if (gp.in_group(x)) {
      ++members;
      const Element e = read_element(with_group);
      EXPECT_TRUE(e.is_decoded());
      EXPECT_EQ(e, x);
    } else {
      EXPECT_THROW((void)read_element(with_group), common::CodecError) << x.to_hex();
    }
    common::Reader groupless(bytes);
    const Element bare = read_element(groupless);
    EXPECT_FALSE(bare.is_decoded());
    EXPECT_EQ(bare, x);
  }
  EXPECT_GT(members, 0);
}

TEST(EcSerializeFuzz, NonCanonicalEcEncodingsRejected) {
  GroupParams gp = GroupParams::named(ParamId::kEc255);
  const Bigint p = Bigint(1).shl(255) - Bigint(19);
  // Field values in [p, 2^255): canonical-range violations.
  EXPECT_FALSE(gp.in_group(p));
  EXPECT_FALSE(gp.in_group(p + Bigint(2)));
  EXPECT_FALSE(gp.in_group(Bigint(1).shl(255) - Bigint(1)));
  // Bit 255 set (byte 31 high bit): never valid even for small residues.
  EXPECT_FALSE(gp.in_group(Bigint(1).shl(255) + gp.g()));
  // Wider than 32 bytes.
  EXPECT_FALSE(gp.in_group(Bigint(1).shl(256) + Bigint(4)));
  // Negative integers are not encodings.
  EXPECT_FALSE(gp.in_group(Bigint(0) - gp.g()));
  // Odd s (negative field element per RFC 9496) is rejected: take a valid
  // element and flip its parity bit.
  mpz::Prng prng(31);
  for (int i = 0; i < 16; ++i) {
    Bigint x = gp.random_element(prng);
    Bigint parity_flipped = x.is_odd() ? x - Bigint(1) : x + Bigint(1);
    EXPECT_FALSE(gp.in_group(parity_flipped)) << "element " << i;
  }
}

TEST(EcSerializeFuzz, DecodeMessageRejectsNonMembersWithTypedError) {
  GroupParams gp = GroupParams::named(ParamId::kEc255);
  EXPECT_THROW((void)gp.decode_message(Bigint(1).shl(255)), std::invalid_argument);
  EXPECT_THROW((void)gp.decode_message(Bigint(0) - gp.g()), std::invalid_argument);
  EXPECT_THROW((void)gp.decode_message(Bigint(1).shl(255) - Bigint(1)),
               std::invalid_argument);
}

TEST(EcSerializeFuzz, DecodeMessageOnArbitraryElementsIsBoundedOrTyped) {
  GroupParams gp = GroupParams::named(ParamId::kEc255);
  // Arbitrary group elements were not produced by encode_message; decoding
  // them must either throw the typed error or return a value inside the
  // documented message range — never crash, never exceed the range.
  mpz::Prng prng(55);
  for (int i = 0; i < 64; ++i) {
    Bigint x = gp.random_element(prng);
    try {
      Bigint v = gp.decode_message(x);
      EXPECT_FALSE(v.is_zero());
      EXPECT_LE(v, gp.max_message_value());
    } catch (const std::invalid_argument&) {
      // typed rejection is equally acceptable
    }
  }
}

TEST(EcSerializeFuzz, GroupParamsWireFuzzNeverCrashes) {
  Prng prng(404);
  Prng check_rng(405);
  for (int iter = 0; iter < 300; ++iter) {
    auto bytes = random_bytes(prng, 64);
    try {
      (void)group_params_from_bytes(bytes, check_rng);
    } catch (const common::CodecError&) {
    } catch (const std::invalid_argument&) {
    }
    try {
      (void)group_params_from_bytes_trusted(bytes);
    } catch (const common::CodecError&) {
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(EcSerializeFuzz, EcTagWithTrailingBytesIsCodecError) {
  GroupParams gp = GroupParams::named(ParamId::kEc255);
  std::vector<std::uint8_t> bytes = group_params_to_bytes(gp);
  bytes.push_back(0x00);  // trailing garbage after the fixed-curve tag
  mpz::Prng prng(1);
  EXPECT_THROW((void)group_params_from_bytes(bytes, prng), common::CodecError);
  EXPECT_THROW((void)group_params_from_bytes_trusted(bytes), common::CodecError);
  // Unknown tag.
  std::vector<std::uint8_t> bad_tag{0x7e};
  EXPECT_THROW((void)group_params_from_bytes(bad_tag, prng), common::CodecError);
}

}  // namespace
}  // namespace dblind::group

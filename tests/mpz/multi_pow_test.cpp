// Property tests for the multi-exponentiation pass.
//
// The only spec for MontgomeryCtx::multi_pow is "Π bases[i]^exps[i] mod n",
// so every test here cross-checks against an independent reference: plain
// square-and-multiply over mulmod, which shares no code with the pass (powmod
// would: on an odd modulus it runs MontgomeryCtx::pow). Base-count sweeps run
// from 1 to 64 terms on one shared squaring chain.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "group/params.hpp"
#include "mpz/bigint.hpp"
#include "mpz/modmath.hpp"
#include "mpz/montgomery.hpp"
#include "mpz/random.hpp"

namespace dblind::mpz {
namespace {

// Uniform in [0, 2^bits) — variable-length, unlike Prng::random_bits.
Bigint rand_bits(Prng& prng, std::size_t bits) {
  return prng.uniform_below(Bigint(1).shl(bits));
}

// Reference implementation: independent square-and-multiply per base, over
// mulmod.
Bigint naive_multi_pow(const Bigint& n, const std::vector<Bigint>& bases,
                       const std::vector<Bigint>& exps) {
  Bigint acc(1);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    Bigint power(1);
    for (std::size_t b = exps[i].bit_length(); b-- > 0;) {
      power = mulmod(power, power, n);
      if (exps[i].bit(b)) power = mulmod(power, bases[i], n);
    }
    acc = mulmod(acc, power, n);
  }
  return acc;
}

Bigint odd_modulus(Prng& prng, std::size_t bits) {
  Bigint n = rand_bits(prng, bits);
  if (!n.bit(0)) n = n + Bigint(1);
  if (n <= Bigint(1)) n = Bigint(3);
  return n;
}

class MultiPowProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiPowProperty, AgreesWithProductOfPowmods) {
  Prng prng(GetParam());
  for (std::size_t mod_bits : {64u, 192u, 320u}) {
    Bigint n = odd_modulus(prng, mod_bits);
    MontgomeryCtx ctx(n);
    for (std::size_t count : {1u, 2u, 3u, 4u, 5u, 8u, 17u, 64u}) {
      std::vector<Bigint> bases, exps;
      for (std::size_t i = 0; i < count; ++i) {
        bases.push_back(mod(rand_bits(prng, mod_bits + 7), n));
        exps.push_back(rand_bits(prng, 1 + (i * 37) % (mod_bits + 16)));
      }
      EXPECT_EQ(ctx.multi_pow(bases, exps), naive_multi_pow(n, bases, exps))
          << "seed=" << GetParam() << " bits=" << mod_bits << " count=" << count;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiPowProperty, ::testing::Range<std::uint64_t>(1, 13));

TEST(MultiPow, EdgeCases) {
  Bigint n = Bigint::from_hex("f60100fb3362b19f");  // odd 64-bit
  MontgomeryCtx ctx(n);
  Prng prng(7);

  // Empty product is 1.
  EXPECT_EQ(ctx.multi_pow({}, {}), Bigint(1));

  // exp == 0 contributes a factor of 1, however many terms.
  for (std::size_t count : {1u, 3u, 9u}) {
    std::vector<Bigint> bases, exps;
    for (std::size_t i = 0; i < count; ++i) {
      bases.push_back(mod(rand_bits(prng, 64), n));
      exps.push_back(Bigint(0));
    }
    EXPECT_EQ(ctx.multi_pow(bases, exps), Bigint(1)) << count;
  }

  // base == 1 contributes a factor of 1 regardless of exponent.
  std::vector<Bigint> bases = {Bigint(1), mod(rand_bits(prng, 64), n), Bigint(1)};
  std::vector<Bigint> exps = {rand_bits(prng, 64), rand_bits(prng, 64), Bigint(0)};
  EXPECT_EQ(ctx.multi_pow(bases, exps), naive_multi_pow(n, {bases[1]}, {exps[1]}));

  // base == 0 with positive exponent zeroes the product.
  EXPECT_EQ(ctx.multi_pow({{Bigint(0), Bigint(5)}}, {{Bigint(3), Bigint(2)}}), Bigint(0));

  // Single base is exactly pow().
  Bigint b = mod(rand_bits(prng, 64), n);
  Bigint e = rand_bits(prng, 64);
  EXPECT_EQ(ctx.multi_pow({{b}}, {{e}}), ctx.pow(b, e));

  // Repeated bases multiply exponents in the group sense: b^e1 * b^e2.
  EXPECT_EQ(ctx.multi_pow({{b, b}}, {{e, Bigint(17)}}),
            naive_multi_pow(n, {b, b}, {e, Bigint(17)}));
}

TEST(MultiPow, RejectsBadInput) {
  Bigint n(101);
  MontgomeryCtx ctx(n);
  // Length mismatch.
  EXPECT_THROW((void)ctx.multi_pow({{Bigint(2), Bigint(3)}}, {{Bigint(1)}}),
               std::invalid_argument);
  // Base out of range.
  EXPECT_THROW((void)ctx.multi_pow({{Bigint(101)}}, {{Bigint(1)}}), std::invalid_argument);
  EXPECT_THROW((void)ctx.multi_pow({{Bigint(-1)}}, {{Bigint(1)}}), std::invalid_argument);
  // Negative exponent.
  EXPECT_THROW((void)ctx.multi_pow({{Bigint(2)}}, {{Bigint(-1)}}), std::invalid_argument);
}

TEST(MultiPow, MulCountIsMonotoneAndCounts) {
  Bigint n = Bigint::from_hex("f60100fb3362b19f");
  MontgomeryCtx ctx(n);
  std::uint64_t before = ctx.mul_count();
  (void)ctx.pow(Bigint(4), Bigint(123456789));
  std::uint64_t mid = ctx.mul_count();
  EXPECT_GT(mid, before);
  std::vector<Bigint> bases = {Bigint(2), Bigint(3), Bigint(5)};
  std::vector<Bigint> exps = {Bigint(99), Bigint(98), Bigint(97)};
  (void)ctx.multi_pow(bases, exps);
  EXPECT_GT(ctx.mul_count(), mid);
}

// multi_pow over a batch should beat per-base exponentiation on the metric
// the bench gate uses — Montgomery multiplications — once the batch is wide
// enough to amortize the shared squaring chain.
TEST(MultiPow, FewerMulsThanSerialForWideBatches) {
  Prng prng(42);
  Bigint n = odd_modulus(prng, 512);
  std::vector<Bigint> bases, exps;
  for (std::size_t i = 0; i < 16; ++i) {
    bases.push_back(mod(rand_bits(prng, 512), n));
    exps.push_back(rand_bits(prng, 256));
  }
  MontgomeryCtx batch_ctx(n);
  std::uint64_t b0 = batch_ctx.mul_count();
  Bigint batched = batch_ctx.multi_pow(bases, exps);
  std::uint64_t batch_muls = batch_ctx.mul_count() - b0;

  MontgomeryCtx serial_ctx(n);
  std::uint64_t s0 = serial_ctx.mul_count();
  Bigint serial(1);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    serial = serial_ctx.mul(serial, serial_ctx.pow(bases[i], exps[i]));
  }
  std::uint64_t serial_muls = serial_ctx.mul_count() - s0;

  EXPECT_EQ(batched, serial);
  EXPECT_LT(batch_muls * 2, serial_muls)
      << "batched=" << batch_muls << " serial=" << serial_muls;
}

}  // namespace
}  // namespace dblind::mpz

namespace dblind::group {
namespace {

using mpz::Bigint;
using mpz::Prng;

TEST(GroupMultiPow, ReducesBasesAndMatchesPow) {
  GroupParams params = GroupParams::named(ParamId::kTest128);
  Prng prng(5);
  std::vector<Bigint> bases, exps;
  Bigint expect(1);
  for (std::size_t i = 0; i < 6; ++i) {
    Bigint b = params.random_element(prng);
    Bigint e = params.random_exponent(prng);
    // Feed the base unreduced (b + p) to exercise the documented reduction.
    bases.push_back(b + params.p());
    exps.push_back(e);
    expect = params.mul(expect, params.pow(b, e));
  }
  EXPECT_EQ(params.multi_pow(bases, exps), expect);
}

TEST(GroupMontMulCount, SharedAcrossCopies) {
  GroupParams params = GroupParams::named(ParamId::kToy64);
  GroupParams copy = params;
  std::uint64_t before = params.group_op_count();
  Prng prng(9);
  (void)copy.pow(copy.random_element(prng), copy.random_exponent(prng));
  // The copy's work shows up in the original's counter (one shared context).
  EXPECT_GT(params.group_op_count(), before);
}

}  // namespace
}  // namespace dblind::group

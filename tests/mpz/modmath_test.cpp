#include "mpz/modmath.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "mpz/montgomery.hpp"
#include "mpz/random.hpp"

namespace dblind::mpz {
namespace {

TEST(Mod, NormalizesNegatives) {
  EXPECT_EQ(mod(Bigint(-1), Bigint(7)).to_dec(), "6");
  EXPECT_EQ(mod(Bigint(-8), Bigint(7)).to_dec(), "6");
  EXPECT_EQ(mod(Bigint(14), Bigint(7)).to_dec(), "0");
  EXPECT_THROW((void)mod(Bigint(1), Bigint(0)), std::domain_error);
  EXPECT_THROW((void)mod(Bigint(1), Bigint(-3)), std::domain_error);
}

TEST(ModArith, AddSubMul) {
  Bigint m(101);
  EXPECT_EQ(addmod(Bigint(100), Bigint(5), m).to_dec(), "4");
  EXPECT_EQ(submod(Bigint(3), Bigint(5), m).to_dec(), "99");
  EXPECT_EQ(mulmod(Bigint(50), Bigint(51), m).to_dec(), "25");
}

TEST(Powmod, SmallKnownValues) {
  EXPECT_EQ(powmod(Bigint(2), Bigint(10), Bigint(1000)).to_dec(), "24");
  EXPECT_EQ(powmod(Bigint(3), Bigint(0), Bigint(7)).to_dec(), "1");
  EXPECT_EQ(powmod(Bigint(0), Bigint(5), Bigint(7)).to_dec(), "0");
  EXPECT_EQ(powmod(Bigint(5), Bigint(1), Bigint(7)).to_dec(), "5");
}

TEST(Powmod, FermatLittleTheorem) {
  // a^(p-1) == 1 mod p for prime p and gcd(a,p)=1.
  Bigint p = Bigint::from_hex("f60100fb3362b19f");  // 64-bit safe prime
  for (std::uint64_t a : {2ull, 3ull, 65537ull, 123456789ull}) {
    EXPECT_EQ(powmod(Bigint(a), p - Bigint(1), p), Bigint(1)) << a;
  }
}

TEST(Powmod, NegativeExponentMeansInverse) {
  Bigint p(101);
  Bigint inv = powmod(Bigint(7), Bigint(-1), p);
  EXPECT_EQ(mulmod(inv, Bigint(7), p), Bigint(1));
}

TEST(Powmod, EvenModulusFallback) {
  EXPECT_EQ(powmod(Bigint(3), Bigint(4), Bigint(100)).to_dec(), "81");
  EXPECT_EQ(powmod(Bigint(7), Bigint(13), Bigint(64)).to_dec(),
            powmod(Bigint(7), Bigint(13), Bigint(64)).to_dec());
}

TEST(Powmod, ModulusOne) { EXPECT_EQ(powmod(Bigint(5), Bigint(5), Bigint(1)).to_dec(), "0"); }

TEST(Gcd, Basics) {
  EXPECT_EQ(gcd(Bigint(12), Bigint(18)).to_dec(), "6");
  EXPECT_EQ(gcd(Bigint(-12), Bigint(18)).to_dec(), "6");
  EXPECT_EQ(gcd(Bigint(0), Bigint(5)).to_dec(), "5");
  EXPECT_EQ(gcd(Bigint(5), Bigint(0)).to_dec(), "5");
  EXPECT_EQ(gcd(Bigint(17), Bigint(13)).to_dec(), "1");
}

TEST(Egcd, BezoutIdentity) {
  Bigint a = Bigint::from_dec("123456789012345678901234567");
  Bigint b = Bigint::from_dec("987654321098765432109");
  EgcdResult e = egcd(a, b);
  EXPECT_EQ(a * e.x + b * e.y, e.g);
  EXPECT_EQ(e.g, gcd(a, b));
}

TEST(Invmod, RoundTrip) {
  Bigint m = Bigint::from_hex("7b00807d99b158cf");  // 64-bit prime q
  Prng prng(7);
  for (int i = 0; i < 20; ++i) {
    Bigint a = prng.uniform_nonzero_below(m);
    Bigint inv = invmod(a, m);
    EXPECT_EQ(mulmod(a, inv, m), Bigint(1));
    EXPECT_TRUE(inv < m && !inv.is_negative());
  }
}

TEST(Invmod, NotInvertibleThrows) {
  EXPECT_THROW((void)invmod(Bigint(6), Bigint(9)), std::domain_error);
  EXPECT_THROW((void)invmod(Bigint(0), Bigint(7)), std::domain_error);
}

TEST(Jacobi, KnownValues) {
  // (a/7): QRs mod 7 are {1,2,4}.
  EXPECT_EQ(jacobi(Bigint(1), Bigint(7)), 1);
  EXPECT_EQ(jacobi(Bigint(2), Bigint(7)), 1);
  EXPECT_EQ(jacobi(Bigint(3), Bigint(7)), -1);
  EXPECT_EQ(jacobi(Bigint(4), Bigint(7)), 1);
  EXPECT_EQ(jacobi(Bigint(5), Bigint(7)), -1);
  EXPECT_EQ(jacobi(Bigint(6), Bigint(7)), -1);
  EXPECT_EQ(jacobi(Bigint(7), Bigint(7)), 0);
  EXPECT_EQ(jacobi(Bigint(0), Bigint(9)), 0);
  EXPECT_EQ(jacobi(Bigint(2), Bigint(15)), 1);  // composite n: Jacobi, not Legendre
}

TEST(Jacobi, MatchesEulerCriterionOnPrime) {
  Bigint p = Bigint::from_hex("f60100fb3362b19f");
  Bigint e = (p - Bigint(1)).shr(1);
  Prng prng(11);
  for (int i = 0; i < 20; ++i) {
    Bigint a = prng.uniform_nonzero_below(p);
    Bigint euler = powmod(a, e, p);
    int expect = euler == Bigint(1) ? 1 : -1;
    EXPECT_EQ(jacobi(a, p), expect);
  }
}

TEST(Jacobi, RejectsBadModulus) {
  EXPECT_THROW((void)jacobi(Bigint(3), Bigint(8)), std::domain_error);
  EXPECT_THROW((void)jacobi(Bigint(3), Bigint(-7)), std::domain_error);
}

TEST(Montgomery, MulMatchesPlain) {
  Bigint m = Bigint::from_hex("fc7fb60b74845770ea35c5cacef5191b0634d65fb8cfbb233eb4908e654edd8f");
  MontgomeryCtx ctx(m);
  Prng prng(13);
  for (int i = 0; i < 20; ++i) {
    Bigint a = prng.uniform_below(m);
    Bigint b = prng.uniform_below(m);
    EXPECT_EQ(ctx.mul(a, b), mulmod(a, b, m));
  }
}

TEST(Montgomery, PowMatchesSquareAndMultiply) {
  Bigint m = Bigint::from_hex("8c1776c575241cbbd7faeab6bbc168fa67a22e08ffb74a1d4d136e0a17d38fce"
                              "69679bea9e59b2516d1a79a83d3ae604357dd72d91fc58738907e0e74c5d8d9b");
  MontgomeryCtx ctx(m);
  Prng prng(17);
  for (int i = 0; i < 8; ++i) {
    Bigint b = prng.uniform_below(m);
    Bigint e = prng.uniform_below(m);
    // Reference: naive square-and-multiply with mulmod.
    Bigint acc(1);
    for (std::size_t bit = e.bit_length(); bit-- > 0;) {
      acc = mulmod(acc, acc, m);
      if (e.bit(bit)) acc = mulmod(acc, b, m);
    }
    EXPECT_EQ(ctx.pow(b, e), acc);
  }
}

TEST(Montgomery, EdgeExponents) {
  Bigint m(101);
  MontgomeryCtx ctx(m);
  EXPECT_EQ(ctx.pow(Bigint(5), Bigint(0)), Bigint(1));
  EXPECT_EQ(ctx.pow(Bigint(5), Bigint(1)), Bigint(5));
  EXPECT_EQ(ctx.pow(Bigint(0), Bigint(5)), Bigint(0));
  EXPECT_EQ(ctx.pow(Bigint(100), Bigint(2)), Bigint(1));  // (-1)^2
}

TEST(Montgomery, RejectsBadModulus) {
  EXPECT_THROW(MontgomeryCtx(Bigint(8)), std::invalid_argument);
  EXPECT_THROW(MontgomeryCtx(Bigint(1)), std::invalid_argument);
  EXPECT_THROW(MontgomeryCtx(Bigint(0)), std::invalid_argument);
  EXPECT_THROW(MontgomeryCtx(Bigint(-7)), std::invalid_argument);
}

// a^ea · b^eb, GroupParams::pow2's shape, is a two-term pass.
TEST(Pow2, MatchesTwoSeparateExponentiations) {
  Bigint m = Bigint::from_hex("fc7fb60b74845770ea35c5cacef5191b0634d65fb8cfbb233eb4908e654edd8f");
  MontgomeryCtx ctx(m);
  Prng prng(31);
  for (int i = 0; i < 15; ++i) {
    Bigint a = prng.uniform_below(m);
    Bigint b = prng.uniform_below(m);
    Bigint ea = prng.random_bits(1 + prng.uniform_u64(256));
    Bigint eb = prng.random_bits(1 + prng.uniform_u64(256));
    EXPECT_EQ(ctx.multi_pow({{a, b}}, {{ea, eb}}), mulmod(ctx.pow(a, ea), ctx.pow(b, eb), m));
  }
}

TEST(Pow2, MismatchedExponentWidths) {
  Bigint m = Bigint::from_hex("f60100fb3362b19f");
  MontgomeryCtx ctx(m);
  Prng prng(33);
  Bigint a = prng.uniform_below(m);
  Bigint b = prng.uniform_below(m);
  // One tiny, one wide exponent.
  Bigint ea(3);
  Bigint eb = prng.random_bits(63);
  EXPECT_EQ(ctx.multi_pow({{a, b}}, {{ea, eb}}), mulmod(ctx.pow(a, ea), ctx.pow(b, eb), m));
}

TEST(MultiPow, MatchesProductOfPows) {
  Bigint m = Bigint::from_hex("fc7fb60b74845770ea35c5cacef5191b0634d65fb8cfbb233eb4908e654edd8f");
  MontgomeryCtx ctx(m);
  Prng prng(41);
  for (int k : {1, 2, 5, 9}) {
    std::vector<Bigint> bases, exps;
    Bigint expect(1);
    for (int i = 0; i < k; ++i) {
      bases.push_back(prng.uniform_below(m));
      exps.push_back(prng.random_bits(1 + prng.uniform_u64(200)));
      expect = mulmod(expect, ctx.pow(bases.back(), exps.back()), m);
    }
    EXPECT_EQ(ctx.multi_pow(bases, exps), expect) << k;
  }
}

TEST(MultiPow, EdgeCases) {
  MontgomeryCtx ctx(Bigint(101));
  EXPECT_EQ(ctx.multi_pow({}, {}), Bigint(1));
  std::vector<Bigint> b = {Bigint(5)};
  std::vector<Bigint> z = {Bigint(0)};
  EXPECT_EQ(ctx.multi_pow(b, z), Bigint(1));
  std::vector<Bigint> e = {Bigint(2)};
  EXPECT_EQ(ctx.multi_pow(b, e), Bigint(25));
  // Two terms: a zero exponent contributes 1, an exponent of 1 its base.
  const std::vector<Bigint> two_b = {Bigint(5), Bigint(7)};
  const auto two = [&](std::uint64_t ea, std::uint64_t eb) {
    return ctx.multi_pow(two_b, std::vector<Bigint>{Bigint(ea), Bigint(eb)});
  };
  EXPECT_EQ(two(0, 0), Bigint(1));
  EXPECT_EQ(two(1, 0), Bigint(5));
  EXPECT_EQ(two(0, 1), Bigint(7));
  EXPECT_EQ(two(2, 2), Bigint(25 * 49 % 101));
  EXPECT_THROW((void)ctx.multi_pow(two_b, e), std::invalid_argument);
  EXPECT_THROW((void)ctx.multi_pow({{Bigint(101), Bigint(2)}}, {{Bigint(1), Bigint(1)}}),
               std::invalid_argument);
  EXPECT_THROW((void)ctx.multi_pow(two_b, {{Bigint(-1), Bigint(1)}}), std::invalid_argument);
  std::vector<Bigint> neg = {Bigint(-1)};
  EXPECT_THROW((void)ctx.multi_pow(b, neg), std::invalid_argument);
}

// Fixed-base exponentiation: a pass over the base's shift table agrees with
// the whole-base pass.
TEST(FixedBasePow, MatchesGenericPow) {
  Bigint m = Bigint::from_hex("fc7fb60b74845770ea35c5cacef5191b0634d65fb8cfbb233eb4908e654edd8f");
  MontgomeryCtx ctx(m);
  Prng prng(21);
  Bigint base = prng.uniform_below(m);
  ShiftTable table(ctx, base, 256);
  for (int i = 0; i < 20; ++i) {
    Bigint e = prng.random_bits(1 + prng.uniform_u64(256));
    EXPECT_EQ(ctx.pow(table, e), ctx.pow(base, e));
  }
  EXPECT_EQ(ctx.pow(table, Bigint(0)), Bigint(1));
  EXPECT_EQ(ctx.pow(table, Bigint(1)), base);
}

TEST(FixedBasePow, EdgeExponentWidths) {
  Bigint m(101);
  MontgomeryCtx ctx(m);
  // Capacity rounds up to whole 16-bit rows: 7 requested -> 16 usable bits.
  ShiftTable table(ctx, Bigint(5), 7);
  EXPECT_EQ(table.exp_bits(), 16U);
  for (std::uint64_t low = 0; low < 512; ++low) {
    for (const std::uint64_t e : {low, (std::uint64_t{1} << 16) - 1 - low}) {
      ASSERT_EQ(ctx.pow(table, Bigint(e)), ctx.pow(Bigint(5), Bigint(e))) << e;
    }
  }
  EXPECT_THROW((void)ctx.pow(table, Bigint(1) << 16), std::invalid_argument);  // 17 bits
  EXPECT_THROW((void)ctx.pow(table, Bigint(-1)), std::invalid_argument);
  // A table serves only the context it was built over.
  MontgomeryCtx other(m);
  EXPECT_THROW((void)other.pow(table, Bigint(3)), std::invalid_argument);
}

TEST(FixedBasePow, RejectsBadBase) {
  MontgomeryCtx ctx(Bigint(101));
  EXPECT_THROW(ShiftTable(ctx, Bigint(101), 8), std::invalid_argument);
  EXPECT_THROW(ShiftTable(ctx, Bigint(-1), 8), std::invalid_argument);
  ShiftTable zero_ok(ctx, Bigint(0), 8);
  EXPECT_EQ(ctx.pow(zero_ok, Bigint(3)), Bigint(0));
  EXPECT_EQ(ctx.pow(zero_ok, Bigint(0)), Bigint(1));
}

TEST(Montgomery, RejectsOutOfRangeOperands) {
  MontgomeryCtx ctx(Bigint(101));
  EXPECT_THROW((void)ctx.pow(Bigint(101), Bigint(2)), std::invalid_argument);
  EXPECT_THROW((void)ctx.pow(Bigint(5), Bigint(-2)), std::invalid_argument);
}

}  // namespace
}  // namespace dblind::mpz

// Differential tests: our Bigint arithmetic vs OpenSSL BIGNUM.
//
// OpenSSL is NOT used anywhere in the product code; it is linked only here to
// cross-check the from-scratch implementation on randomized operands.
#include <openssl/bn.h>

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "group/params.hpp"
#include "mpz/bigint.hpp"
#include "mpz/modmath.hpp"
#include "mpz/montgomery.hpp"
#include "mpz/prime.hpp"
#include "mpz/random.hpp"

namespace dblind::mpz {
namespace {

struct BnDeleter {
  void operator()(BIGNUM* b) const { BN_free(b); }
};
using BnPtr = std::unique_ptr<BIGNUM, BnDeleter>;

BnPtr to_bn(const Bigint& v) {
  BIGNUM* b = nullptr;
  std::string hex = v.abs().to_hex();
  BN_hex2bn(&b, hex.c_str());
  if (v.is_negative()) BN_set_negative(b, 1);
  return BnPtr(b);
}

Bigint from_bn(const BIGNUM* b) {
  char* hex = BN_bn2hex(b);
  Bigint out = Bigint::from_hex(hex);
  OPENSSL_free(hex);
  return out;
}

class DifferentialTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  BN_CTX* ctx_ = BN_CTX_new();
  ~DifferentialTest() override { BN_CTX_free(ctx_); }
};

TEST_P(DifferentialTest, AddSubMulDivAgree) {
  Prng prng(GetParam());
  for (int iter = 0; iter < 30; ++iter) {
    std::size_t abits = 1 + prng.uniform_u64(700);
    std::size_t bbits = 1 + prng.uniform_u64(700);
    // Every few iterations, jump to Karatsuba-sized operands (>= 2048 bits =
    // 32 limbs) so the recursive multiply and wide division paths are
    // cross-checked too.
    if (iter % 5 == 0) {
      abits += 2048 + prng.uniform_u64(2048);
      bbits += 1024 + prng.uniform_u64(3072);
    }
    Bigint a = prng.random_bits(abits);
    Bigint b = prng.random_bits(bbits);
    if (prng.uniform_u64(2)) a = a.negated();
    if (prng.uniform_u64(2)) b = b.negated();

    BnPtr ba = to_bn(a), bb = to_bn(b);
    BnPtr r(BN_new());

    BN_add(r.get(), ba.get(), bb.get());
    EXPECT_EQ(from_bn(r.get()), a + b);

    BN_sub(r.get(), ba.get(), bb.get());
    EXPECT_EQ(from_bn(r.get()), a - b);

    BN_mul(r.get(), ba.get(), bb.get(), ctx_);
    EXPECT_EQ(from_bn(r.get()), a * b);

    if (!b.is_zero()) {
      BnPtr q(BN_new()), rem(BN_new());
      BN_div(q.get(), rem.get(), ba.get(), bb.get(), ctx_);
      // OpenSSL BN_div truncates toward zero with remainder sign of dividend,
      // matching our semantics.
      EXPECT_EQ(from_bn(q.get()), a / b);
      EXPECT_EQ(from_bn(rem.get()), a % b);
    }
  }
}

TEST_P(DifferentialTest, ModExpAgrees) {
  Prng prng(GetParam() ^ 0x9e3779b97f4a7c15ull);
  for (int iter = 0; iter < 6; ++iter) {
    Bigint m = prng.random_bits(256 + prng.uniform_u64(256));
    if (m.is_even()) m += Bigint(1);  // our fast path needs odd modulus
    if (m == Bigint(1)) continue;
    Bigint base = prng.uniform_below(m);
    Bigint exp = prng.random_bits(200);

    BnPtr bm = to_bn(m), bb = to_bn(base), be = to_bn(exp);
    BnPtr r(BN_new());
    BN_mod_exp(r.get(), bb.get(), be.get(), bm.get(), ctx_);
    EXPECT_EQ(from_bn(r.get()), powmod(base, exp, m));
  }
}

TEST_P(DifferentialTest, MultiPowAgrees) {
  Prng prng(GetParam() ^ 0xa5a5a5a5a5a5a5a5ull);
  for (int iter = 0; iter < 4; ++iter) {
    Bigint m = prng.random_bits(192 + prng.uniform_u64(192));
    if (m.is_even()) m += Bigint(1);
    if (m == Bigint(1)) continue;
    MontgomeryCtx mctx(m);
    std::size_t count = 2 + prng.uniform_u64(15);
    std::vector<Bigint> bases, exps;
    BnPtr expect(BN_new());
    BN_one(expect.get());
    BnPtr bm = to_bn(m);
    for (std::size_t i = 0; i < count; ++i) {
      Bigint base = prng.uniform_below(m);
      Bigint exp = prng.random_bits(1 + prng.uniform_u64(200));
      bases.push_back(base);
      exps.push_back(exp);
      BnPtr bb = to_bn(base), be = to_bn(exp), term(BN_new());
      BN_mod_exp(term.get(), bb.get(), be.get(), bm.get(), ctx_);
      BN_mod_mul(expect.get(), expect.get(), term.get(), bm.get(), ctx_);
    }
    EXPECT_EQ(from_bn(expect.get()), mctx.multi_pow(bases, exps))
        << "m=" << m.to_hex() << " count=" << count;
  }
}

TEST_P(DifferentialTest, ModInverseAgrees) {
  Prng prng(GetParam() + 99);
  for (int iter = 0; iter < 20; ++iter) {
    Bigint m = prng.random_bits(128);
    Bigint a = prng.uniform_below(m);
    if (gcd(a, m) != Bigint(1)) continue;

    BnPtr bm = to_bn(m), ba = to_bn(a);
    BnPtr r(BN_new());
    ASSERT_NE(BN_mod_inverse(r.get(), ba.get(), bm.get(), ctx_), nullptr);
    EXPECT_EQ(from_bn(r.get()), invmod(a, m));
  }
}

TEST_P(DifferentialTest, GcdAgrees) {
  Prng prng(GetParam() + 12345);
  for (int iter = 0; iter < 20; ++iter) {
    Bigint a = prng.random_bits(1 + prng.uniform_u64(400));
    Bigint b = prng.random_bits(1 + prng.uniform_u64(400));
    BnPtr ba = to_bn(a), bb = to_bn(b);
    BnPtr r(BN_new());
    BN_gcd(r.get(), ba.get(), bb.get(), ctx_);
    EXPECT_EQ(from_bn(r.get()), gcd(a, b));
  }
}

// The edge exponents of a shift table over `exp_bits` bits: 0, 1, 2, every
// 16-bit chunk all ones, chunks of all ones one apart, single bits on each
// side of every chunk edge, and the table's full width (all ones, top bit).
std::vector<Bigint> shift_table_edges(std::size_t exp_bits) {
  const std::size_t chunk = ShiftTable::kChunkBits;
  const std::size_t width = (exp_bits + chunk - 1) / chunk * chunk;
  std::vector<Bigint> exps = {Bigint(0), Bigint(1), Bigint(2), (Bigint(1) << width) - Bigint(1),
                              Bigint(1) << (width - 1)};
  Bigint alternate(0);
  for (std::size_t lo = 0; lo < width; lo += chunk) {
    exps.push_back(((Bigint(1) << chunk) - Bigint(1)) << lo);
    if ((lo / chunk) % 2 == 0) alternate = alternate + (((Bigint(1) << chunk) - Bigint(1)) << lo);
    if (lo > 0) {
      exps.push_back(Bigint(1) << (lo - 1));
      exps.push_back(Bigint(1) << lo);
      exps.push_back((Bigint(1) << lo) + (Bigint(1) << (lo - 1)));
    }
  }
  exps.push_back(alternate);
  return exps;
}

// Shift tables (the fixed-base tables of g and every pinned base; a comb
// whose teeth are 16 bits apart, each windowed on its own) vs BN_mod_exp on
// random odd moduli, over the edge exponents the chunk indexing must get
// right and random draws.
TEST_P(DifferentialTest, FixedBaseCombAgrees) {
  Prng prng(GetParam() ^ 0xc0bb1e5ull);
  for (int iter = 0; iter < 3; ++iter) {
    Bigint m = prng.random_bits(192 + prng.uniform_u64(128));
    if (m.is_even()) m += Bigint(1);
    if (m == Bigint(1)) continue;
    MontgomeryCtx mctx(m);
    Bigint base = prng.uniform_below(m);
    const std::size_t max_bits = 200;
    ShiftTable table(mctx, base, max_bits);

    std::vector<Bigint> exps = shift_table_edges(max_bits);
    for (int i = 0; i < 4; ++i) exps.push_back(prng.random_bits(1 + prng.uniform_u64(max_bits)));

    BnPtr bm = to_bn(m), bb = to_bn(base);
    for (const Bigint& exp : exps) {
      BnPtr be = to_bn(exp), r(BN_new());
      BN_mod_exp(r.get(), bb.get(), be.get(), bm.get(), ctx_);
      EXPECT_EQ(from_bn(r.get()), mctx.pow(table, exp))
          << "m=" << m.to_hex() << " e=" << exp.to_hex();
    }
  }
}

// The shift tables the named 1024- and 2048-bit groups build for g and for a
// pinned base, vs BN_mod_exp on the edge exponents and q - 1.
TEST(ShiftTableDifferential, NamedGroupEdgesAgree) {
  BN_CTX* bn_ctx = BN_CTX_new();
  Prng prng(0x5e1f);
  for (group::ParamId id : {group::ParamId::kSec1024, group::ParamId::kSec2048}) {
    const group::GroupParams gp = group::GroupParams::named(id);
    MontgomeryCtx mctx(gp.p());
    std::vector<Bigint> exps = shift_table_edges(gp.q().bit_length());
    exps.push_back(gp.q() - Bigint(1));
    BnPtr bm = to_bn(gp.p());
    for (const Bigint& base : {Bigint(gp.g()), Bigint(gp.random_element(prng))}) {
      ShiftTable table(mctx, base, gp.q().bit_length());
      BnPtr bb = to_bn(base);
      for (const Bigint& exp : exps) {
        BnPtr be = to_bn(exp), r(BN_new());
        BN_mod_exp(r.get(), bb.get(), be.get(), bm.get(), bn_ctx);
        EXPECT_EQ(from_bn(r.get()), mctx.pow(table, exp))
            << gp.bits() << "-bit p, e=" << exp.to_hex();
      }
    }
  }
  BN_CTX_free(bn_ctx);
}

TEST_P(DifferentialTest, PrimalityAgrees) {
  Prng prng(GetParam() + 777);
  for (int iter = 0; iter < 10; ++iter) {
    Bigint n = prng.random_bits(96);
    if (n.is_even()) n += Bigint(1);
    BnPtr bn = to_bn(n);
    int ossl = BN_check_prime(bn.get(), ctx_, nullptr);
    ASSERT_GE(ossl, 0);
    EXPECT_EQ(ossl == 1, is_probable_prime(n, prng, 40)) << n.to_hex();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace dblind::mpz

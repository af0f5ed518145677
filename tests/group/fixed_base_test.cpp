// Fixed-base comb tables: differential tests against the generic Montgomery
// path across window widths and edge exponents, plus the GroupParams pinning
// semantics (explicit pin set, g fast path, no insertion on miss) and the
// mont-mul reduction the offline/online split's bench gate relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "group/params.hpp"
#include "mpz/modmath.hpp"
#include "mpz/montgomery.hpp"
#include "mpz/random.hpp"

namespace dblind::group {
namespace {

using mpz::Bigint;

std::vector<Bigint> edge_exponents(const Bigint& q, mpz::Prng& prng) {
  std::vector<Bigint> exps = {Bigint(0), Bigint(1), Bigint(2), q - Bigint(1)};
  // Window-boundary shapes: all-ones and single-bit exponents stress carry
  // paths between comb windows.
  exps.push_back((Bigint(1) << 17) - Bigint(1));
  exps.push_back(Bigint(1) << (q.bit_length() - 1));
  for (int i = 0; i < 8; ++i) exps.push_back(prng.uniform_below(q));
  return exps;
}

class FixedBaseWindows : public ::testing::TestWithParam<std::size_t> {};

// Every window width must agree with the generic square-and-multiply path on
// the edge exponents (0, 1, order-1, boundary patterns) and random draws.
TEST_P(FixedBaseWindows, AgreesWithGenericPow) {
  const std::size_t window = GetParam();
  GroupParams gp = GroupParams::named(ParamId::kTest128);
  mpz::MontgomeryCtx ctx(gp.p());
  mpz::Prng prng(7100 + window);

  for (const Bigint& base : {Bigint(gp.g()), Bigint(gp.pow_g(Bigint(12345))), Bigint(1)}) {
    mpz::FixedBasePow table(ctx, base, gp.q().bit_length(), window);
    EXPECT_EQ(table.window_bits(), window);
    for (const Bigint& e : edge_exponents(gp.q(), prng)) {
      EXPECT_EQ(table.pow(e), ctx.pow(base, e))
          << "window=" << window << " e=" << e.to_hex();
      EXPECT_EQ(table.pow(e), mpz::powmod(base, e, gp.p()))
          << "window=" << window << " e=" << e.to_hex();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, FixedBaseWindows, ::testing::Values(1, 2, 3, 4, 5, 6),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "w" + std::to_string(info.param);
                         });

TEST(FixedBase, RejectsOutOfRangeWindow) {
  GroupParams gp = GroupParams::named(ParamId::kToy64);
  mpz::MontgomeryCtx ctx(gp.p());
  EXPECT_THROW(mpz::FixedBasePow(ctx, gp.g(), 64, 0), std::invalid_argument);
  EXPECT_THROW(mpz::FixedBasePow(ctx, gp.g(), 64, 9), std::invalid_argument);
}

// pow_fixed must be a pure dispatcher: pinned bases hit their comb table,
// g hits the pow_g table, anything else falls through to the generic path —
// all with identical results, and a miss must never grow the pinned set
// (that is pin_base's explicit privilege).
TEST(FixedBase, PinnedDispatchMatchesPow) {
  GroupParams gp = GroupParams::named(ParamId::kTest128);
  mpz::Prng prng(7200);
  const Bigint y = gp.pow_g(gp.random_exponent(prng));
  const Bigint stranger = gp.pow_g(gp.random_exponent(prng));
  gp.pin_base(y);
  gp.pin_base(y);       // idempotent
  gp.pin_base(gp.g());  // no-op: pow_g's table already covers g

  for (const Bigint& e :
       {Bigint(0), Bigint(1), gp.q() - Bigint(1), gp.random_exponent(prng)}) {
    EXPECT_EQ(gp.pow_fixed(y, e), gp.pow(y, e)) << "pinned base, e=" << e.to_hex();
    EXPECT_EQ(gp.pow_fixed(gp.g(), e), gp.pow_g(e)) << "generator, e=" << e.to_hex();
    EXPECT_EQ(gp.pow_fixed(stranger, e), gp.pow(stranger, e))
        << "unpinned base, e=" << e.to_hex();
  }
}

// Copies of GroupParams share the pinned tables (one build per base,
// visible to every server holding the same parameters).
TEST(FixedBase, PinSharedAcrossCopies) {
  GroupParams gp = GroupParams::named(ParamId::kToy64);
  mpz::Prng prng(7300);
  const Bigint y = gp.pow_g(gp.random_exponent(prng));
  GroupParams copy = gp;
  gp.pin_base(y);

  const Bigint e = gp.random_exponent(prng);
  const std::uint64_t before = copy.group_op_count();
  const Bigint via_copy = copy.pow_fixed(y, e);
  const std::uint64_t comb_muls = copy.group_op_count() - before;
  EXPECT_EQ(via_copy, gp.pow(y, e));
  // The copy must have used the comb table built through the original: a
  // q-bit exponent costs at most ceil(bits/5) multiplications there, far
  // below the squaring chain of the generic path.
  EXPECT_LE(comb_muls, (gp.q().bit_length() + 4) / 5 + 1);
}

// The perf claim behind the tentpole, machine-independent: a comb-table
// exponentiation performs at least 2x fewer Montgomery multiplications than
// the generic path for the same (base, exponent).
TEST(FixedBase, CombHalvesMontMulsVsGeneric) {
  GroupParams gp = GroupParams::named(ParamId::kTest256);
  mpz::MontgomeryCtx ctx(gp.p());
  mpz::Prng prng(7400);
  const Bigint base = mpz::powmod(gp.g(), Bigint(987654321), gp.p());
  // Window 5 = the width pin_base() uses for protocol bases.
  mpz::FixedBasePow table(ctx, base, gp.q().bit_length(), 5);

  const Bigint e = prng.uniform_below(gp.q());
  std::uint64_t t0 = ctx.mul_count();
  const Bigint via_comb = table.pow(e);
  const std::uint64_t comb = ctx.mul_count() - t0;
  t0 = ctx.mul_count();
  const Bigint via_generic = ctx.pow(base, e);
  const std::uint64_t generic = ctx.mul_count() - t0;

  EXPECT_EQ(via_comb, via_generic);
  EXPECT_LE(comb * 2, generic) << "comb=" << comb << " generic=" << generic;
}

}  // namespace
}  // namespace dblind::group

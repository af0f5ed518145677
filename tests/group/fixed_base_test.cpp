// Fixed-base tables on mod-p: the GroupParams pinning semantics (explicit pin
// set, g fast path, no insertion on miss, a table built at first use and
// shared by every copy), the mont-mul reduction the bench gate relies on, and
// the cost pins: pow_g's squaring bound and one build under concurrent first
// use. The table's arithmetic is checked against OpenSSL in
// openssl_differential_test and against the whole-base pass in modmath_test.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <latch>
#include <thread>
#include <vector>

#include "group/params.hpp"
#include "mpz/modmath.hpp"
#include "mpz/montgomery.hpp"
#include "mpz/random.hpp"

namespace dblind::group {
namespace {

using mpz::Bigint;

// The group operations `f` performs on `gp`.
std::uint64_t ops_of(const GroupParams& gp, const std::function<void()>& f) {
  const std::uint64_t before = gp.group_op_count();
  f();
  return gp.group_op_count() - before;
}

// The digits of e's width-5 unsigned sliding windows, each 16-bit chunk
// recoded on its own: the multiplications of a pass over a shift table.
std::size_t chunked_digits(const Bigint& e) {
  std::size_t digits = 0;
  for (std::size_t lo = 0; lo < e.bit_length(); lo += mpz::ShiftTable::kChunkBits) {
    for (std::size_t pos = 0; pos < mpz::ShiftTable::kChunkBits;) {
      if (e.bit(lo + pos)) {
        ++digits;
        pos += 5;
      } else {
        ++pos;
      }
    }
  }
  return digits;
}

// pow_fixed must be a pure dispatcher: pinned bases and g go through their
// tables, anything else through the generic pass — all with identical
// results, and a miss must never grow the pinned set (that is pin_base's
// explicit privilege).
TEST(FixedBase, PinnedDispatchMatchesPow) {
  GroupParams gp = GroupParams::named(ParamId::kTest128);
  mpz::Prng prng(7200);
  const Bigint y = gp.pow_g(gp.random_exponent(prng));
  const Bigint stranger = gp.pow_g(gp.random_exponent(prng));
  gp.pin_base(y);
  gp.pin_base(y);       // idempotent
  gp.pin_base(gp.g());  // no-op: g always has its table

  for (const Bigint& e :
       {Bigint(0), Bigint(1), gp.q() - Bigint(1), gp.random_exponent(prng)}) {
    EXPECT_EQ(gp.pow_fixed(y, e), gp.pow(y, e)) << "pinned base, e=" << e.to_hex();
    EXPECT_EQ(gp.pow_fixed(gp.g(), e), gp.pow_g(e)) << "generator, e=" << e.to_hex();
    EXPECT_EQ(gp.pow_fixed(stranger, e), gp.pow(stranger, e))
        << "unpinned base, e=" << e.to_hex();
    EXPECT_EQ(gp.pow(y, e), mpz::powmod(y, e, gp.p())) << "pinned base, e=" << e.to_hex();
  }
  EXPECT_EQ(gp.pinned_table_count(), 1U);
}

// Copies of GroupParams share the pinned tables: one build per base, visible
// to every server holding the same parameters.
TEST(FixedBase, PinSharedAcrossCopies) {
  GroupParams gp = GroupParams::named(ParamId::kToy64);
  mpz::Prng prng(7300);
  const Bigint y = gp.pow_g(gp.random_exponent(prng));
  GroupParams copy = gp;
  gp.pin_base(y);
  (void)gp.pow_fixed(y, gp.random_exponent(prng));  // builds y's table

  const Bigint e = gp.random_exponent(prng);
  Bigint via_copy;
  const std::uint64_t table_muls = ops_of(copy, [&] { via_copy = copy.pow_fixed(y, e); });
  EXPECT_EQ(via_copy, mpz::powmod(y, e, gp.p()));
  // The copy must have used the table built through the original: at most
  // 15 squarings and four multiplications per 16-bit row, far below the
  // squaring chain of the generic path.
  const std::size_t rows = (gp.q().bit_length() + 15) / 16;
  EXPECT_LE(table_muls, 15 + 4 * rows);
}

// The perf claim behind the fixed-base tables, machine-independent: an
// exponentiation over a base's shift table (a comb whose teeth are 16 bits
// apart, each windowed on its own) performs at least 2x fewer Montgomery
// multiplications than the generic pass for the same (base, exponent).
TEST(FixedBase, CombHalvesMontMulsVsGeneric) {
  GroupParams gp = GroupParams::named(ParamId::kTest256);
  mpz::MontgomeryCtx ctx(gp.p());
  mpz::Prng prng(7400);
  const Bigint base = mpz::powmod(gp.g(), Bigint(987654321), gp.p());
  const mpz::ShiftTable table(ctx, base, gp.q().bit_length());

  const Bigint e = prng.uniform_below(gp.q());
  std::uint64_t t0 = ctx.mul_count();
  const Bigint via_table = ctx.pow(table, e);
  const std::uint64_t fixed = ctx.mul_count() - t0;
  t0 = ctx.mul_count();
  const Bigint via_generic = ctx.pow(base, e);
  const std::uint64_t generic = ctx.mul_count() - t0;

  EXPECT_EQ(via_table, via_generic);
  EXPECT_LE(fixed * 2, generic) << "table=" << fixed << " generic=" << generic;
}

// g's table holds 16-bit chunks: pow_g(q - 1), whose every chunk of a
// 1023-bit q is dense, walks at most 15 squarings plus one multiplication
// per digit (the first digit is a copy, not a multiplication).
TEST(FixedBase, PowGWalksAtMostFifteenSquarings) {
  const GroupParams gp = GroupParams::named(ParamId::kSec1024);
  (void)gp.pow_g(Bigint(1));  // builds g's table
  const Bigint e = gp.q() - Bigint(1);
  Bigint r;
  const std::uint64_t ops = ops_of(gp, [&] { r = gp.pow_g(e); });
  EXPECT_EQ(r, mpz::powmod(gp.g(), e, gp.p()));
  EXPECT_LE(ops, 15 + chunked_digits(e));
  EXPECT_GE(ops + 1, chunked_digits(e));
}

// Eight threads make the first use of a pinned base, each through its own
// copy: every result is right, and the backend is charged one table build
// plus eight passes. (Runs in the tsan job too.)
TEST(FixedBase, ConcurrentFirstUseBuildsOneTable) {
  const GroupParams gp = GroupParams::named(ParamId::kTest256);
  mpz::Prng prng(7500);
  const Bigint x = gp.pow_g(gp.random_exponent(prng));
  const Bigint e = gp.random_exponent(prng);
  gp.pin_base(x);
  const mpz::MontgomeryCtx ctx(gp.p());
  std::uint64_t t0 = ctx.mul_count();
  const mpz::ShiftTable table(ctx, x, gp.q().bit_length());
  const std::uint64_t build = ctx.mul_count() - t0;
  t0 = ctx.mul_count();
  const Bigint expected = ctx.pow(table, e);
  const std::uint64_t pass = ctx.mul_count() - t0;

  const std::uint64_t ops0 = gp.group_op_count();
  constexpr int kThreads = 8;
  std::array<Bigint, kThreads> results;
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const GroupParams mine = gp;
      start.arrive_and_wait();
      results[i] = mine.pow(x, e);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(gp.group_op_count() - ops0, build + kThreads * pass);
  for (const Bigint& r : results) EXPECT_EQ(r, expected);
}

}  // namespace
}  // namespace dblind::group

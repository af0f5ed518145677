// group::Element: decoded vs bare elements on both backends.
//
// The cost tests count GF(2^255-19) multiplications (mpz::fe_mul_count(),
// deterministic) around one facade call and compare them with the ristretto
// kernels the call must consist of: an operation on decoded elements reads
// their points (no decode) and costs its kernel only; the first read of the
// result's encoding costs one encode, charged to the backend, and a second
// read or a read through a copy costs nothing, from any number of threads.
// multi_pow_equals encodes nothing. The twin tests check that a bare element
// (encoding only) and its decoded twin give identical results under every
// operation.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <latch>
#include <optional>
#include <thread>
#include <vector>

#include "common/codec.hpp"
#include "group/params.hpp"
#include "group/ristretto.hpp"
#include "mpz/fe25519.hpp"
#include "mpz/modmath.hpp"
#include "mpz/random.hpp"

namespace dblind::group {
namespace {

using mpz::Bigint;

std::uint64_t field_muls_of(const std::function<void()>& f) {
  const std::uint64_t before = mpz::fe_mul_count();
  f();
  return mpz::fe_mul_count() - before;
}

ec::EncodedPoint encoded(const Element& x) {
  std::vector<std::uint8_t> be = x.encoding().to_bytes_be(32);
  ec::EncodedPoint out;
  std::copy(be.rbegin(), be.rend(), out.begin());
  return out;
}

ec::Point point_of(const Element& x) { return *ec::decode(encoded(x)); }

ec::ScalarBytes scalar_of(const GroupParams& gp, const Bigint& e) {
  std::vector<std::uint8_t> be = mpz::mod(e, gp.q()).to_bytes_be(32);
  ec::ScalarBytes out;
  std::copy(be.rbegin(), be.rend(), out.begin());
  return out;
}

// A bare copy: the same encoding, no native form.
Element bare(const Element& x) { return Element(x.encoding()); }

// x after its first read: an operation result encodes then, not later.
Element read(Element x) {
  (void)x.encoding();
  return x;
}

class ElementCost : public ::testing::Test {
 protected:
  GroupParams gp = GroupParams::named(ParamId::kEc255);
  mpz::Prng prng{0xe1e};
  // Read up front, so no cost below includes their own deferred encodes.
  Element x = read(gp.random_element(prng));
  Element y = read(gp.random_element(prng));
  std::uint64_t decode_cost = field_muls_of([&] { (void)ec::decode(encoded(x)); });
};

TEST_F(ElementCost, InGroupOnDecodedIsFreeOnBareIsOneDecode) {
  ASSERT_TRUE(x.is_decoded());
  EXPECT_EQ(field_muls_of([&] { EXPECT_TRUE(gp.in_group(x)); }), 0U);
  const Element b = bare(x);
  ASSERT_FALSE(b.is_decoded());
  EXPECT_EQ(field_muls_of([&] { EXPECT_TRUE(gp.in_group(b)); }), decode_cost);
  EXPECT_GT(decode_cost, 200U);  // an inverse square root
}

// The addition is paid by the operation, the encode by the first read of the
// result's encoding; both are charged to the backend's op counter.
TEST_F(ElementCost, MulOfDecodedIsOneAdditionPlusOneEncode) {
  const ec::Point px = point_of(x);
  const ec::Point py = point_of(y);
  const ec::Point sum = ec::add(px, py);
  const std::uint64_t add_cost = field_muls_of([&] { (void)ec::add(px, py); });
  const std::uint64_t encode_cost = field_muls_of([&] { (void)ec::encode(sum); });
  const std::uint64_t ops0 = gp.group_op_count();
  Element product;
  EXPECT_EQ(field_muls_of([&] { product = gp.mul(x, y); }), add_cost);
  EXPECT_TRUE(product.is_decoded());
  const Element copy = product;
  EXPECT_EQ(field_muls_of([&] { (void)product.encoding(); }), encode_cost);
  EXPECT_EQ(field_muls_of([&] { (void)product.encoding(); }), 0U);
  EXPECT_EQ(field_muls_of([&] { EXPECT_EQ(copy, product); }), 0U);
  EXPECT_EQ(gp.group_op_count() - ops0, add_cost + encode_cost);
  // A copy taken after the read shares the encoding too; a product nothing
  // reads is never encoded.
  EXPECT_EQ(field_muls_of([&] { (void)Element(product).encoding(); }), 0U);
  EXPECT_EQ(field_muls_of([&] { (void)gp.mul(product, x); }), add_cost);
  // Bare operands pay one decode each on top.
  const Element bx = bare(x);
  const Element by = bare(y);
  EXPECT_EQ(field_muls_of([&] { (void)gp.mul(bx, by); }), add_cost + 2 * decode_cost);
}

TEST_F(ElementCost, MultiPowEqualsEncodesNothing) {
  std::vector<Element> bases;
  std::vector<Bigint> exps;
  std::vector<ec::Point> pts;
  std::vector<ec::ScalarBytes> scalars;
  for (int i = 0; i < 5; ++i) {
    bases.push_back(gp.random_element(prng));
    exps.push_back(gp.random_exponent(prng));
    pts.push_back(point_of(bases.back()));
    scalars.push_back(scalar_of(gp, exps.back()));
  }
  const Element expect = gp.multi_pow(bases, exps);
  ASSERT_TRUE(expect.is_decoded());
  const ec::Point sum = ec::multi_scalar_mul(pts, scalars);
  const std::uint64_t kernel = field_muls_of([&] { (void)ec::multi_scalar_mul(pts, scalars); });
  const std::uint64_t compare = field_muls_of([&] { (void)ec::eq(sum, sum); });
  EXPECT_EQ(field_muls_of([&] { EXPECT_TRUE(gp.multi_pow_equals(bases, exps, expect)); }),
            kernel + compare);
  // multi_pow costs the kernel; reading its result adds the encode that the
  // comparison never pays.
  const std::uint64_t encode_cost = field_muls_of([&] { (void)ec::encode(sum); });
  Element product;
  EXPECT_EQ(field_muls_of([&] { product = gp.multi_pow(bases, exps); }), kernel);
  EXPECT_EQ(field_muls_of([&] { (void)product.encoding(); }), encode_cost);
  EXPECT_FALSE(gp.multi_pow_equals(bases, exps, gp.mul(expect, gp.g())));
}

// The first operation that names a pinned base builds its shift table,
// inside that operation; later ones walk 16 doublings over it. pow_fixed
// never encodes its base: a base that nothing has read yet is matched to g
// and to the pinned bases by point (at most 4 field muls each) and still
// takes their tables.
TEST_F(ElementCost, PowFixedMatchesAnUnreadBaseByPoint) {
  gp.pin_base(x);
  const Bigint e = gp.random_exponent(prng);
  const ec::Point px = point_of(x);
  const std::uint64_t build = field_muls_of([&] { (void)ec::ShiftTable(px); });
  const std::uint64_t generic =
      field_muls_of([&] { (void)ec::scalar_mul(px, scalar_of(gp, e)); });
  const std::uint64_t first = field_muls_of([&] { (void)gp.pow_fixed(x, e); });
  const std::uint64_t fixed = field_muls_of([&] { (void)gp.pow_fixed(x, e); });
  EXPECT_EQ(first, build + fixed);
  ASSERT_LT(3 * fixed, generic);
  const std::uint64_t encode_cost = field_muls_of([&] { (void)ec::encode(px); });
  for (const Element& base : {x, gp.g()}) {
    const Element twin = gp.mul(base, gp.identity());  // equal, unread
    Element r;
    const std::uint64_t cost = field_muls_of([&] { r = gp.pow_fixed(twin, e); });
    EXPECT_LT(3 * cost, generic);
    EXPECT_EQ(r, gp.pow(base, e));
    EXPECT_EQ(field_muls_of([&] { (void)twin.encoding(); }), encode_cost);
  }
  const Element twin = gp.mul(x, gp.identity());
  EXPECT_LE(field_muls_of([&] { (void)gp.pow_fixed(twin, e); }), fixed + 8);
}

// g's table exists once anything has named g: pow_g then costs 16 chunks'
// additions (about three each, 8 field muls apiece) and at most 15
// doublings (7 each).
TEST_F(ElementCost, PowGWalksSixteenDoublings) {
  (void)gp.pow_g(Bigint(1));
  std::uint64_t total = 0;
  constexpr int kExps = 32;
  for (int i = 0; i < kExps; ++i) {
    const Bigint e = gp.random_exponent(prng);
    const std::uint64_t cost = field_muls_of([&] { (void)gp.pow_g(e); });
    EXPECT_LE(cost, 64 * 8U + 15 * 7U);
    total += cost;
  }
  EXPECT_LE(total / kExps, 520U);
  // A Lagrange coefficient of -1 enters as (-g, 1): one addition.
  EXPECT_EQ(field_muls_of([&] { (void)gp.pow_g(gp.q() - Bigint(1)); }), 8U);
}

// Eight threads name one pinned base for the first time at once, each
// through its own copy of the group: one of them builds the base's table,
// and the backend is charged for one build and eight passes.
TEST_F(ElementCost, ConcurrentFirstUseBuildsOneTable) {
  gp.pin_base(x);
  const Bigint e = gp.random_exponent(prng);
  const ec::Point px = point_of(x);
  const ec::EncodedPoint expected = ec::encode(ec::scalar_mul(px, scalar_of(gp, e)));
  const std::uint64_t build = field_muls_of([&] { (void)ec::ShiftTable(px); });
  const std::uint64_t ops0 = gp.group_op_count();
  constexpr int kThreads = 8;
  std::array<Element, kThreads> results;
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
  const std::uint64_t ops = gp.group_op_count() - ops0;
  const std::uint64_t pass = field_muls_of([&] { (void)gp.pow(x, e); });
  EXPECT_EQ(ops, build + kThreads * pass);
  for (const Element& r : results) EXPECT_EQ(encoded(r), expected);
}

// Eight threads make the first reads of one result's encoding, some through
// their own copies: every read sees the same encoding, and the backend is
// charged exactly one encode.
TEST_F(ElementCost, ConcurrentFirstReadEncodesOnce) {
  const ec::Point sum = ec::add(point_of(x), point_of(y));
  const std::uint64_t encode_cost = field_muls_of([&] { (void)ec::encode(sum); });
  const Element expected = read(gp.mul(bare(x), bare(y)));
  const Element product = gp.mul(x, y);
  const std::uint64_t ops0 = gp.group_op_count();
  constexpr int kThreads = 8;
  std::array<mpz::Bigint, kThreads> seen;
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      const Element mine = product;
      seen[i] = i % 2 == 0 ? product.encoding() : mine.encoding();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const mpz::Bigint& s : seen) EXPECT_EQ(s, expected.encoding());
  EXPECT_EQ(gp.group_op_count() - ops0, encode_cost);
}

TEST_F(ElementCost, DecodeValidatesOnceAndPassesDecodedFree) {
  std::optional<Element> d;
  EXPECT_EQ(field_muls_of([&] { d = gp.decode(x.encoding()); }), decode_cost);
  ASSERT_TRUE(d && d->is_decoded());
  EXPECT_EQ(*d, x);
  EXPECT_EQ(field_muls_of([&] { d = gp.decode(x); }), 0U);
  EXPECT_FALSE(gp.decode(Bigint(1).shl(255) - Bigint(1)).has_value());  // >= p
}

// ---- bare vs decoded twins, both backends -----------------------------------

class ElementTwins : public ::testing::TestWithParam<ParamId> {};

TEST_P(ElementTwins, EveryOperationAgrees) {
  const GroupParams gp = GroupParams::named(GetParam());
  mpz::Prng prng(0x7317);
  const Element a = gp.random_element(prng);
  const Element b = gp.random_element(prng);
  const Element pinned = gp.random_element(prng);
  gp.pin_base(pinned);
  const Bigint e1 = gp.random_exponent(prng);
  const Bigint e2 = gp.random_exponent(prng);
  ASSERT_TRUE(a.is_decoded() && b.is_decoded());

  // Each operation as a function of its two element inputs.
  const std::vector<std::function<Element(const Element&, const Element&)>> ops = {
      [&](const Element& u, const Element&) { return gp.pow(u, e1); },
      [&](const Element& u, const Element&) { return gp.pow_fixed(u, e1); },
      [&](const Element&, const Element& v) { return gp.pow_fixed(v, e2); },
      [&](const Element& u, const Element& v) { return gp.mul(u, v); },
      [&](const Element& u, const Element& v) { return gp.pow2(u, e1, v, e2); },
      [&](const Element& u, const Element& v) {
        const std::array<Element, 3> bases = {u, v, gp.g()};
        const std::array<Bigint, 3> exps = {e1, e2, e1};
        return gp.multi_pow(bases, exps);
      },
      [&](const Element& u, const Element&) { return gp.inv(u); },
  };
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Element second = i == 2 ? pinned : b;
    const Element decoded_result = ops[i](a, second);
    const Element bare_result = ops[i](bare(a), bare(second));
    EXPECT_EQ(decoded_result, bare_result) << "op " << i;
    EXPECT_TRUE(decoded_result.is_decoded()) << "op " << i;
    EXPECT_TRUE(gp.in_group(bare_result)) << "op " << i;
  }

  for (const Element& x : {a, bare(a)}) {
    EXPECT_TRUE(gp.in_group(x));
    EXPECT_EQ(gp.element_bytes(x), gp.element_bytes(a));
    const std::optional<Element> d = gp.decode(x);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(*d, a);
    EXPECT_TRUE(d->is_decoded());
  }
  const Element expect = gp.pow2(a, e1, b, e2);
  const std::array<Bigint, 2> exps = {e1, e2};
  for (bool bare_inputs : {false, true}) {
    const std::array<Element, 2> bases = {bare_inputs ? bare(a) : a, bare_inputs ? bare(b) : b};
    EXPECT_TRUE(gp.multi_pow_equals(bases, exps, bare_inputs ? bare(expect) : expect));
    EXPECT_FALSE(gp.multi_pow_equals(bases, exps, bare_inputs ? bare(a) : a));
  }
  const Element m = gp.encode_message(Bigint(424242));
  EXPECT_EQ(gp.decode_message(m), gp.decode_message(bare(m)));
}

TEST_P(ElementTwins, NonElementsNeverPassAsDecoded) {
  const GroupParams gp = GroupParams::named(GetParam());
  mpz::Prng prng(0x7318);
  const Element a = gp.random_element(prng);
  // A value outside the group: mod-p p-1 (a non-residue, since p = 3 mod 4);
  // ec255 an encoding >= p.
  const Bigint outside = gp.backend_kind() == backend::Kind::kModP
                             ? gp.p() - Bigint(1)
                             : Bigint(1).shl(255) - Bigint(1);
  EXPECT_FALSE(gp.in_group(outside));
  EXPECT_FALSE(gp.decode(outside).has_value());
  if (gp.backend_kind() == backend::Kind::kModP) {
    // mod-p computes on any residue; a result derived from a non-element is
    // not marked validated, so membership is still checked.
    const Element product = gp.mul(outside, a);
    EXPECT_FALSE(product.is_decoded());
    EXPECT_FALSE(gp.in_group(product));
  } else {
    EXPECT_THROW((void)gp.mul(outside, a), std::invalid_argument);
  }
  // Validity is per group: another mod-p group re-checks.
  if (gp.backend_kind() == backend::Kind::kModP) {
    const GroupParams other = GroupParams::named(ParamId::kToy64);
    EXPECT_EQ(other.in_group(a), other.in_group(bare(a)));
  }
}

TEST_P(ElementTwins, ReaderWithGroupDecodesAndRejects) {
  const GroupParams gp = GroupParams::named(GetParam());
  mpz::Prng prng(0x7319);
  const Element a = gp.random_element(prng);
  common::Writer w;
  w.bigint(a);
  w.bigint(Bigint(0));  // mod-p: not an element; ec255: the identity
  const std::vector<std::uint8_t> bytes = w.take();

  common::Reader with_group(bytes, &gp);
  const Element read = read_element(with_group);
  EXPECT_EQ(read, a);
  EXPECT_TRUE(read.is_decoded());
  if (gp.backend_kind() == backend::Kind::kModP) {
    EXPECT_THROW((void)read_element(with_group), common::CodecError);
  } else {
    EXPECT_TRUE(gp.is_identity(read_element(with_group)));
  }

  common::Reader groupless(bytes);
  const Element bare_read = read_element(groupless);
  EXPECT_EQ(bare_read, a);
  EXPECT_FALSE(bare_read.is_decoded());
  EXPECT_EQ(read_element(groupless), Bigint(0));
}

INSTANTIATE_TEST_SUITE_P(Backends, ElementTwins,
                         ::testing::Values(ParamId::kTest128, ParamId::kEc255));

}  // namespace
}  // namespace dblind::group

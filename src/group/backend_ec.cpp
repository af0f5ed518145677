#include "group/backend_ec.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "hash/sha256.hpp"
#include "mpz/modmath.hpp"

namespace dblind::group {

namespace {

// The element encoding of an RFC 9496 string: read as a little-endian integer.
mpz::Bigint box(const ec::EncodedPoint& enc) {
  std::array<std::uint8_t, 32> be;
  std::copy(enc.rbegin(), enc.rend(), be.begin());
  return mpz::Bigint::from_bytes_be(be);
}

// The element encoding of the generator, from its RFC 9496 §A.1 string.
mpz::Bigint generator_encoding() {
  const std::vector<std::uint8_t> s =
      hash::from_hex("e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76");
  ec::EncodedPoint enc;
  std::copy(s.begin(), s.end(), enc.begin());
  return box(enc);
}

}  // namespace

const mpz::Bigint& ec::Native::encoding() const {
  if (!known_.load(std::memory_order_acquire)) {
    std::call_once(once_, [this] {
      const std::uint64_t start = mpz::fe_mul_count();
      encoding_ = box(ec::encode(point_));
      cell_->fetch_add(mpz::fe_mul_count() - start, std::memory_order_relaxed);
      known_.store(true, std::memory_order_release);
    });
  }
  return encoding_;
}

const mpz::Bigint& Element::native_encoding() const { return native_->encoding(); }

namespace backend {

namespace {

// Message embedding layout inside the 32-byte encoding s (little-endian):
//   s[0]      tweak low bits, shifted left 1 so bit 0 stays clear (decode
//             requires the field element to be "non-negative": even)
//   s[1..29]  payload: the message value, little-endian (<= 2^232 - 1)
//   s[30]     tweak high bits
//   s[31]     0 (keeps s < 2^248 < p: always a canonical field element)
// Encoding tries tweaks until the string decodes to a valid ristretto point
// (success probability ~ 1/4 per try; 2^15 tweaks make failure impossible in
// practice). Deterministic: the first valid tweak wins.
constexpr std::size_t kPayloadBytes = 29;
constexpr unsigned kMaxTweak = 1u << 15;

std::optional<ec::Point> try_unbox(const Bigint& x) {
  if (x.is_negative() || x.bit_length() > 255) return std::nullopt;
  std::vector<std::uint8_t> be = x.to_bytes_be(32);
  ec::EncodedPoint enc;
  std::copy(be.rbegin(), be.rend(), enc.begin());
  return ec::decode(enc);
}

}  // namespace

Ec::Ec()
    : p_(Bigint::from_hex(
          "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed")),
      q_(Bigint::from_hex(
          "1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ed")),
      max_message_(Bigint::from_hex(
          "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffff")),
      g_(encoded_element(ec::base_point(), generator_encoding())),
      identity_(encoded_element(ec::identity(), Bigint(0))) {}

Element Ec::encoded_element(const ec::Point& pt, Bigint encoding) {
  return decoded(std::make_shared<const ec::Native>(pt, std::move(encoding)), kOwner);
}

Element Ec::element(const ec::Point& pt) const {
  return decoded(std::make_shared<const ec::Native>(pt, op_count_), kOwner);
}

ec::Point Ec::point(const Element& x) {
  if (const ec::Native* native = native_of(x)) return native->point();
  std::optional<ec::Point> pt = try_unbox(x);
  if (!pt) throw std::invalid_argument("ec255: not a canonical group element encoding");
  return *pt;
}

ec::ScalarBytes Ec::to_scalar(const Bigint& e) const {
  std::vector<std::uint8_t> be = mpz::mod(e, q_).to_bytes_be(32);
  ec::ScalarBytes s;
  std::copy(be.rbegin(), be.rend(), s.begin());
  return s;
}

bool Ec::in_group(const Element& x) const {
  if (native_of(x) != nullptr) return true;
  OpScope scope(*this);
  return try_unbox(x).has_value();
}

std::optional<Element> Ec::decode(const Element& x) const {
  if (native_of(x) != nullptr) return x;
  OpScope scope(*this);
  std::optional<ec::Point> pt = try_unbox(x);
  if (!pt) return std::nullopt;
  // A canonical encoding is the encoding of its point: keep it, skip encode.
  return decoded(std::make_shared<const ec::Native>(*pt, x.encoding()), kOwner);
}

const ec::ShiftTable& Ec::g_table() const {
  std::call_once(cache_.g_once, [&] {
    cache_.g_table = std::make_unique<const ec::ShiftTable>(ec::base_point());
  });
  return *cache_.g_table;
}

const Bigint* Ec::encoding_if_known(const Element& x) {
  const ec::Native* native = native_of(x);
  return native != nullptr ? native->encoding_if_known() : &x.encoding();
}

const ec::ShiftTable* Ec::table_of(const Element& b, bool by_point) const {
  const Bigint* enc = encoding_if_known(b);
  if (enc == nullptr && !by_point) return nullptr;
  // enc is null only for a decoded result, whose point is at hand.
  if (enc != nullptr ? *enc == g_.encoding() : ec::eq(native_of(b)->point(), ec::base_point()))
    return &g_table();
  MutexLock lock(cache_.mu);
  Pinned* hit = nullptr;
  if (enc != nullptr) {
    auto it = cache_.pinned.find(*enc);
    if (it != cache_.pinned.end()) hit = &it->second;
  } else {
    for (auto& [key, pinned] : cache_.pinned) {
      if (ec::eq(native_of(b)->point(), pinned.base)) {
        hit = &pinned;
        break;
      }
    }
  }
  if (hit == nullptr) return nullptr;
  if (!hit->table) hit->table = std::make_unique<const ec::ShiftTable>(hit->base);
  return hit->table.get();
}

ec::Term Ec::term(const Element& b, const Bigint& e, bool by_point) const {
  ec::Term t{table_of(b, by_point), {}, to_scalar(e)};
  if (t.table == nullptr) t.base = point(b);
  return t;
}

ec::Point Ec::pass(std::span<const Element> bases, std::span<const Bigint> exps) const {
  std::vector<ec::Term> terms;
  terms.reserve(bases.size());
  for (std::size_t i = 0; i < bases.size(); ++i) terms.push_back(term(bases[i], exps[i], false));
  return ec::multi_scalar_mul(terms);
}

Element Ec::pow_g(const Bigint& e) const {
  OpScope scope(*this);
  const ec::Term term{&g_table(), {}, to_scalar(e)};
  return element(ec::multi_scalar_mul(std::span<const ec::Term>(&term, 1)));
}

Element Ec::pow(const Element& b, const Bigint& e) const {
  OpScope scope(*this);
  const ec::Term t = term(b, e, false);
  return element(ec::multi_scalar_mul(std::span<const ec::Term>(&t, 1)));
}

void Ec::pin_base(const Element& b) const {
  // The key is b's encoding: read here, before the op scope, so a base still
  // unencoded is encoded once and charged by its own memo. The table waits
  // for the first operation that names b.
  const Bigint& key = b.encoding();
  if (key == g_.encoding()) return;  // g has its own table
  OpScope scope(*this);
  ec::Point base = point(b);
  MutexLock lock(cache_.mu);
  cache_.pinned.try_emplace(key, Pinned{base, nullptr});
}

Element Ec::pow_fixed(const Element& b, const Bigint& e) const {
  OpScope scope(*this);
  const ec::Term t = term(b, e, true);  // not pinned: a point term, no insertion
  return element(ec::multi_scalar_mul(std::span<const ec::Term>(&t, 1)));
}

Element Ec::mul(const Element& a, const Element& b) const {
  OpScope scope(*this);
  return element(ec::add(point(a), point(b)));
}

Element Ec::pow2(const Element& a, const Bigint& ea, const Element& b, const Bigint& eb) const {
  OpScope scope(*this);
  const std::array<ec::Term, 2> terms = {term(a, ea, false), term(b, eb, false)};
  return element(ec::multi_scalar_mul(terms));
}

Element Ec::multi_pow(std::span<const Element> bases, std::span<const Bigint> exps) const {
  OpScope scope(*this);
  return element(pass(bases, exps));
}

bool Ec::multi_pow_equals(std::span<const Element> bases, std::span<const Bigint> exps,
                          const Element& expect) const {
  OpScope scope(*this);
  std::optional<ec::Point> want;
  if (const ec::Native* native = native_of(expect)) {
    want = native->point();
  } else {
    want = try_unbox(expect);
    if (!want) return false;
  }
  return ec::eq(pass(bases, exps), *want);
}

Element Ec::inv(const Element& a) const {
  OpScope scope(*this);
  return element(ec::neg(point(a)));
}

std::size_t Ec::pinned_table_count() const {
  MutexLock lock(cache_.mu);
  return cache_.pinned.size();
}

Element Ec::encode_message(const Bigint& v) const {
  if (v.is_negative() || v.is_zero() || v > max_message_)
    throw std::invalid_argument("encode_message: value must be in [1, 2^232)");
  OpScope scope(*this);
  std::vector<std::uint8_t> payload_be = v.to_bytes_be(kPayloadBytes);
  ec::EncodedPoint s{};
  std::copy(payload_be.rbegin(), payload_be.rend(), s.begin() + 1);
  for (unsigned tweak = 0; tweak < kMaxTweak; ++tweak) {
    s[0] = static_cast<std::uint8_t>((tweak & 0x7f) << 1);
    s[30] = static_cast<std::uint8_t>(tweak >> 7);
    if (std::optional<ec::Point> pt = ec::decode(s))
      return decoded(std::make_shared<const ec::Native>(*pt, box(s)), kOwner);
  }
  throw std::runtime_error("encode_message: no decodable tweak (impossible)");
}

Bigint Ec::decode_message(const Element& elem) const {
  if (!in_group(elem)) throw std::invalid_argument("decode_message: not a group element");
  std::vector<std::uint8_t> be = elem.encoding().to_bytes_be(32);
  ec::EncodedPoint s;
  std::copy(be.rbegin(), be.rend(), s.begin());
  std::array<std::uint8_t, kPayloadBytes> payload_be;
  std::copy(std::make_reverse_iterator(s.begin() + 1 + kPayloadBytes),
            std::make_reverse_iterator(s.begin() + 1), payload_be.begin());
  Bigint v = Bigint::from_bytes_be(payload_be);
  if (v.is_zero())
    throw std::invalid_argument("decode_message: element does not embed a message");
  return v;
}

std::vector<std::uint8_t> Ec::element_bytes(const Bigint& x) const {
  // The RFC 9496 wire encoding: 32 little-endian bytes.
  std::vector<std::uint8_t> be = x.to_bytes_be(32);
  std::reverse(be.begin(), be.end());
  return be;
}

}  // namespace backend

}  // namespace dblind::group

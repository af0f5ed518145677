#include "group/params.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "group/backend_ec.hpp"
#include "group/backend_modp.hpp"
#include "mpz/modmath.hpp"
#include "mpz/prime.hpp"

namespace dblind::group {

namespace {

struct NamedParams {
  const char* p_hex;
  const char* q_hex;
};

// Safe primes generated offline (seeded search, 40 Miller-Rabin rounds each
// for both q and p = 2q+1). g = 4 = 2^2 is always a generator of the order-q
// QR subgroup for safe primes p > 5: its order divides q (it is a square) and
// is not 1, and q is prime.
constexpr const char* kP64 = "f60100fb3362b19f";
constexpr const char* kQ64 = "7b00807d99b158cf";
constexpr const char* kP128 = "fe223d80ef19da04fef96e1894377f43";
constexpr const char* kQ128 = "7f111ec0778ced027f7cb70c4a1bbfa1";
constexpr const char* kP256 =
    "fc7fb60b74845770ea35c5cacef5191b0634d65fb8cfbb233eb4908e654edd8f";
constexpr const char* kQ256 =
    "7e3fdb05ba422bb8751ae2e5677a8c8d831a6b2fdc67dd919f5a484732a76ec7";
constexpr const char* kP512 =
    "8c1776c575241cbbd7faeab6bbc168fa67a22e08ffb74a1d4d136e0a17d38fce"
    "69679bea9e59b2516d1a79a83d3ae604357dd72d91fc58738907e0e74c5d8d9b";
constexpr const char* kQ512 =
    "460bbb62ba920e5debfd755b5de0b47d33d117047fdba50ea689b7050be9c7e7"
    "34b3cdf54f2cd928b68d3cd41e9d73021abeeb96c8fe2c39c483f073a62ec6cd";
constexpr const char* kP1024 =
    "8f9ff3b2038cc62b8113e7b60aac50bad27a547410e1871571bcf4507769c29f"
    "d844a9a29ea27db7e1c4c8817f1489523d17ad3ad87ad118fda5e985fb9ab870"
    "34b9dd43cee164ac472eb7ae79adaa938449e23af721ade9dbe094a0e9a391f4"
    "a2dab487b3dda116dfa24e4dcbfb01917ce42d4fd0e3413f3a37e518a2ecf98f";
constexpr const char* kQ1024 =
    "47cff9d901c66315c089f3db0556285d693d2a3a0870c38ab8de7a283bb4e14f"
    "ec2254d14f513edbf0e26440bf8a44a91e8bd69d6c3d688c7ed2f4c2fdcd5c38"
    "1a5ceea1e770b25623975bd73cd6d549c224f11d7b90d6f4edf04a5074d1c8fa"
    "516d5a43d9eed08b6fd12726e5fd80c8be7216a7e871a09f9d1bf28c51767cc7";
constexpr const char* kP2048 =
    "ae381ceab68e499cf4ff91a77d5dfddf73877eaa170e7eeff49464bfbf534fca"
    "271a831f95cc6d96ac3fdec39d0195f67f47a792834e7ee1cb685250842cac64"
    "81c449e465387cc526454f76923c92324d04266e6f74a53131b4da4977262e0a"
    "b3ec0adc639640deb071b7aa35a76fc612bd2cbe3e39e8b54f3379325d9852fe"
    "1cbecb0bee58212e662c959c0b02e4e66b2d544cae956d963203b6e9c866530d"
    "fbf51593e117a14a1ad5ae24c3564cd9cd9177a9d5bed66a687507d025db55a5"
    "10df8c4993aefb468933aed12a6e9aa6085e8103c9fd16c9503e63c52595b833"
    "10c8d928784e58b7c564b63c489cd9481f604336bd9b85017a1cea1d57ab189f";
constexpr const char* kQ2048 =
    "571c0e755b4724ce7a7fc8d3beaefeefb9c3bf550b873f77fa4a325fdfa9a7e5"
    "138d418fcae636cb561fef61ce80cafb3fa3d3c941a73f70e5b4292842165632"
    "40e224f2329c3e629322a7bb491e49192682133737ba529898da6d24bb931705"
    "59f6056e31cb206f5838dbd51ad3b7e3095e965f1f1cf45aa799bc992ecc297f"
    "0e5f6585f72c109733164ace058172733596aa26574ab6cb1901db74e4332986"
    "fdfa8ac9f08bd0a50d6ad71261ab266ce6c8bbd4eadf6b35343a83e812edaad2"
    "886fc624c9d77da34499d76895374d53042f4081e4fe8b64a81f31e292cadc19"
    "88646c943c272c5be2b25b1e244e6ca40fb0219b5ecdc280bd0e750eabd58c4f";

NamedParams lookup(ParamId id) {
  switch (id) {
    case ParamId::kToy64: return {kP64, kQ64};
    case ParamId::kTest128: return {kP128, kQ128};
    case ParamId::kTest256: return {kP256, kQ256};
    case ParamId::kSec512: return {kP512, kQ512};
    case ParamId::kSec1024: return {kP1024, kQ1024};
    case ParamId::kSec2048: return {kP2048, kQ2048};
    case ParamId::kEc255: break;  // handled by the caller
  }
  throw std::invalid_argument("GroupParams::named: unknown ParamId");
}

}  // namespace

namespace {

std::shared_ptr<const backend::Group> make_modp(Bigint p, Bigint q, Bigint g) {
  return std::make_shared<const backend::ModP>(std::move(p), std::move(q), std::move(g));
}

}  // namespace

GroupParams GroupParams::named(ParamId id) {
  if (id == ParamId::kEc255)
    return GroupParams(std::make_shared<const backend::Ec>());
  NamedParams np = lookup(id);
  return GroupParams(make_modp(Bigint::from_hex(np.p_hex), Bigint::from_hex(np.q_hex), Bigint(4)));
}

GroupParams GroupParams::named_or_env(ParamId id) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — read once at setup, never written
  const char* backend = std::getenv("DBLIND_BACKEND");
  if (backend != nullptr) {
    std::string_view v(backend);
    if (v == "ec" || v == "ec255") return named(ParamId::kEc255);
    if (!v.empty() && v != "modp")
      throw std::invalid_argument("DBLIND_BACKEND: expected 'ec', 'ec255' or 'modp'");
  }
  return named(id);
}

GroupParams GroupParams::generate(std::size_t bits, mpz::Prng& prng) {
  mpz::SafePrime sp = mpz::generate_safe_prime(bits, prng);
  return GroupParams(make_modp(std::move(sp.p), std::move(sp.q), Bigint(4)));
}

GroupParams GroupParams::from_values_trusted(Bigint p, Bigint q, Bigint g) {
  if (p != q.shl(1) + Bigint(1))
    throw std::invalid_argument("GroupParams: p != 2q + 1");
  if (g <= Bigint(1) || g >= p)
    throw std::invalid_argument("GroupParams: generator out of range");
  if (mpz::powmod(g, q, p) != Bigint(1))
    throw std::invalid_argument("GroupParams: g does not have order dividing q");
  return GroupParams(make_modp(std::move(p), std::move(q), std::move(g)));
}

GroupParams GroupParams::from_values(Bigint p, Bigint q, Bigint g, mpz::Prng& prng) {
  if (p != q.shl(1) + Bigint(1))
    throw std::invalid_argument("GroupParams: p != 2q + 1");
  if (!mpz::is_probable_prime(q, prng) || !mpz::is_probable_prime(p, prng))
    throw std::invalid_argument("GroupParams: p or q not prime");
  if (g <= Bigint(1) || g >= p)
    throw std::invalid_argument("GroupParams: generator out of range");
  if (mpz::powmod(g, q, p) != Bigint(1))
    throw std::invalid_argument("GroupParams: g does not have order dividing q");
  return GroupParams(make_modp(std::move(p), std::move(q), std::move(g)));
}

Element GroupParams::encode_bytes(std::span<const std::uint8_t> bytes) const {
  // Prefix a 0x01 sentinel byte at the most-significant end so that leading
  // zero bytes of the payload survive the integer round trip.
  std::vector<std::uint8_t> framed(bytes.size() + 1);
  framed[0] = 0x01;
  std::copy(bytes.begin(), bytes.end(), framed.begin() + 1);
  Bigint v = Bigint::from_bytes_be(framed);
  if (v > max_message_value())
    throw std::invalid_argument("encode_bytes: payload too large for group");
  return encode_message(v);
}

std::vector<std::uint8_t> GroupParams::decode_bytes(const Element& elem) const {
  Bigint v = decode_message(elem);
  std::vector<std::uint8_t> framed = v.to_bytes_be();
  if (framed.empty() || framed[0] != 0x01)
    throw std::invalid_argument("decode_bytes: missing sentinel");
  return {framed.begin() + 1, framed.end()};
}

Element read_element(common::Reader& r) {
  Bigint v = r.bigint();
  if (r.group() == nullptr) return Element(std::move(v));
  std::optional<Element> e = r.group()->decode(std::move(v));
  if (!e) throw common::CodecError("element: not a canonical group element encoding");
  return *std::move(e);
}

}  // namespace dblind::group

// The wire codec: one generic writer and reader for every wire type.
//
// Self-verifying messages (§4.2.3) are signed over, hashed over and nested
// inside one another as evidence, so each wire type has exactly one byte
// form. That form is stated once, by the type itself: a wire struct is an
// aggregate whose members, in declaration order, are its wire fields, and
// each member is written by its type —
//
//   std::uint8_t / uint32_t / uint64_t   fixed-width little-endian
//   mpz::Bigint                          a scalar: sign byte, length-prefixed
//                                        big-endian magnitude
//   group::Element                       its canonical encoding, as a Bigint
//   std::array<std::uint8_t, 32>         a digest, raw
//   std::vector<std::uint8_t>            a length-prefixed byte string
//   std::vector / std::set / std::map    a u32 count, then the elements (a
//                                        map's elements are key-value pairs)
//   std::pair, any other aggregate       its members, in order
//
// So a wire struct holds no data member but its wire fields (at most six),
// and adding a member adds it to the wire (tests/core/wire_table.hpp pins
// every type's bytes).
//
// Reading is strict, and each value has one byte form: a Bigint's magnitude
// is minimal, and set and map keys are strictly ascending. Elements go
// through read_element, so a Reader that carries the group rejects a
// non-member before any exponentiation. Every count is checked against the
// smallest accepted encoding of its element type (min_encoded_bytes) before
// anything is reserved, so one input byte can reserve at most
// sizeof(T) / min_encoded_bytes<T>() bytes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/codec.hpp"
#include "group/element.hpp"
#include "group/params.hpp"
#include "mpz/bigint.hpp"

namespace dblind::group {

namespace wire {

using Digest = std::array<std::uint8_t, 32>;

// Converts to any member type, so `T{AnyMember{} x N}` compiles iff the
// aggregate T has at least N members. Only named in unevaluated operands.
struct AnyMember {
  template <typename M>
  operator M() const;  // NOLINT(google-explicit-constructor)
};

template <typename T, std::size_t... I>
constexpr bool has_members(std::index_sequence<I...> /*unused*/) {
  return requires { T{(static_cast<void>(I), AnyMember{})...}; };
}

template <typename T, std::size_t N = 0>
constexpr std::size_t member_count() {
  if constexpr (has_members<T>(std::make_index_sequence<N + 1>{})) {
    return member_count<T, N + 1>();
  } else {
    return N;
  }
}

// The members of aggregate `v`, in declaration order, as a tuple of
// references.
template <typename T>
constexpr auto members(T& v) {
  constexpr std::size_t n = member_count<std::remove_const_t<T>>();
  static_assert(n >= 1 && n <= 6, "wire structs have 1 to 6 members");
  if constexpr (n == 1) {
    auto& [a] = v;
    return std::tie(a);
  } else if constexpr (n == 2) {
    auto& [a, b] = v;
    return std::tie(a, b);
  } else if constexpr (n == 3) {
    auto& [a, b, c] = v;
    return std::tie(a, b, c);
  } else if constexpr (n == 4) {
    auto& [a, b, c, d] = v;
    return std::tie(a, b, c, d);
  } else if constexpr (n == 5) {
    auto& [a, b, c, d, e] = v;
    return std::tie(a, b, c, d, e);
  } else {
    auto& [a, b, c, d, e, f] = v;
    return std::tie(a, b, c, d, e, f);
  }
}

template <typename T>
using MemberTuple = decltype(members(std::declval<T&>()));

// Counted containers: the element type a reader parses, and how it inserts.
// A set's or map's keys arrive strictly ascending, as a writer iterates
// them: a repeated or out-of-order key would be a second byte form.
template <typename T>
struct Counted : std::false_type {};
template <typename E, typename A>
struct Counted<std::vector<E, A>> : std::true_type {
  using Elem = E;
  static void add(std::vector<E, A>& out, E&& e) { out.push_back(std::move(e)); }
};
template <typename K, typename C, typename A>
struct Counted<std::set<K, C, A>> : std::true_type {
  using Elem = K;
  static void add(std::set<K, C, A>& out, K&& k) {
    if (!out.empty() && !out.key_comp()(*out.rbegin(), k))
      throw common::CodecError("set: keys not strictly ascending");
    out.insert(out.end(), std::move(k));
  }
};
template <typename K, typename V, typename C, typename A>
struct Counted<std::map<K, V, C, A>> : std::true_type {
  using Elem = std::pair<K, V>;
  static void add(std::map<K, V, C, A>& out, std::pair<K, V>&& kv) {
    if (!out.empty() && !out.key_comp()(out.rbegin()->first, kv.first))
      throw common::CodecError("map: keys not strictly ascending");
    out.emplace_hint(out.end(), std::move(kv.first), std::move(kv.second));
  }
};

template <typename T>
struct IsPair : std::false_type {};
template <typename A, typename B>
struct IsPair<std::pair<A, B>> : std::true_type {};

template <typename T>
constexpr bool kBytes = std::is_same_v<T, std::vector<std::uint8_t>>;
template <typename T>
constexpr bool kScalar = std::is_same_v<T, mpz::Bigint> || std::is_same_v<T, Element>;

}  // namespace wire

// The size of the shortest encoding a reader accepts for a T: 6 for a
// Bigint or Element (sign byte, length, one magnitude byte), 4 for any count.
template <typename T>
constexpr std::size_t min_encoded_bytes() {
  if constexpr (std::is_same_v<T, std::uint8_t> || std::is_same_v<T, std::uint32_t> ||
                std::is_same_v<T, std::uint64_t> || std::is_same_v<T, wire::Digest>) {
    return sizeof(T);
  } else if constexpr (wire::kScalar<T>) {
    return 6;
  } else if constexpr (wire::kBytes<T> || wire::Counted<T>::value) {
    return 4;
  } else if constexpr (wire::IsPair<T>::value) {
    return min_encoded_bytes<typename T::first_type>() +
           min_encoded_bytes<typename T::second_type>();
  } else {
    using Tuple = wire::MemberTuple<T>;
    return []<std::size_t... I>(std::index_sequence<I...>) {
      return (min_encoded_bytes<std::remove_cvref_t<std::tuple_element_t<I, Tuple>>>() + ...);
    }(std::make_index_sequence<std::tuple_size_v<Tuple>>{});
  }
}

template <typename T>
void write(common::Writer& w, const T& v) {
  if constexpr (std::is_same_v<T, std::uint8_t>) {
    w.u8(v);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    w.u32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.u64(v);
  } else if constexpr (std::is_same_v<T, wire::Digest>) {
    w.digest(v);
  } else if constexpr (wire::kScalar<T>) {
    w.bigint(v);
  } else if constexpr (wire::kBytes<T>) {
    w.bytes(v);
  } else if constexpr (wire::Counted<T>::value) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) write(w, e);
  } else if constexpr (wire::IsPair<T>::value) {
    write(w, v.first);
    write(w, v.second);
  } else {
    static_assert(std::is_aggregate_v<T>, "not a wire type");
    std::apply([&w](const auto&... m) { (write(w, m), ...); }, wire::members(v));
  }
}

template <typename T>
[[nodiscard]] T read(common::Reader& r) {
  if constexpr (std::is_same_v<T, std::uint8_t>) {
    return r.u8();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    return r.u32();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    return r.u64();
  } else if constexpr (std::is_same_v<T, wire::Digest>) {
    return r.digest();
  } else if constexpr (std::is_same_v<T, mpz::Bigint>) {
    return r.bigint();
  } else if constexpr (std::is_same_v<T, Element>) {
    return read_element(r);
  } else if constexpr (wire::kBytes<T>) {
    return r.bytes();
  } else if constexpr (wire::Counted<T>::value) {
    using Elem = typename wire::Counted<T>::Elem;
    const std::uint32_t n = r.count(min_encoded_bytes<Elem>());
    T out;
    if constexpr (requires { out.reserve(n); }) out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) wire::Counted<T>::add(out, read<Elem>(r));
    return out;
  } else if constexpr (wire::IsPair<T>::value) {
    // A braced list evaluates its elements in order (here and below).
    return T{read<typename T::first_type>(r), read<typename T::second_type>(r)};
  } else {
    static_assert(std::is_aggregate_v<T>, "not a wire type");
    // Each member is built in place, in declaration order.
    using Tuple = wire::MemberTuple<T>;
    return [&r]<std::size_t... I>(std::index_sequence<I...>) {
      return T{read<std::remove_cvref_t<std::tuple_element_t<I, Tuple>>>(r)...};
    }(std::make_index_sequence<std::tuple_size_v<Tuple>>{});
  }
}

// The encoding of `value`, on its own.
template <typename T>
[[nodiscard]] std::vector<std::uint8_t> to_bytes(const T& value) {
  common::Writer w;
  write(w, value);
  return w.take();
}

// The encoding of `value` behind a one-byte type tag.
template <typename T>
[[nodiscard]] std::vector<std::uint8_t> to_bytes(std::uint8_t tag, const T& value) {
  common::Writer w;
  w.u8(tag);
  write(w, value);
  return w.take();
}

// Parses a whole byte string as one T, decoding element fields in `group`
// when it is given; throws common::CodecError on malformed input or trailing
// bytes.
template <typename T>
[[nodiscard]] T from_bytes(std::span<const std::uint8_t> bytes,
                           const GroupParams* group = nullptr) {
  common::Reader r(bytes, group);
  T value = read<T>(r);
  r.expect_done();
  return value;
}

// The same, behind the one-byte type tag `tag`.
template <typename T>
[[nodiscard]] T from_bytes(std::uint8_t tag, std::span<const std::uint8_t> bytes,
                           const GroupParams* group = nullptr) {
  common::Reader r(bytes, group);
  if (r.u8() != tag) throw common::CodecError("unexpected type tag");
  T value = read<T>(r);
  r.expect_done();
  return value;
}

}  // namespace dblind::group

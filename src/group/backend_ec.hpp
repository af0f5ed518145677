// ristretto255 backend: prime-order EC group with 32-byte canonical
// encodings behind the backend::Group interface.
//
// Element convention: an element's encoding is its RFC 9496 32-byte string
// interpreted as a little-endian integer (so element_bytes() emits exactly
// the RFC encoding, and the identity encodes as Bigint 0 — the all-zero
// string); a decoded element also carries its extended point (ec::Native).
// Operations read that point directly, decode only bare inputs (an inverse
// square root each), and return their result as a point whose encoding is
// computed on first read, if ever. Scalars are ordinary Bigints mod the
// group order ell = 2^252 + 27742317777372353535851937790883648493.
//
// Op accounting: every group operation snapshots the thread-local field-mul
// counter (mpz::fe_mul_count()) around its body and flushes the delta into
// one shared atomic cell, mirroring MontgomeryCtx::mul_count() —
// deterministic, and attributable per protocol phase via
// obs::ScopedCounterDelta. A result's deferred encode is flushed the same way
// into the cell of the backend that made the result: the cell is shared by
// that backend and its results, since a result can outlive its backend. So
// every field multiplication is charged exactly once, wherever it runs, and
// no encode may run inside an operation's own scope.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/sync.hpp"
#include "group/backend.hpp"
#include "group/ristretto.hpp"

namespace dblind::group::ec {

// The native form of a decoded ec255 element, shared by all its copies: the
// point and the canonical encoding in one allocation. A decoded wire value or
// a constant comes with its encoding; an operation's result computes it on
// the first read of any copy, from any thread, exactly once, and charges the
// field multiplications to `cell`.
class Native {
 public:
  using Cell = std::shared_ptr<std::atomic<std::uint64_t>>;

  // A point whose encoding is known.
  Native(const Point& point, mpz::Bigint encoding)
      : point_(point), known_(true), encoding_(std::move(encoding)) {}
  // An operation result: encoded on first read, charged to `cell`.
  Native(const Point& point, Cell cell) : point_(point), cell_(std::move(cell)) {}

  [[nodiscard]] const Point& point() const { return point_; }
  [[nodiscard]] const mpz::Bigint& encoding() const;
  // The encoding if something has computed it; never computes one.
  [[nodiscard]] const mpz::Bigint* encoding_if_known() const {
    return known_.load(std::memory_order_acquire) ? &encoding_ : nullptr;
  }

 private:
  Point point_;
  Cell cell_;  // null when the encoding was known at construction
  mutable std::once_flag once_;
  mutable std::atomic<bool> known_{false};
  mutable mpz::Bigint encoding_;  // written once, under once_
};

}  // namespace dblind::group::ec

namespace dblind::group::backend {

class Ec final : public Group {
 public:
  Ec();

  [[nodiscard]] Kind kind() const override { return Kind::kEc255; }
  [[nodiscard]] std::string_view name() const override { return "ec255"; }
  [[nodiscard]] const Bigint& p() const override { return p_; }
  [[nodiscard]] const Bigint& q() const override { return q_; }
  [[nodiscard]] const Element& g() const override { return g_; }
  [[nodiscard]] std::size_t bits() const override { return 255; }

  [[nodiscard]] const Element& identity() const override { return identity_; }
  [[nodiscard]] bool in_group(const Element& x) const override;
  [[nodiscard]] std::optional<Element> decode(const Element& x) const override;

  [[nodiscard]] Element pow_g(const Bigint& e) const override;
  [[nodiscard]] Element pow(const Element& b, const Bigint& e) const override;
  void pin_base(const Element& b) const override;
  [[nodiscard]] Element pow_fixed(const Element& b, const Bigint& e) const override;
  [[nodiscard]] Element mul(const Element& a, const Element& b) const override;
  [[nodiscard]] Element pow2(const Element& a, const Bigint& ea, const Element& b,
                             const Bigint& eb) const override;
  [[nodiscard]] Element multi_pow(std::span<const Element> bases,
                                  std::span<const Bigint> exps) const override;
  [[nodiscard]] bool multi_pow_equals(std::span<const Element> bases,
                                      std::span<const Bigint> exps,
                                      const Element& expect) const override;
  [[nodiscard]] Element inv(const Element& a) const override;

  [[nodiscard]] std::size_t pinned_table_count() const override;

  [[nodiscard]] Element encode_message(const Bigint& v) const override;
  [[nodiscard]] Bigint decode_message(const Element& elem) const override;
  [[nodiscard]] const Bigint& max_message_value() const override { return max_message_; }

  [[nodiscard]] std::vector<std::uint8_t> element_bytes(const Bigint& x) const override;
  [[nodiscard]] std::size_t element_size() const override { return 32; }

  [[nodiscard]] std::uint64_t op_count() const override {
    return op_count_->load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::atomic<std::uint64_t>* op_cell() const override {
    return op_count_.get();
  }
  // One GF(2^255-19) multiplication on 5 radix-2^51 limbs is 25 word
  // multiplications (we count squarings at the same weight).
  [[nodiscard]] std::uint64_t op_cost_weight() const override { return 25; }

 private:
  // RAII: flush the thread-local fe-mul delta into op_count_ on scope exit.
  struct OpScope {
    explicit OpScope(const Ec& owner)
        : owner_(owner), start_(mpz::fe_mul_count()) {}
    ~OpScope() {
      owner_.op_count_->fetch_add(mpz::fe_mul_count() - start_,
                                  std::memory_order_relaxed);
    }
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;
    const Ec& owner_;
    std::uint64_t start_;
  };

  // Every Ec instance validates alike: the curve is fixed.
  static constexpr std::uint64_t kOwner = 1;

  // The point of x: its native form when decoded, else decoded from the
  // encoding (throws std::invalid_argument on anything that is not a
  // canonical encoding).
  [[nodiscard]] static ec::Point point(const Element& x);
  // The decoded element of `pt` with its known `encoding` (the constants g
  // and the identity, built without computing an encode).
  [[nodiscard]] static Element encoded_element(const ec::Point& pt, Bigint encoding);
  // An operation's result: `pt`, encoded on first read into op_count_.
  [[nodiscard]] Element element(const ec::Point& pt) const;
  [[nodiscard]] ec::ScalarBytes to_scalar(const Bigint& e) const;
  // x's encoding without computing one: null for a result whose encoding
  // nothing has read yet.
  [[nodiscard]] static const Bigint* encoding_if_known(const Element& x);
  // g's shift table, built by the first caller (inside its op scope).
  [[nodiscard]] const ec::ShiftTable& g_table() const;
  // The shift table of b when b is g or a pinned base, built when an
  // operation first names b (inside that operation's op scope); null for any
  // other base. b is looked up by its encoding, and never encoded here: a b
  // whose encoding nothing has read yet is compared with g and each pinned
  // base by point (ec::eq, at most 4M per candidate) when `by_point`, and
  // taken as unpinned otherwise.
  [[nodiscard]] const ec::ShiftTable* table_of(const Element& b, bool by_point) const;
  // The term e·b: b's table when b is g or pinned (see table_of), else its
  // point.
  [[nodiscard]] ec::Term term(const Element& b, const Bigint& e, bool by_point) const;
  // Σ exps[i]·bases[i] as a point: one pass over their terms.
  [[nodiscard]] ec::Point pass(std::span<const Element> bases,
                               std::span<const Bigint> exps) const;

  Bigint p_, q_, max_message_;
  ec::Native::Cell op_count_ = std::make_shared<std::atomic<std::uint64_t>>(0);
  Element g_, identity_;

  struct Pinned {
    ec::Point base;
    std::unique_ptr<const ec::ShiftTable> table;  // null until an operation names the base
  };
  struct TableCache {
    std::once_flag g_once;
    std::unique_ptr<const ec::ShiftTable> g_table;
    mutable Mutex mu;
    // Keyed by encoding. Entries are never erased, so a table outlives every
    // pass that reads it.
    mutable std::map<Bigint, Pinned> pinned GUARDED_BY(mu);
  };
  mutable TableCache cache_;
};

}  // namespace dblind::group::backend

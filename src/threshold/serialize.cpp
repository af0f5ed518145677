#include "threshold/serialize.hpp"

namespace dblind::threshold {

namespace {

constexpr std::uint8_t kShareTag = 0x31;
constexpr std::uint8_t kCommitmentsTag = 0x32;

}  // namespace

std::vector<std::uint8_t> share_to_bytes(const Share& s) {
  common::Writer w;
  w.u8(kShareTag);
  w.u32(s.index);
  w.bigint(s.value);
  return w.take();
}

Share share_from_bytes(std::span<const std::uint8_t> bytes) {
  common::Reader r(bytes);
  if (r.u8() != kShareTag) throw common::CodecError("share: bad tag");
  Share s;
  s.index = r.u32();
  s.value = r.bigint();
  r.expect_done();
  if (s.index == 0) throw common::CodecError("share: zero index");
  return s;
}

std::vector<std::uint8_t> commitments_to_bytes(const FeldmanCommitments& c) {
  common::Writer w;
  w.u8(kCommitmentsTag);
  w.u32(static_cast<std::uint32_t>(c.coefficients.size()));
  for (const group::Element& v : c.coefficients) w.bigint(v);
  return w.take();
}

FeldmanCommitments commitments_from_bytes(std::span<const std::uint8_t> bytes) {
  common::Reader r(bytes);
  if (r.u8() != kCommitmentsTag) throw common::CodecError("commitments: bad tag");
  std::uint32_t n = r.count();
  FeldmanCommitments c;
  c.coefficients.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) c.coefficients.push_back(r.bigint());
  r.expect_done();
  if (c.coefficients.empty()) throw common::CodecError("commitments: empty");
  return c;
}

}  // namespace dblind::threshold

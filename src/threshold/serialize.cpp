#include "threshold/serialize.hpp"

#include "group/codec.hpp"

namespace dblind::threshold {

namespace {

constexpr std::uint8_t kShareTag = 0x31;
constexpr std::uint8_t kCommitmentsTag = 0x32;

}  // namespace

std::vector<std::uint8_t> share_to_bytes(const Share& s) { return group::to_bytes(kShareTag, s); }

Share share_from_bytes(std::span<const std::uint8_t> bytes) {
  Share s = group::from_bytes<Share>(kShareTag, bytes);
  if (s.index == 0) throw common::CodecError("share: zero index");
  return s;
}

std::vector<std::uint8_t> commitments_to_bytes(const FeldmanCommitments& c) {
  return group::to_bytes(kCommitmentsTag, c);
}

FeldmanCommitments commitments_from_bytes(std::span<const std::uint8_t> bytes) {
  FeldmanCommitments c = group::from_bytes<FeldmanCommitments>(kCommitmentsTag, bytes);
  if (c.coefficients.empty()) throw common::CodecError("commitments: empty");
  return c;
}

}  // namespace dblind::threshold

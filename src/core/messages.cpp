#include "core/messages.hpp"

#include "zkp/transcript.hpp"

namespace dblind::core {

Frame frame_signed(const SignedMessage& env) {
  return group::to_bytes(static_cast<std::uint8_t>(WireKind::kServerSigned), env);
}

Frame frame_service(const ServiceSignedMsg& msg) {
  return group::to_bytes(static_cast<std::uint8_t>(WireKind::kServiceSigned), msg);
}

Frame frame_client(std::span<const std::uint8_t> body) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(WireKind::kClient));
  w.bytes(body);
  return w.take();
}

hash::Digest Contribution::commitment_digest() const {
  zkp::Transcript t("dblind/contribution-commit/v1");
  t.absorb_bytes(group::to_bytes(*this));
  return t.digest();
}

MsgType peek_type(std::span<const std::uint8_t> body) {
  if (body.empty()) throw CodecError("peek_type: empty body");
  return static_cast<MsgType>(body[0]);
}

}  // namespace dblind::core

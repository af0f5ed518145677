// The wire table: one populated instance of every wire type, with the bytes
// it encodes to.
//
// Rows cover every MsgType body (the struct encode_body/decode_as carry for
// that tag), the two envelopes, both signing-evidence blobs and the two
// fail-stop frames. Every member of every instance is non-default, and every
// value is a fixed bare one (no group operation makes it), so the bytes are
// the same on either backend. `hex` is the encoding pinned when the table
// was written; codec_test checks it, and DecoderFuzz feeds every row's parser.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/failstop.hpp"
#include "core/messages.hpp"
#include "group/codec.hpp"

namespace dblind::core::testing {

struct WireRow {
  std::string name;             // the struct the row encodes
  std::optional<MsgType> type;  // the tag, for a message body
  std::vector<std::uint8_t> bytes;
  // Parses `bytes` without a group and encodes the result again; throws
  // CodecError on malformed input.
  std::function<std::vector<std::uint8_t>(std::span<const std::uint8_t>)> reparse;
  std::string hex;  // the pinned encoding of the instance
};

namespace wire_rows {

inline mpz::Bigint B(const char* hex) { return mpz::Bigint::from_hex(hex); }

template <typename T>
WireRow body(std::string name, MsgType type, const T& msg, std::string hex) {
  return {std::move(name), type, encode_body(type, msg),
          [type](std::span<const std::uint8_t> b) {
            return encode_body(type, decode_as<T>(type, b));
          },
          std::move(hex)};
}

template <typename T>
WireRow value(std::string name, const T& v, std::string hex) {
  return {std::move(name), std::nullopt, group::to_bytes(v),
          [](std::span<const std::uint8_t> b) {
            return group::to_bytes(group::from_bytes<T>(b));
          },
          std::move(hex)};
}

// SignedMessage goes through its own encode/decode members.
inline WireRow envelope(const SignedMessage& env, std::string hex) {
  const auto encode = [](const SignedMessage& m) {
    Writer w;
    m.encode(w);
    return w.take();
  };
  return {"SignedMessage", std::nullopt, encode(env),
          [encode](std::span<const std::uint8_t> b) {
            Reader r(b);
            const SignedMessage m = SignedMessage::decode(r);
            r.expect_done();
            return encode(m);
          },
          std::move(hex)};
}

// A fail-stop frame: the FailstopType byte, then the message.
template <typename T>
WireRow failstop(std::string name, FailstopType type, const T& msg, std::string hex) {
  const auto frame = [type](const T& m) {
    std::vector<std::uint8_t> out{static_cast<std::uint8_t>(type)};
    const std::vector<std::uint8_t> rest = group::to_bytes(m);
    out.insert(out.end(), rest.begin(), rest.end());
    return out;
  };
  return {std::move(name), std::nullopt, frame(msg),
          [type, frame](std::span<const std::uint8_t> b) {
            if (b.empty() || b[0] != static_cast<std::uint8_t>(type))
              throw CodecError("failstop: bad frame type");
            return frame(group::from_bytes<T>(b.subspan(1)));
          },
          std::move(hex)};
}

}  // namespace wire_rows

inline std::vector<WireRow> wire_table() {
  using namespace wire_rows;
  const InstanceId id{0x0102030405060708, 3, 2};
  const zkp::SchnorrSignature sig{B("5151"), B("5252")};
  const SignedMessage env{1, 2, 3, {0xde, 0xad}, sig};
  const SignedMessage env2{1, 4, 3, {0xbe}, {B("6161"), B("6262")}};
  const ServiceSignedMsg svc{1, {0xfa, 0xce}, {B("7171"), B("7272")}};
  const elgamal::Ciphertext ct{B("a1a1"), B("a2a2")};
  const elgamal::Ciphertext ct2{B("b1b1"), B("b2b2")};
  const zkp::DlogEqProof pr1{B("c1c1"), B("c2c2"), B("c3c3")};
  const zkp::DlogEqProof pr2{B("c4c4"), B("c5c5"), B("c6c6")};
  const zkp::DlogEqProof pr3{B("c7c7"), B("c8c8"), B("c9c9")};
  const zkp::VdeProof vde{B("d1d1"), B("d2d2"), pr1, pr2, pr3};
  const threshold::DecryptionShare share{5, B("e1e1"), pr1};
  hash::Digest digest{};
  digest.fill(0x33);
  const threshold::NonceCommitment commit{6, digest};
  const threshold::NonceReveal reveal{6, B("f1f1")};
  const threshold::FeldmanCommitments feldman{{B("1111"), B("2222")}};
  const ReconfigSpec spec{1, 7, 4, 1, {{9, B("9999")}, {10, B("aaaa")}}};

  return {
      body("InitMsg", MsgType::kInit, InitMsg{id}, "0108070605040302010300000002000000"),
      body("CommitMsg", MsgType::kCommit, CommitMsg{id, 4, digest},
           "02080706050403020103000000020000000400000033333333333333333333333333333333333333333333"
           "33333333333333333333"),
      body("RevealMsg", MsgType::kReveal, RevealMsg{id, {env, env2}},
           "03080706050403020103000000020000000200000001020000000300000002000000dead00020000005151"
           "0002000000525201040000000300000001000000be0002000000616100020000006262"),
      body("ContributeMsg", MsgType::kContribute,
           ContributeMsg{id, 4, env, Contribution{ct, ct2}, vde},
           "04080706050403020103000000020000000400000001020000000300000002000000dead00020000005151"
           "000200000052520002000000a1a10002000000a2a20002000000b1b10002000000b2b20002000000d1d100"
           "02000000d2d20002000000c1c10002000000c2c20002000000c3c30002000000c4c40002000000c5c50002"
           "000000c6c60002000000c7c70002000000c8c80002000000c9c9"),
      body("BlindPayload", MsgType::kBlind, BlindPayload{id, Contribution{ct, ct2}},
           "05080706050403020103000000020000000002000000a1a10002000000a2a20002000000b1b10002000000"
           "b2b2"),
      body("DonePayload", MsgType::kDone, DonePayload{id, ct, ct2},
           "06080706050403020103000000020000000002000000a1a10002000000a2a20002000000b1b10002000000"
           "b2b2"),
      body("SignRequestMsg", MsgType::kSignRequest,
           SignRequestMsg{0x1122334455667788, 2, {0x01, 0x02}, {0x03}},
           "078877665544332211020200000001020100000003"),
      body("SignCommitReplyMsg", MsgType::kSignCommitReply, SignCommitReplyMsg{8, commit},
           "08080000000000000006000000333333333333333333333333333333333333333333333333333333333333"
           "3333"),
      body("SignQuorumMsg", MsgType::kSignQuorum, SignQuorumMsg{8, {commit, commit}},
           "09080000000000000002000000060000003333333333333333333333333333333333333333333333333333"
           "333333333333060000003333333333333333333333333333333333333333333333333333333333333333"),
      body("SignRevealReplyMsg", MsgType::kSignRevealReply, SignRevealReplyMsg{8, reveal},
           "0a0800000000000000060000000002000000f1f1"),
      body("SignRevealSetMsg", MsgType::kSignRevealSet, SignRevealSetMsg{8, {reveal}},
           "0b080000000000000001000000060000000002000000f1f1"),
      body("SignPartialReplyMsg", MsgType::kSignPartialReply,
           SignPartialReplyMsg{8, {6, B("f2f2")}}, "0c0800000000000000060000000002000000f2f2"),
      body("DecryptRequestMsg", MsgType::kDecryptRequest, DecryptRequestMsg{id, svc},
           "0d080706050403020103000000020000000102000000face0002000000717100020000007272"),
      body("DecryptShareReplyMsg", MsgType::kDecryptShareReply,
           DecryptShareReplyMsg{id, share},
           "0e08070605040302010300000002000000050000000002000000e1e10002000000c1c10002000000c2c200"
           "02000000c3c3"),
      body("TransferRequestMsg", MsgType::kTransferRequest, TransferRequestMsg{11, ct},
           "0f0b000000000000000002000000a1a10002000000a2a2"),
      body("ResultRequestMsg", MsgType::kResultRequest, ResultRequestMsg{11}, "100b00000000000000"),
      body("ResultReplyMsg", MsgType::kResultReply, ResultReplyMsg{11, svc},
           "110b000000000000000102000000face0002000000717100020000007272"),
      body("ClientDecryptRequestMsg", MsgType::kClientDecryptRequest,
           ClientDecryptRequestMsg{11, ct}, "120b000000000000000002000000a1a10002000000a2a2"),
      body("ClientDecryptReplyMsg", MsgType::kClientDecryptReply,
           ClientDecryptReplyMsg{11, share},
           "130b00000000000000050000000002000000e1e10002000000c1c10002000000c2c20002000000c3c3"),
      body("ReconfigStartMsg", MsgType::kReconfigStart, ReconfigStartMsg{spec},
           "14010700000004000000010000000200000009000000000200000099990a0000000002000000aaaa"),
      body("ReshareDealMsg", MsgType::kReshareDeal,
           ReshareDealMsg{1, 7, 2, feldman, {{B("3333")}}},
           "150107000000020000000200000000020000001111000200000022220100000000020000003333"),
      body("ReshareSubshareMsg", MsgType::kReshareSubshare,
           ReshareSubshareMsg{1, 7, 2, 3, B("deadbeef"), B("-cafe")},
           "16010700000002000000030000000004000000deadbeef0102000000cafe"),
      body("ReconfigApplyMsg", MsgType::kReconfigApply,
           ReconfigApplyMsg{spec, {env}, {12, 13}},
           "17010700000004000000010000000200000009000000000200000099990a0000000002000000aaaa010000"
           "0001020000000300000002000000dead0002000000515100020000005252020000000c000000000000000d"
           "00000000000000"),
      body("ReconfigEchoMsg", MsgType::kReconfigEcho, ReconfigEchoMsg{1, 7, digest},
           "1801070000003333333333333333333333333333333333333333333333333333333333333333"),
      body("WrongEpochMsg", MsgType::kWrongEpoch, WrongEpochMsg{1, 7}, "190107000000"),
      body("ReconfigPullMsg", MsgType::kReconfigPull, ReconfigPullMsg{7}, "1a07000000"),
      body("ReconfigStateMsg", MsgType::kReconfigState, ReconfigStateMsg{env, {env2}},
           "1b01020000000300000002000000dead000200000051510002000000525201000000010400000003000000"
           "01000000be0002000000616100020000006262"),
      body("SubsharePullMsg", MsgType::kSubsharePull, SubsharePullMsg{1, 7, 3},
           "1c010700000003000000"),
      envelope(env, "01020000000300000002000000dead0002000000515100020000005252"),
      value("ServiceSignedMsg", svc, "0102000000face0002000000717100020000007272"),
      value("BlindEvidence", BlindEvidence{{env, env2}},
            "0200000001020000000300000002000000dead0002000000515100020000005252010400000003000000"
            "01000000be0002000000616100020000006262"),
      value("DoneEvidence", DoneEvidence{svc, B("abab"), {share}},
            "0102000000face00020000007171000200000072720002000000abab01000000050000000002000000e1"
            "e10002000000c1c10002000000c2c20002000000c3c3"),
      failstop("FailstopInit", FailstopType::kInit, FailstopInit{3}, "0103000000"),
      failstop("FailstopContribute", FailstopType::kContribute,
               FailstopContribute{3, 4, Contribution{ct, ct2}},
               "0203000000040000000002000000a1a10002000000a2a20002000000b1b10002000000b2b2"),
  };
}

}  // namespace dblind::core::testing

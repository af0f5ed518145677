// Protocol messages (paper Figure 4) and threshold sub-protocol messages.
//
// Top-level wire format: one byte WireKind, then either
//   - a SignedMessage ⟨m⟩_i — a server-signed envelope whose body is a
//     type-tagged message (all intra-service traffic), or
//   - a ServiceSignedMsg ⟨m⟩_S — a threshold-signed payload (the cross-
//     service `blind` and `done` messages, verifiable with only the service
//     public key).
//
// Bodies carry their MsgType tag as the first byte so that a signature binds
// the message kind, and evidence (nested SignedMessages) can be re-verified
// recursively per the validity rules of Figure 5.
//
// Element fields (ciphertext components, proof commitments, signature
// commitments, decryption shares, Feldman coefficients, nonce reveals) are
// read with group::read_element: a Reader that carries the group decodes and
// validates each one as it parses, so protocol code parses with the group
// (decode_as with params) and a non-element is a CodecError before any
// exponentiation; a group-less parse leaves them bare.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "elgamal/elgamal.hpp"
#include "hash/sha256.hpp"
#include "threshold/feldman.hpp"
#include "threshold/thresh_decrypt.hpp"
#include "threshold/thresh_sign.hpp"
#include "zkp/schnorr.hpp"
#include "zkp/vde.hpp"

namespace dblind::core {

enum class MsgType : std::uint8_t {
  // Distributed blinding protocol (Fig. 4 steps 1-4).
  kInit = 1,
  kCommit = 2,
  kReveal = 3,
  kContribute = 4,
  // Cross-service payloads (threshold-signed; Fig. 4 steps 5(d), 6(e)).
  kBlind = 5,
  kDone = 6,
  // Threshold-signature sub-protocol (steps 5(c), 6(d)).
  kSignRequest = 7,
  kSignCommitReply = 8,
  kSignQuorum = 9,
  kSignRevealReply = 10,
  kSignRevealSet = 11,
  kSignPartialReply = 12,
  // Threshold-decryption sub-protocol (step 6(b)).
  kDecryptRequest = 13,
  kDecryptShareReply = 14,
  // Client-facing messages (library extension; see core/client.hpp).
  kTransferRequest = 15,   // client -> A and B: store E_A(m) / register id
  kResultRequest = 16,     // client -> B server: fetch the done message
  kResultReply = 17,       // B server -> client: the service-signed done
  kClientDecryptRequest = 18,  // client -> B servers: decryption shares please
  kClientDecryptReply = 19,    // B server -> client: share + proof
  // Epochal reconfiguration (membership/threshold change; see
  // core/reconfig.hpp and docs/PROTOCOL.md "Reconfiguration").
  kReconfigStart = 20,    // coordinator -> old roster: re-share for this spec
  kReshareDeal = 21,      // dealer -> coordinators: COMMITMENTS only (public)
  kReshareSubshare = 22,  // dealer -> one new-roster server: its sub-shares
  kReconfigApply = 23,    // coordinator -> everyone: spec + f+1 deal envelopes
  kReconfigEcho = 24,     // old-roster server -> everyone: echo of apply digest
  kWrongEpoch = 25,       // receiver -> stale sender: my epoch is newer
  kReconfigPull = 26,     // lagging node -> peers: send installs after epoch e
  kReconfigState = 27,    // reply: one epoch's apply + 2f+1 echo certificate
  kSubsharePull = 28,     // new-roster server -> dealer: resend my sub-shares
};

enum class WireKind : std::uint8_t {
  kServerSigned = 1,
  kServiceSigned = 2,
  // Unauthenticated client traffic. Clients are outside the services' key
  // universe (the paper's architecture intentionally hides server keys from
  // them); everything a client RECEIVES is verifiable (service signatures,
  // share proofs), and everything it SENDS is either public (a ciphertext to
  // store) or gated by content checks at the servers.
  kClient = 3,
};

// --- low-level codec helpers -------------------------------------------------

void put_ciphertext(Writer& w, const elgamal::Ciphertext& c);
elgamal::Ciphertext get_ciphertext(Reader& r);
void put_schnorr_sig(Writer& w, const zkp::SchnorrSignature& s);
zkp::SchnorrSignature get_schnorr_sig(Reader& r);
void put_dlog_proof(Writer& w, const zkp::DlogEqProof& p);
zkp::DlogEqProof get_dlog_proof(Reader& r);
void put_vde_proof(Writer& w, const zkp::VdeProof& p);
zkp::VdeProof get_vde_proof(Reader& r);
void put_decryption_share(Writer& w, const threshold::DecryptionShare& s);
threshold::DecryptionShare get_decryption_share(Reader& r);
void put_feldman(Writer& w, const threshold::FeldmanCommitments& c);
threshold::FeldmanCommitments get_feldman(Reader& r);

// --- envelopes ---------------------------------------------------------------

// ⟨m⟩_i: body signed by an individual server key. The signature covers the
// 4-byte little-endian `cfg_epoch` followed by `body` (always — epoch 0
// included), so an envelope cannot be re-stamped into another configuration
// without breaking its signature.
struct SignedMessage {
  std::uint8_t service = 0;  // ServiceRole of the signer
  ServerRank signer = 0;
  ConfigEpoch cfg_epoch = 0;  // signer's config epoch at send time
  std::vector<std::uint8_t> body;  // type-tagged message bytes
  zkp::SchnorrSignature sig;

  void encode(Writer& w) const;
  static SignedMessage decode(Reader& r);
  friend bool operator==(const SignedMessage&, const SignedMessage&) = default;
};

// ⟨m⟩_S: body carrying a threshold (service) signature.
struct ServiceSignedMsg {
  std::uint8_t service = 0;  // ServiceRole of the signing service
  std::vector<std::uint8_t> body;
  zkp::SchnorrSignature sig;

  void encode(Writer& w) const;
  static ServiceSignedMsg decode(Reader& r);
  friend bool operator==(const ServiceSignedMsg&, const ServiceSignedMsg&) = default;
};

// --- wire framing ------------------------------------------------------------

// One wire frame: the WireKind byte, then the content. Cached frames are
// what duplicates and retransmissions re-send, byte for byte.
using Frame = std::vector<std::uint8_t>;

[[nodiscard]] Frame frame_signed(const SignedMessage& env);
[[nodiscard]] Frame frame_service(const ServiceSignedMsg& msg);
[[nodiscard]] Frame frame_client(std::span<const std::uint8_t> body);

// --- blinding-protocol messages ----------------------------------------------

struct InitMsg {
  InstanceId id;

  void encode(Writer& w) const;
  static InitMsg decode(Reader& r);
};

struct CommitMsg {
  InstanceId id;
  ServerRank server = 0;
  hash::Digest commitment{};  // κ(E_A(ρ_i), E_B(ρ_i))

  void encode(Writer& w) const;
  static CommitMsg decode(Reader& r);
};

struct RevealMsg {
  InstanceId id;
  std::vector<SignedMessage> commits;  // M: 2f+1 valid commit messages

  void encode(Writer& w) const;
  static RevealMsg decode(Reader& r);
};

// An encrypted contribution (E_A(ρ_i), E_B(ρ_i)).
struct Contribution {
  elgamal::Ciphertext ea;
  elgamal::Ciphertext eb;

  void encode(Writer& w) const;
  static Contribution decode(Reader& r);
  // κ(E_A(ρ_i), E_B(ρ_i)) — the hash commitment of step 2(b).
  [[nodiscard]] hash::Digest commitment_digest() const;
  friend bool operator==(const Contribution&, const Contribution&) = default;
};

struct ContributeMsg {
  InstanceId id;
  ServerRank server = 0;
  SignedMessage reveal;  // R: the reveal message this responds to (evidence)
  Contribution contribution;
  zkp::VdeProof vde;

  void encode(Writer& w) const;
  static ContributeMsg decode(Reader& r);
};

// (id, blind, A, E_A(ρ), B, E_B(ρ)) — the payload that service B
// threshold-signs in step 5(c).
struct BlindPayload {
  InstanceId id;
  Contribution blinded;  // the combined (E_A(ρ), E_B(ρ))

  void encode(Writer& w) const;
  static BlindPayload decode(Reader& r);
};

// (id, done, A, E_A(m), B, E_B(m)) — payload threshold-signed by A in 6(d).
struct DonePayload {
  InstanceId id;
  elgamal::Ciphertext ea_m;
  elgamal::Ciphertext eb_m;

  void encode(Writer& w) const;
  static DonePayload decode(Reader& r);
};

// --- threshold-signature sub-protocol ----------------------------------------

enum class SignPurpose : std::uint8_t {
  kBlind = 1,  // service B signs a BlindPayload
  kDone = 2,   // service A signs a DonePayload
};

// Evidence making a kBlind signing request self-verifying: f+1 valid
// contribute messages (each embeds the reveal, which embeds the commits).
struct BlindEvidence {
  std::vector<SignedMessage> contributes;

  void encode(Writer& w) const;
  static BlindEvidence decode(Reader& r);
};

// Evidence making a kDone signing request self-verifying: the service-signed
// blind message, the blinded plaintext mρ, and the decryption shares V^id_mρ
// proving mρ is the correct decryption of E_A(mρ).
struct DoneEvidence {
  ServiceSignedMsg blind;
  group::Element m_rho;
  std::vector<threshold::DecryptionShare> shares;

  void encode(Writer& w) const;
  static DoneEvidence decode(Reader& r);
};

struct SignRequestMsg {
  std::uint64_t session = 0;  // unique per (requester, attempt)
  std::uint8_t purpose = 0;   // SignPurpose
  std::vector<std::uint8_t> payload;   // the bytes to be threshold-signed
  std::vector<std::uint8_t> evidence;  // BlindEvidence or DoneEvidence bytes

  void encode(Writer& w) const;
  static SignRequestMsg decode(Reader& r);
};

struct SignCommitReplyMsg {
  std::uint64_t session = 0;
  threshold::NonceCommitment commit;

  void encode(Writer& w) const;
  static SignCommitReplyMsg decode(Reader& r);
};

struct SignQuorumMsg {
  std::uint64_t session = 0;
  std::vector<threshold::NonceCommitment> quorum;

  void encode(Writer& w) const;
  static SignQuorumMsg decode(Reader& r);
};

struct SignRevealReplyMsg {
  std::uint64_t session = 0;
  threshold::NonceReveal reveal;

  void encode(Writer& w) const;
  static SignRevealReplyMsg decode(Reader& r);
};

struct SignRevealSetMsg {
  std::uint64_t session = 0;
  std::vector<threshold::NonceReveal> reveals;

  void encode(Writer& w) const;
  static SignRevealSetMsg decode(Reader& r);
};

struct SignPartialReplyMsg {
  std::uint64_t session = 0;
  threshold::PartialSignature partial;

  void encode(Writer& w) const;
  static SignPartialReplyMsg decode(Reader& r);
};

// --- threshold-decryption sub-protocol ---------------------------------------

struct DecryptRequestMsg {
  InstanceId id;
  ServiceSignedMsg blind;  // M'': evidence that this decryption is justified

  void encode(Writer& w) const;
  static DecryptRequestMsg decode(Reader& r);
};

struct DecryptShareReplyMsg {
  InstanceId id;
  threshold::DecryptionShare share;

  void encode(Writer& w) const;
  static DecryptShareReplyMsg decode(Reader& r);
};

// --- client-facing messages ----------------------------------------------------

struct TransferRequestMsg {
  TransferId transfer = 0;
  elgamal::Ciphertext ea_m;  // used by A servers; B servers only register

  void encode(Writer& w) const;
  static TransferRequestMsg decode(Reader& r);
};

struct ResultRequestMsg {
  TransferId transfer = 0;

  void encode(Writer& w) const;
  static ResultRequestMsg decode(Reader& r);
};

struct ResultReplyMsg {
  TransferId transfer = 0;
  ServiceSignedMsg done;  // verifiable with the service public key alone

  void encode(Writer& w) const;
  static ResultReplyMsg decode(Reader& r);
};

struct ClientDecryptRequestMsg {
  TransferId transfer = 0;
  elgamal::Ciphertext ciphertext;  // must match a valid done for `transfer`

  void encode(Writer& w) const;
  static ClientDecryptRequestMsg decode(Reader& r);
};

struct ClientDecryptReplyMsg {
  TransferId transfer = 0;
  threshold::DecryptionShare share;

  void encode(Writer& w) const;
  static ClientDecryptReplyMsg decode(Reader& r);
};

// --- reconfiguration messages ---------------------------------------------------

// One new-roster slot: which transport node takes rank j, and its (pre-
// distributed) message-signing verify key. Service threshold keys are NOT
// here — they are re-shared, and the public keys never change.
struct RosterEntry {
  std::uint32_t node = 0;  // net::NodeId of the server holding this rank
  group::Element sign_key;  // Schnorr verify-key group element

  void encode(Writer& w) const;
  static RosterEntry decode(Reader& r);
  friend bool operator==(const RosterEntry&, const RosterEntry&) = default;
};

// The target configuration of one reconfiguration: which service changes,
// the epoch the change installs, the new (n', f') and the new roster (entry
// j-1 holds new rank j). The config epoch is GLOBAL: installing a spec for
// either service moves every node to `epoch`.
struct ReconfigSpec {
  std::uint8_t service = 0;  // ServiceRole whose roster/threshold changes
  ConfigEpoch epoch = 0;
  std::uint32_t n = 0;
  std::uint32_t f = 0;
  std::vector<RosterEntry> roster;

  void encode(Writer& w) const;
  static ReconfigSpec decode(Reader& r);
  friend bool operator==(const ReconfigSpec&, const ReconfigSpec&) = default;
};

struct ReconfigStartMsg {
  ReconfigSpec spec;

  void encode(Writer& w) const;
  static ReconfigStartMsg decode(Reader& r);
};

// A dealer's re-sharing COMMITMENTS for both service keys (encryption +
// signing). Public by design; the secret sub-shares travel separately,
// point-to-point, in ReshareSubshareMsg — never through the coordinator.
struct ReshareDealMsg {
  std::uint8_t service = 0;
  ConfigEpoch epoch = 0;  // the epoch being installed
  std::uint32_t dealer = 0;  // OLD rank of the dealing server
  threshold::FeldmanCommitments enc;
  threshold::FeldmanCommitments sign;

  void encode(Writer& w) const;
  static ReshareDealMsg decode(Reader& r);
};

// The sub-shares for ONE new-roster server from one dealer. Secret: any
// f'+1 of a dealer's sub-shares reveal that dealer's old share.
struct ReshareSubshareMsg {
  std::uint8_t service = 0;
  ConfigEpoch epoch = 0;
  std::uint32_t dealer = 0;
  std::uint32_t target_rank = 0;  // new rank this sub-share pair belongs to
  mpz::Bigint enc_sub;   // taint:secret
  mpz::Bigint sign_sub;  // taint:secret

  void encode(Writer& w) const;
  static ReshareSubshareMsg decode(Reader& r);
};

// The coordinator's chosen configuration: the spec, the f+1 commitment-valid
// deal envelopes defining the apply quorum, and the transfers still
// unfinished at proposal time (so joiners learn what to coordinate).
struct ReconfigApplyMsg {
  ReconfigSpec spec;
  std::vector<SignedMessage> deals;  // kReshareDeal envelopes, dealer-signed
  std::vector<TransferId> transfers;

  void encode(Writer& w) const;
  static ReconfigApplyMsg decode(Reader& r);
};

// Bracha-style echo of an apply's digest: a server installs epoch e only
// after 2f+1 old-roster echoes of the same digest.
struct ReconfigEchoMsg {
  std::uint8_t service = 0;
  ConfigEpoch epoch = 0;
  hash::Digest digest{};  // over the encoded ReconfigApplyMsg body

  void encode(Writer& w) const;
  static ReconfigEchoMsg decode(Reader& r);
};

// Typed stale-epoch rejection (liveness-only: unauthenticated; a forged one
// merely triggers a harmless pull probe at the receiver).
struct WrongEpochMsg {
  std::uint8_t service = 0;
  ConfigEpoch epoch = 0;  // the rejecting server's CURRENT epoch

  void encode(Writer& w) const;
  static WrongEpochMsg decode(Reader& r);
};

struct ReconfigPullMsg {
  ConfigEpoch epoch = 0;  // puller's installed epoch; send me everything newer

  void encode(Writer& w) const;
  static ReconfigPullMsg decode(Reader& r);
};

// One installed epoch's self-certifying record: the apply envelope plus the
// 2f+1-echo certificate. A lagging node replays these in epoch order,
// validating each step against the roster the previous step installed.
struct ReconfigStateMsg {
  SignedMessage apply;                // kReconfigApply envelope
  std::vector<SignedMessage> echoes;  // 2f+1 kReconfigEcho envelopes

  void encode(Writer& w) const;
  static ReconfigStateMsg decode(Reader& r);
};

// A new-roster server that has the apply but is missing sub-shares asks the
// dealers to resend its (and only its) sub-share pair.
struct SubsharePullMsg {
  std::uint8_t service = 0;
  ConfigEpoch epoch = 0;
  std::uint32_t my_new_rank = 0;

  void encode(Writer& w) const;
  static SubsharePullMsg decode(Reader& r);
};

// --- type-tagged body helpers --------------------------------------------------

// Encodes `msg` with its leading MsgType tag.
template <typename T>
std::vector<std::uint8_t> encode_body(MsgType type, const T& msg) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  msg.encode(w);
  return w.take();
}

// Reads the MsgType tag without consuming the message.
[[nodiscard]] MsgType peek_type(std::span<const std::uint8_t> body);

// Decodes a tagged body from `r`; throws CodecError on a tag mismatch or
// trailing bytes.
template <typename T>
T decode_tagged(MsgType expect, Reader& r) {
  auto tag = static_cast<MsgType>(r.u8());
  if (tag != expect) throw CodecError("decode_as: unexpected message type");
  T msg = T::decode(r);
  r.expect_done();
  return msg;
}

// Decodes a body expecting the given tag, decoding every element field in
// `group` once; throws CodecError on mismatch, trailing bytes, or an element
// field that is not a canonical group element.
template <typename T>
T decode_as(MsgType expect, std::span<const std::uint8_t> body,
            const group::GroupParams& group) {
  Reader r(body, &group);
  return decode_tagged<T>(expect, r);
}

// Group-less parse: the same bytes, element fields left bare.
template <typename T>
T decode_as(MsgType expect, std::span<const std::uint8_t> body) {
  Reader r(body);
  return decode_tagged<T>(expect, r);
}

}  // namespace dblind::core

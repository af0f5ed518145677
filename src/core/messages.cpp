#include "core/messages.hpp"

#include "zkp/transcript.hpp"

namespace dblind::core {

// --- low-level helpers --------------------------------------------------------

void put_ciphertext(Writer& w, const elgamal::Ciphertext& c) {
  w.bigint(c.a);
  w.bigint(c.b);
}

elgamal::Ciphertext get_ciphertext(Reader& r) {
  elgamal::Ciphertext c;
  c.a = group::read_element(r);
  c.b = group::read_element(r);
  return c;
}

void put_schnorr_sig(Writer& w, const zkp::SchnorrSignature& s) {
  w.bigint(s.r);
  w.bigint(s.s);
}

zkp::SchnorrSignature get_schnorr_sig(Reader& r) {
  zkp::SchnorrSignature s;
  s.r = group::read_element(r);
  s.s = r.bigint();
  return s;
}

void put_dlog_proof(Writer& w, const zkp::DlogEqProof& p) {
  w.bigint(p.t1);
  w.bigint(p.t2);
  w.bigint(p.s);
}

zkp::DlogEqProof get_dlog_proof(Reader& r) {
  zkp::DlogEqProof p;
  p.t1 = group::read_element(r);
  p.t2 = group::read_element(r);
  p.s = r.bigint();
  return p;
}

void put_vde_proof(Writer& w, const zkp::VdeProof& p) {
  w.bigint(p.g12);
  w.bigint(p.g21);
  put_dlog_proof(w, p.pr1);
  put_dlog_proof(w, p.pr2);
  put_dlog_proof(w, p.pr3);
}

zkp::VdeProof get_vde_proof(Reader& r) {
  zkp::VdeProof p;
  p.g12 = group::read_element(r);
  p.g21 = group::read_element(r);
  p.pr1 = get_dlog_proof(r);
  p.pr2 = get_dlog_proof(r);
  p.pr3 = get_dlog_proof(r);
  return p;
}

void put_decryption_share(Writer& w, const threshold::DecryptionShare& s) {
  w.u32(s.index);
  w.bigint(s.d);
  put_dlog_proof(w, s.proof);
}

threshold::DecryptionShare get_decryption_share(Reader& r) {
  threshold::DecryptionShare s;
  s.index = r.u32();
  s.d = group::read_element(r);
  s.proof = get_dlog_proof(r);
  return s;
}

void put_feldman(Writer& w, const threshold::FeldmanCommitments& c) {
  w.u32(static_cast<std::uint32_t>(c.coefficients.size()));
  for (const group::Element& x : c.coefficients) w.bigint(x);
}

threshold::FeldmanCommitments get_feldman(Reader& r) {
  threshold::FeldmanCommitments c;
  std::uint32_t n = r.count();
  c.coefficients.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) c.coefficients.push_back(group::read_element(r));
  return c;
}

// --- envelopes ------------------------------------------------------------------

void SignedMessage::encode(Writer& w) const {
  w.u8(service);
  w.u32(signer);
  w.u32(cfg_epoch);
  w.bytes(body);
  put_schnorr_sig(w, sig);
}

SignedMessage SignedMessage::decode(Reader& r) {
  SignedMessage m;
  m.service = r.u8();
  m.signer = r.u32();
  m.cfg_epoch = r.u32();
  m.body = r.bytes();
  m.sig = get_schnorr_sig(r);
  return m;
}

void ServiceSignedMsg::encode(Writer& w) const {
  w.u8(service);
  w.bytes(body);
  put_schnorr_sig(w, sig);
}

ServiceSignedMsg ServiceSignedMsg::decode(Reader& r) {
  ServiceSignedMsg m;
  m.service = r.u8();
  m.body = r.bytes();
  m.sig = get_schnorr_sig(r);
  return m;
}

// --- blinding-protocol messages ---------------------------------------------------

void InitMsg::encode(Writer& w) const { id.encode(w); }

InitMsg InitMsg::decode(Reader& r) { return {InstanceId::decode(r)}; }

void CommitMsg::encode(Writer& w) const {
  id.encode(w);
  w.u32(server);
  w.digest(commitment);
}

CommitMsg CommitMsg::decode(Reader& r) {
  CommitMsg m;
  m.id = InstanceId::decode(r);
  m.server = r.u32();
  m.commitment = r.digest();
  return m;
}

void RevealMsg::encode(Writer& w) const {
  id.encode(w);
  w.u32(static_cast<std::uint32_t>(commits.size()));
  for (const SignedMessage& c : commits) c.encode(w);
}

RevealMsg RevealMsg::decode(Reader& r) {
  RevealMsg m;
  m.id = InstanceId::decode(r);
  std::uint32_t n = r.count();
  m.commits.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.commits.push_back(SignedMessage::decode(r));
  return m;
}

void Contribution::encode(Writer& w) const {
  put_ciphertext(w, ea);
  put_ciphertext(w, eb);
}

Contribution Contribution::decode(Reader& r) {
  Contribution c;
  c.ea = get_ciphertext(r);
  c.eb = get_ciphertext(r);
  return c;
}

hash::Digest Contribution::commitment_digest() const {
  Writer w;
  encode(w);
  zkp::Transcript t("dblind/contribution-commit/v1");
  t.absorb_bytes(w.view());
  return t.digest();
}

void ContributeMsg::encode(Writer& w) const {
  id.encode(w);
  w.u32(server);
  reveal.encode(w);
  contribution.encode(w);
  put_vde_proof(w, vde);
}

ContributeMsg ContributeMsg::decode(Reader& r) {
  ContributeMsg m;
  m.id = InstanceId::decode(r);
  m.server = r.u32();
  m.reveal = SignedMessage::decode(r);
  m.contribution = Contribution::decode(r);
  m.vde = get_vde_proof(r);
  return m;
}

void BlindPayload::encode(Writer& w) const {
  id.encode(w);
  blinded.encode(w);
}

BlindPayload BlindPayload::decode(Reader& r) {
  BlindPayload m;
  m.id = InstanceId::decode(r);
  m.blinded = Contribution::decode(r);
  return m;
}

void DonePayload::encode(Writer& w) const {
  id.encode(w);
  put_ciphertext(w, ea_m);
  put_ciphertext(w, eb_m);
}

DonePayload DonePayload::decode(Reader& r) {
  DonePayload m;
  m.id = InstanceId::decode(r);
  m.ea_m = get_ciphertext(r);
  m.eb_m = get_ciphertext(r);
  return m;
}

// --- threshold-signature sub-protocol ----------------------------------------------

void BlindEvidence::encode(Writer& w) const {
  w.u32(static_cast<std::uint32_t>(contributes.size()));
  for (const SignedMessage& c : contributes) c.encode(w);
}

BlindEvidence BlindEvidence::decode(Reader& r) {
  BlindEvidence e;
  std::uint32_t n = r.count();
  e.contributes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) e.contributes.push_back(SignedMessage::decode(r));
  return e;
}

void DoneEvidence::encode(Writer& w) const {
  blind.encode(w);
  w.bigint(m_rho);
  w.u32(static_cast<std::uint32_t>(shares.size()));
  for (const threshold::DecryptionShare& s : shares) put_decryption_share(w, s);
}

DoneEvidence DoneEvidence::decode(Reader& r) {
  DoneEvidence e;
  e.blind = ServiceSignedMsg::decode(r);
  e.m_rho = group::read_element(r);
  std::uint32_t n = r.count();
  e.shares.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) e.shares.push_back(get_decryption_share(r));
  return e;
}

void SignRequestMsg::encode(Writer& w) const {
  w.u64(session);
  w.u8(purpose);
  w.bytes(payload);
  w.bytes(evidence);
}

SignRequestMsg SignRequestMsg::decode(Reader& r) {
  SignRequestMsg m;
  m.session = r.u64();
  m.purpose = r.u8();
  m.payload = r.bytes();
  m.evidence = r.bytes();
  return m;
}

void SignCommitReplyMsg::encode(Writer& w) const {
  w.u64(session);
  w.u32(commit.index);
  w.digest(commit.digest);
}

SignCommitReplyMsg SignCommitReplyMsg::decode(Reader& r) {
  SignCommitReplyMsg m;
  m.session = r.u64();
  m.commit.index = r.u32();
  m.commit.digest = r.digest();
  return m;
}

void SignQuorumMsg::encode(Writer& w) const {
  w.u64(session);
  w.u32(static_cast<std::uint32_t>(quorum.size()));
  for (const threshold::NonceCommitment& c : quorum) {
    w.u32(c.index);
    w.digest(c.digest);
  }
}

SignQuorumMsg SignQuorumMsg::decode(Reader& r) {
  SignQuorumMsg m;
  m.session = r.u64();
  std::uint32_t n = r.count();
  m.quorum.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    threshold::NonceCommitment c;
    c.index = r.u32();
    c.digest = r.digest();
    m.quorum.push_back(c);
  }
  return m;
}

void SignRevealReplyMsg::encode(Writer& w) const {
  w.u64(session);
  w.u32(reveal.index);
  w.bigint(reveal.t);
}

SignRevealReplyMsg SignRevealReplyMsg::decode(Reader& r) {
  SignRevealReplyMsg m;
  m.session = r.u64();
  m.reveal.index = r.u32();
  m.reveal.t = group::read_element(r);
  return m;
}

void SignRevealSetMsg::encode(Writer& w) const {
  w.u64(session);
  w.u32(static_cast<std::uint32_t>(reveals.size()));
  for (const threshold::NonceReveal& rv : reveals) {
    w.u32(rv.index);
    w.bigint(rv.t);
  }
}

SignRevealSetMsg SignRevealSetMsg::decode(Reader& r) {
  SignRevealSetMsg m;
  m.session = r.u64();
  std::uint32_t n = r.count();
  m.reveals.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    threshold::NonceReveal rv;
    rv.index = r.u32();
    rv.t = group::read_element(r);
    m.reveals.push_back(std::move(rv));
  }
  return m;
}

void SignPartialReplyMsg::encode(Writer& w) const {
  w.u64(session);
  w.u32(partial.index);
  w.bigint(partial.s);
}

SignPartialReplyMsg SignPartialReplyMsg::decode(Reader& r) {
  SignPartialReplyMsg m;
  m.session = r.u64();
  m.partial.index = r.u32();
  m.partial.s = r.bigint();
  return m;
}

// --- threshold-decryption sub-protocol ---------------------------------------------

void DecryptRequestMsg::encode(Writer& w) const {
  id.encode(w);
  blind.encode(w);
}

DecryptRequestMsg DecryptRequestMsg::decode(Reader& r) {
  DecryptRequestMsg m;
  m.id = InstanceId::decode(r);
  m.blind = ServiceSignedMsg::decode(r);
  return m;
}

void DecryptShareReplyMsg::encode(Writer& w) const {
  id.encode(w);
  put_decryption_share(w, share);
}

DecryptShareReplyMsg DecryptShareReplyMsg::decode(Reader& r) {
  DecryptShareReplyMsg m;
  m.id = InstanceId::decode(r);
  m.share = get_decryption_share(r);
  return m;
}

// --- client-facing messages -----------------------------------------------------

void TransferRequestMsg::encode(Writer& w) const {
  w.u64(transfer);
  put_ciphertext(w, ea_m);
}

TransferRequestMsg TransferRequestMsg::decode(Reader& r) {
  TransferRequestMsg m;
  m.transfer = r.u64();
  m.ea_m = get_ciphertext(r);
  return m;
}

void ResultRequestMsg::encode(Writer& w) const { w.u64(transfer); }

ResultRequestMsg ResultRequestMsg::decode(Reader& r) {
  ResultRequestMsg m;
  m.transfer = r.u64();
  return m;
}

void ResultReplyMsg::encode(Writer& w) const {
  w.u64(transfer);
  done.encode(w);
}

ResultReplyMsg ResultReplyMsg::decode(Reader& r) {
  ResultReplyMsg m;
  m.transfer = r.u64();
  m.done = ServiceSignedMsg::decode(r);
  return m;
}

void ClientDecryptRequestMsg::encode(Writer& w) const {
  w.u64(transfer);
  put_ciphertext(w, ciphertext);
}

ClientDecryptRequestMsg ClientDecryptRequestMsg::decode(Reader& r) {
  ClientDecryptRequestMsg m;
  m.transfer = r.u64();
  m.ciphertext = get_ciphertext(r);
  return m;
}

void ClientDecryptReplyMsg::encode(Writer& w) const {
  w.u64(transfer);
  put_decryption_share(w, share);
}

ClientDecryptReplyMsg ClientDecryptReplyMsg::decode(Reader& r) {
  ClientDecryptReplyMsg m;
  m.transfer = r.u64();
  m.share = get_decryption_share(r);
  return m;
}

// --- reconfiguration messages ----------------------------------------------------

void RosterEntry::encode(Writer& w) const {
  w.u32(node);
  w.bigint(sign_key);
}

RosterEntry RosterEntry::decode(Reader& r) {
  RosterEntry e;
  e.node = r.u32();
  e.sign_key = group::read_element(r);
  return e;
}

void ReconfigSpec::encode(Writer& w) const {
  w.u8(service);
  w.u32(epoch);
  w.u32(n);
  w.u32(f);
  w.u32(static_cast<std::uint32_t>(roster.size()));
  for (const RosterEntry& e : roster) e.encode(w);
}

ReconfigSpec ReconfigSpec::decode(Reader& r) {
  ReconfigSpec s;
  s.service = r.u8();
  s.epoch = r.u32();
  s.n = r.u32();
  s.f = r.u32();
  std::uint32_t count = r.count();
  s.roster.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) s.roster.push_back(RosterEntry::decode(r));
  return s;
}

void ReconfigStartMsg::encode(Writer& w) const { spec.encode(w); }

ReconfigStartMsg ReconfigStartMsg::decode(Reader& r) { return {ReconfigSpec::decode(r)}; }

void ReshareDealMsg::encode(Writer& w) const {
  w.u8(service);
  w.u32(epoch);
  w.u32(dealer);
  put_feldman(w, enc);
  put_feldman(w, sign);
}

ReshareDealMsg ReshareDealMsg::decode(Reader& r) {
  ReshareDealMsg m;
  m.service = r.u8();
  m.epoch = r.u32();
  m.dealer = r.u32();
  m.enc = get_feldman(r);
  m.sign = get_feldman(r);
  return m;
}

void ReshareSubshareMsg::encode(Writer& w) const {
  w.u8(service);
  w.u32(epoch);
  w.u32(dealer);
  w.u32(target_rank);
  w.bigint(enc_sub);
  w.bigint(sign_sub);
}

ReshareSubshareMsg ReshareSubshareMsg::decode(Reader& r) {
  ReshareSubshareMsg m;
  m.service = r.u8();
  m.epoch = r.u32();
  m.dealer = r.u32();
  m.target_rank = r.u32();
  m.enc_sub = r.bigint();
  m.sign_sub = r.bigint();
  return m;
}

void ReconfigApplyMsg::encode(Writer& w) const {
  spec.encode(w);
  w.u32(static_cast<std::uint32_t>(deals.size()));
  for (const SignedMessage& d : deals) d.encode(w);
  w.u32(static_cast<std::uint32_t>(transfers.size()));
  for (TransferId t : transfers) w.u64(t);
}

ReconfigApplyMsg ReconfigApplyMsg::decode(Reader& r) {
  ReconfigApplyMsg m;
  m.spec = ReconfigSpec::decode(r);
  std::uint32_t nd = r.count();
  m.deals.reserve(nd);
  for (std::uint32_t i = 0; i < nd; ++i) m.deals.push_back(SignedMessage::decode(r));
  std::uint32_t nt = r.count(8);
  m.transfers.reserve(nt);
  for (std::uint32_t i = 0; i < nt; ++i) m.transfers.push_back(r.u64());
  return m;
}

void ReconfigEchoMsg::encode(Writer& w) const {
  w.u8(service);
  w.u32(epoch);
  w.digest(digest);
}

ReconfigEchoMsg ReconfigEchoMsg::decode(Reader& r) {
  ReconfigEchoMsg m;
  m.service = r.u8();
  m.epoch = r.u32();
  m.digest = r.digest();
  return m;
}

void WrongEpochMsg::encode(Writer& w) const {
  w.u8(service);
  w.u32(epoch);
}

WrongEpochMsg WrongEpochMsg::decode(Reader& r) {
  WrongEpochMsg m;
  m.service = r.u8();
  m.epoch = r.u32();
  return m;
}

void ReconfigPullMsg::encode(Writer& w) const { w.u32(epoch); }

ReconfigPullMsg ReconfigPullMsg::decode(Reader& r) { return {r.u32()}; }

void ReconfigStateMsg::encode(Writer& w) const {
  apply.encode(w);
  w.u32(static_cast<std::uint32_t>(echoes.size()));
  for (const SignedMessage& e : echoes) e.encode(w);
}

ReconfigStateMsg ReconfigStateMsg::decode(Reader& r) {
  ReconfigStateMsg m;
  m.apply = SignedMessage::decode(r);
  std::uint32_t n = r.count();
  m.echoes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.echoes.push_back(SignedMessage::decode(r));
  return m;
}

void SubsharePullMsg::encode(Writer& w) const {
  w.u8(service);
  w.u32(epoch);
  w.u32(my_new_rank);
}

SubsharePullMsg SubsharePullMsg::decode(Reader& r) {
  SubsharePullMsg m;
  m.service = r.u8();
  m.epoch = r.u32();
  m.my_new_rank = r.u32();
  return m;
}

MsgType peek_type(std::span<const std::uint8_t> body) {
  if (body.empty()) throw CodecError("peek_type: empty body");
  return static_cast<MsgType>(body[0]);
}

}  // namespace dblind::core

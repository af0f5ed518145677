#include "core/responder.hpp"

#include <algorithm>

#include "core/recovery.hpp"
#include "threshold/thresh_decrypt.hpp"

namespace dblind::core {

void Responder::on_blind(const Local& l, const ServiceSignedMsg& msg, const Ledger& ledger) {
  if (l.is_b() || !l.active()) return;
  auto blind = check_blind(l.cfg, msg);
  if (!blind) return;
  if (seen_.contains(blind->id)) return;

  if (!ledger.stored.contains(blind->id.transfer)) {
    // Step flexibility: the blinding pair can arrive before E_A(m) exists
    // (it depends on neither the ciphertext nor A's key). Park it.
    if (ledger.pending_store.contains(blind->id.transfer)) parked_.push_back(msg);
    return;
  }

  // Designated-responder policy mirroring §4.1 (the paper has every server
  // in A perform step 6 eagerly; f+1 responders with delayed backups give
  // the same liveness with less redundant work): rank 1 acts at once, ranks
  // 2..f+1 after a backup delay, ranks beyond f+1 only serve decryption
  // shares.
  if (l.me.rank > l.cfg.a.cfg.f + 1) return;
  if (responders_.contains(blind->id)) return;  // backup timer already armed
  ResponderState& st = responders_[blind->id];
  st.blind_env = msg;
  st.blind = *blind;

  const net::Time delay = (l.me.rank - 1) * backup_delay_;
  if (delay == 0) {
    start(l, blind->id, ledger);
  } else {
    const std::uint64_t key = next_timer_++;
    timer_ids_[key] = blind->id;
    l.ctx.set_timer(delay, timer::kResponder | key);
  }
}

void Responder::on_timer(const Local& l, std::uint64_t key, const Ledger& ledger) {
  auto it = timer_ids_.find(key);
  if (it == timer_ids_.end()) return;
  const InstanceId id = it->second;
  if (!seen_.contains(id)) start(l, id, ledger);
}

void Responder::start(const Local& l, const InstanceId& id, const Ledger& ledger) {
  auto it = responders_.find(id);
  if (it == responders_.end()) return;
  ResponderState& st = it->second;
  if (st.sent_done || seen_.contains(id)) return;
  seen_.insert(id);

  auto sit = ledger.stored.find(id.transfer);
  if (sit == ledger.stored.end()) return;
  auto ea_m_rho = l.cfg.a.encryption_key.multiply(sit->second, st.blind.blinded.ea);
  if (!ea_m_rho) return;  // degenerate: wait for another coordinator's instance
  st.ea_m_rho = *ea_m_rho;

  st.decrypt_resend = l.resend.broadcast(
      l.ctx, l.cfg.a.nodes(),
      l.signed_frame(encode_body(MsgType::kDecryptRequest, DecryptRequestMsg{id, st.blind_env})),
      {.transfer = id.transfer});
  st.t_begin = l.ctx.now();
  l.trace(obs::EventKind::kDecryptBegin, &id);
}

void Responder::on_decrypt_request(const Local& l, const SignedMessage& env,
                                   const Ledger& ledger) {
  if (l.is_b() || !l.holds_share()) return;
  auto msg =
      parse_signed<DecryptRequestMsg>(l.cfg, env, MsgType::kDecryptRequest, ServiceRole::kServiceA);
  if (!msg) return;
  const net::NodeId to = l.cfg.a.node_of(env.signer);
  // Duplicate request: replay the cached share reply (cheap, and avoids
  // re-proving) before the expensive evidence re-check.
  const auto key = std::make_pair(msg->id, env.signer);
  if (auto cached = reply_frames_.find(key); cached != reply_frames_.end()) {
    l.resend.resend_frame(l.ctx, to, cached->second);
    return;
  }
  // Self-verifying decryption request (step 6(b)): the service-signed blind
  // message is the evidence that decrypting E_A(mρ) is authorized.
  auto blind = check_blind(l.cfg, msg->blind);
  if (!blind || !(blind->id == msg->id)) return;
  auto sit = ledger.stored.find(msg->id.transfer);
  if (sit == ledger.stored.end()) return;
  auto ea_m_rho = l.cfg.a.encryption_key.multiply(sit->second, blind->blinded.ea);
  if (!ea_m_rho) return;

  threshold::DecryptionShare share = threshold::make_decryption_share(
      l.cfg.params, *ea_m_rho, l.me.enc_share, decrypt_context(msg->id), l.ctx.rng());
  const Frame& frame = reply_frames_[key] = l.signed_frame(encode_body(
      MsgType::kDecryptShareReply, DecryptShareReplyMsg{msg->id, std::move(share)}));
  l.ctx.send(to, frame);
}

void Responder::on_share_reply(const Local& l, const SignedMessage& env, const Ledger& ledger,
                               Signing& signing) {
  if (l.is_b() || !l.active()) return;
  auto msg = parse_signed<DecryptShareReplyMsg>(l.cfg, env, MsgType::kDecryptShareReply,
                                                ServiceRole::kServiceA);
  if (!msg) return;
  auto it = responders_.find(msg->id);
  if (it == responders_.end()) return;
  ResponderState& st = it->second;
  if (st.signing || st.sent_done || !seen_.contains(msg->id)) return;
  if (msg->share.index != env.signer) return;
  const bool ok = threshold::verify_decryption_share(
      l.cfg.params, l.cfg.a.enc_commitments, st.ea_m_rho, msg->share, decrypt_context(msg->id));
  if (!l.verdict(ok, false, &msg->id, env.signer, MsgType::kDecryptShareReply)) return;
  st.shares.emplace(msg->share.index, msg->share);
  const std::size_t quorum = l.cfg.a.cfg.quorum();
  if (st.shares.size() < quorum) return;
  st.signing = true;
  l.resend.cancel(st.decrypt_resend);  // decryption round complete
  st.t_done_sign = l.ctx.now();
  if (st.t_begin != 0) l.observer.m.phase_decrypt_us.observe(st.t_done_sign - st.t_begin);
  l.trace(obs::EventKind::kDecryptDone, &msg->id, {.count = quorum});

  std::vector<threshold::DecryptionShare> shares;
  for (const auto& [rank, share] : st.shares) {
    if (shares.size() == quorum) break;
    shares.push_back(share);
  }
  group::Element m_rho = threshold::combine_decryption(l.cfg.params, st.ea_m_rho, shares);

  // Step 6(c): E_B(m) := (mρ) · E_B(ρ)^{-1}.
  const elgamal::PublicKey& kb = l.cfg.b.encryption_key;
  DonePayload payload{msg->id, ledger.stored.at(msg->id.transfer),
                      kb.juxtapose(m_rho, kb.inverse(st.blind.blinded.eb))};
  Writer w;
  DoneEvidence{st.blind_env, std::move(m_rho), std::move(shares)}.encode(w);
  l.trace(obs::EventKind::kDoneSignBegin, &msg->id);
  signing.start(l, SignPurpose::kDone, encode_body(MsgType::kDone, payload), w.take(),
                msg->id.transfer);
}

void Responder::on_signed(const Local& l, const ServiceSignature& sig) {
  // Nothing on A observes B's results, so this resend is capped small; a B
  // server that still misses the done message recovers through its result
  // pull.
  l.resend.broadcast(l.ctx, l.cfg.b.nodes(), frame_service(sig.msg),
                     {.max_attempts = std::min(kRetransmitMaxAttempts, 5)});
  auto done = try_decode<DonePayload>(l.cfg, MsgType::kDone, sig.msg.body);
  if (!done) return;
  l.trace(obs::EventKind::kSignDone, &done->id,
          {.subject = static_cast<std::uint32_t>(SignPurpose::kDone)});
  auto it = responders_.find(done->id);
  if (it == responders_.end()) return;
  it->second.sent_done = true;
  if (it->second.t_done_sign != 0) {
    l.observer.m.phase_done_sign_us.observe(l.ctx.now() - it->second.t_done_sign);
  }
}

void Responder::unfinished(std::vector<InstanceId>& out) const {
  for (const auto& [id, st] : responders_) {
    if (!st.sent_done) out.push_back(id);
  }
}

}  // namespace dblind::core

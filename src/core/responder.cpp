#include "core/responder.hpp"

#include "core/recovery.hpp"
#include "threshold/thresh_decrypt.hpp"

namespace dblind::core {

void Responder::on_blind(const Local& l, net::NodeId from, const ServiceSignedMsg& msg,
                         const Ledger& ledger) {
  // Ranks beyond f+1 only serve decryption shares (B sends them no blind).
  if (l.is_b() || !l.cfg.a.is_lead(l.me.rank)) return;
  // Look the instance up before the signature check, in a group-less parse:
  // B's coordinator repeats its blind until it holds a result, and a repeat
  // costs this server no group op.
  const auto id = parsed_or_nullopt(
      [&] { return decode_as<BlindPayload>(MsgType::kBlind, msg.body).id; });
  if (!id) return;
  if (auto it = responders_.find(*id); it != responders_.end()) {
    // The done answers a repeat of the blind it answered, sent to the node
    // that repeated it; while step 6 runs there is none, and it is dropped.
    if (msg == it->second.blind_env)
      l.resend.resend_frame(l.ctx, from, it->second.done_frame);
    return;
  }
  auto blind = check_blind(l.cfg, msg);
  if (!blind) return;

  if (!ledger.stored.contains(blind->id.transfer)) {
    // Step flexibility: the blinding pair can arrive before E_A(m) exists
    // (it depends on neither the ciphertext nor A's key). Park it.
    if (ledger.pending_store.contains(blind->id.transfer)) parked_.emplace_back(from, msg);
    return;
  }

  // §4.1's stagger (the paper has every A server run step 6 eagerly): B
  // re-sends blinds, and opens backup instances, only while it holds no
  // result, so a late blind is what a backup waits for.
  const net::Time now = l.ctx.now();
  const net::Time first = first_blind_.try_emplace(blind->id.transfer, now).first->second;
  if (now - first < (l.me.rank - 1) * backup_delay_) return;
  start(l, msg, *blind, ledger);
}

void Responder::replay_parked(const Local& l, const Ledger& ledger) {
  for (const auto& [from, msg] : std::exchange(parked_, {})) on_blind(l, from, msg, ledger);
}

void Responder::start(const Local& l, const ServiceSignedMsg& msg, const BlindPayload& blind,
                      const Ledger& ledger) {
  const InstanceId& id = blind.id;
  ResponderState& st = responders_[id];
  st.blind_env = msg;
  auto ea_m_rho = l.cfg.a.encryption_key.multiply(ledger.stored.at(id.transfer), blind.blinded.ea);
  if (!ea_m_rho) return;  // degenerate: wait for another coordinator's instance
  Decryption& d = st.decrypt.emplace();
  d.blind = blind;
  d.ea_m_rho = *ea_m_rho;

  d.resend = l.resend.broadcast(
      l.ctx, l.cfg.a.nodes(),
      l.signed_frame(encode_body(MsgType::kDecryptRequest, DecryptRequestMsg{id, msg})),
      {.transfer = id.transfer});
  d.t_begin = l.ctx.now();
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
  if (it == responders_.end() || !it->second.decrypt || it->second.decrypt->signing) return;
  Decryption& d = *it->second.decrypt;
  if (msg->share.index != env.signer) return;
  const bool ok = threshold::verify_decryption_share(
      l.cfg.params, l.cfg.a.enc_commitments, d.ea_m_rho, msg->share, decrypt_context(msg->id));
  if (!l.verdict(ok, false, &msg->id, env.signer, MsgType::kDecryptShareReply)) return;
  d.shares.emplace(msg->share.index, msg->share);
  const std::size_t quorum = l.cfg.a.cfg.quorum();
  if (d.shares.size() < quorum) return;
  d.signing = true;
  l.resend.cancel(d.resend);  // decryption round complete
  d.t_done_sign = l.ctx.now();
  if (d.t_begin != 0) l.observer.m.phase_decrypt_us.observe(d.t_done_sign - d.t_begin);
  l.trace(obs::EventKind::kDecryptDone, &msg->id, {.count = quorum});

  std::vector<threshold::DecryptionShare> shares;
  for (const auto& [rank, share] : d.shares) {
    if (shares.size() == quorum) break;
    shares.push_back(share);
  }
  group::Element m_rho = threshold::combine_decryption(l.cfg.params, d.ea_m_rho, shares);

  // Step 6(c): E_B(m) := (mρ) · E_B(ρ)^{-1}.
  const elgamal::PublicKey& kb = l.cfg.b.encryption_key;
  DonePayload payload{msg->id, ledger.stored.at(msg->id.transfer),
                      kb.juxtapose(m_rho, kb.inverse(d.blind.blinded.eb))};
  l.trace(obs::EventKind::kDoneSignBegin, &msg->id);
  signing.start(
      l, SignPurpose::kDone, encode_body(MsgType::kDone, payload),
      group::to_bytes(DoneEvidence{it->second.blind_env, std::move(m_rho), std::move(shares)}),
      msg->id);
}

void Responder::on_signed(const Local& l, const ServiceSignature& sig) {
  // Only a responder whose step 6 runs has a done to send, and it sends it
  // once: the decryption state goes with it.
  auto it = responders_.find(sig.id);
  if (it == responders_.end() || !it->second.decrypt) return;
  ResponderState& st = it->second;
  // Sent once: a B server that misses it pulls it from its peers
  // (Recovery::pull_result), and B's coordinator, which repeats its blind
  // until it holds a result, gets it back from on_blind.
  st.done_frame = frame_service(sig.msg);
  for (net::NodeId to : l.cfg.b.nodes()) l.ctx.send(to, st.done_frame);
  l.trace(obs::EventKind::kSignDone, &sig.id,
          {.subject = static_cast<std::uint32_t>(SignPurpose::kDone)});
  if (st.decrypt->t_done_sign != 0)
    l.observer.m.phase_done_sign_us.observe(l.ctx.now() - st.decrypt->t_done_sign);
  // A repeat needs only the blind and the done frame.
  st.decrypt.reset();
}

void Responder::unfinished(std::vector<InstanceId>& out) const {
  for (const auto& [id, st] : responders_) {
    if (st.done_frame.empty()) out.push_back(id);
  }
}

}  // namespace dblind::core

#include "core/signing.hpp"

#include <algorithm>

#include "core/recovery.hpp"

namespace dblind::core {

// --- requester -----------------------------------------------------------------

void Signing::start(const Local& l, SignPurpose purpose, std::vector<std::uint8_t> payload,
                    std::vector<std::uint8_t> evidence, TransferId transfer) {
  Session s;
  s.purpose = purpose;
  s.transfer = transfer;
  s.payload = std::move(payload);
  s.evidence = std::move(evidence);
  open(l, std::move(s));
}

void Signing::open(const Local& l, Session s) {
  // Abandon after enough failed attempts (each retry excludes provably-bad
  // members or re-solicits; f+2 attempts suffice against f Byzantine
  // members under eventual delivery).
  if (s.attempt > static_cast<int>(l.service().cfg.f) + 2) return;
  const std::uint64_t id = next_session_++;
  // B's sessions die with their transfer's result; A never records results,
  // so its done sessions rely on the attempt cap.
  s.cancel_on_result = l.is_b();
  SignRequestMsg req{id, static_cast<std::uint8_t>(s.purpose), s.payload, s.evidence};
  Session& ss = sessions_[id] = std::move(s);
  broadcast_round(l, ss, encode_body(MsgType::kSignRequest, req));
  // With retransmission on, a stalled round usually means loss, not a bad
  // member: back off exponentially so resends get a chance before the
  // session is torn down and restarted.
  net::Time retry = retry_delay_;
  if (retransmit_) retry <<= std::min(ss.attempt, 4);
  l.ctx.set_timer(retry, timer::kSignRetry | id);
}

void Signing::retry(const Local& l, Session s, std::set<ServerRank> excluded) {
  Session next;
  next.purpose = s.purpose;
  next.transfer = s.transfer;
  next.payload = std::move(s.payload);
  next.evidence = std::move(s.evidence);
  next.excluded = std::move(excluded);
  next.attempt = s.attempt + 1;
  open(l, std::move(next));
}

void Signing::broadcast_round(const Local& l, Session& s, std::vector<std::uint8_t> body) {
  s.round_resend = l.resend.broadcast(
      l.ctx, l.service().nodes(), l.signed_frame(std::move(body)),
      {.transfer = s.transfer, .cancel_on_result = s.cancel_on_result});
}

void Signing::on_retry_timer(const Local& l, std::uint64_t session, const ResultMap& results) {
  auto it = sessions_.find(session);
  if (it == sessions_.end() || it->second.done) return;
  Session ss = std::move(it->second);
  sessions_.erase(it);
  l.resend.cancel(ss.round_resend);
  if (ss.cancel_on_result && results.contains(ss.transfer)) return;  // moot
  // Exclude quorum members that stalled the session mid-way; they had their
  // chance. Cap total exclusions at f — beyond that we may be excluding
  // slow-but-honest members, so start over with a clean slate.
  std::set<ServerRank> excluded = ss.excluded;
  for (const threshold::NonceCommitment& c : ss.quorum) {
    if (!ss.partials.contains(c.index)) excluded.insert(c.index);
  }
  if (excluded.size() > l.service().cfg.f) excluded.clear();
  retry(l, std::move(ss), std::move(excluded));
}

void Signing::on_commit_reply(const Local& l, const SignedMessage& env) {
  auto msg = parse_signed<SignCommitReplyMsg>(l.cfg, env, MsgType::kSignCommitReply, l.me.role);
  auto it = msg ? sessions_.find(msg->session) : sessions_.end();
  if (it == sessions_.end()) return;
  Session& ss = it->second;
  if (ss.done || !ss.quorum.empty()) return;
  if (msg->commit.index != env.signer) return;
  if (ss.excluded.contains(env.signer)) return;
  ss.commits.emplace(env.signer, msg->commit);

  const threshold::ServiceConfig& svc = l.service().cfg;
  if (ss.commits.size() < 2 * svc.f + 1) return;
  // Quorum: the first f+1 committers in rank order (deterministic).
  for (const auto& [rank, commit] : ss.commits) {
    if (ss.quorum.size() == svc.quorum()) break;
    ss.quorum.push_back(commit);
  }
  l.resend.cancel(ss.round_resend);  // commit round complete
  broadcast_round(l, ss, encode_body(MsgType::kSignQuorum, SignQuorumMsg{msg->session, ss.quorum}));
}

void Signing::on_reveal_reply(const Local& l, const SignedMessage& env) {
  auto msg = parse_signed<SignRevealReplyMsg>(l.cfg, env, MsgType::kSignRevealReply, l.me.role);
  auto it = msg ? sessions_.find(msg->session) : sessions_.end();
  if (it == sessions_.end()) return;
  Session& ss = it->second;
  if (ss.done || ss.quorum.empty()) return;
  if (msg->reveal.index != env.signer) return;
  if (ss.reveals.contains(env.signer)) return;
  // The reveal must come from a quorum member and match its commitment.
  auto cit = std::find_if(ss.quorum.begin(), ss.quorum.end(),
                          [&](const auto& c) { return c.index == env.signer; });
  if (cit == ss.quorum.end()) return;
  if (threshold::nonce_commitment_digest(l.cfg.params, msg->reveal) != cit->digest) return;
  ss.reveals.emplace(env.signer, msg->reveal);
  if (ss.reveals.size() < ss.quorum.size()) return;

  SignRevealSetMsg set;
  set.session = msg->session;
  for (const auto& [rank, reveal] : ss.reveals) set.reveals.push_back(reveal);
  l.resend.cancel(ss.round_resend);  // reveal round complete
  broadcast_round(l, ss, encode_body(MsgType::kSignRevealSet, set));
}

std::optional<ServiceSignature> Signing::on_partial(const Local& l, const SignedMessage& env) {
  auto msg = parse_signed<SignPartialReplyMsg>(l.cfg, env, MsgType::kSignPartialReply, l.me.role);
  auto it = msg ? sessions_.find(msg->session) : sessions_.end();
  if (it == sessions_.end()) return std::nullopt;
  Session& ss = it->second;
  if (ss.done || ss.reveals.size() != ss.quorum.size() || ss.quorum.empty()) return std::nullopt;
  if (msg->partial.index != env.signer) return std::nullopt;
  auto rit = ss.reveals.find(env.signer);
  if (rit == ss.reveals.end()) return std::nullopt;

  const group::GroupParams& gp = l.cfg.params;
  std::vector<threshold::NonceReveal> reveals;
  for (const auto& [rank, reveal] : ss.reveals) reveals.push_back(reveal);
  group::Element r_joint = threshold::combine_nonce(gp, reveals);
  mpz::Bigint e = zkp::schnorr_challenge(gp, r_joint, l.service().signing_key.point(), ss.payload);
  if (!threshold::verify_partial_signature(gp, l.service().sign_commitments, rit->second,
                                           msg->partial, e)) {
    // Identifiable abort: this member provably misbehaved — retry without it.
    Session dead = std::move(it->second);
    sessions_.erase(it);
    l.resend.cancel(dead.round_resend);
    std::set<ServerRank> excluded = dead.excluded;
    excluded.insert(env.signer);
    retry(l, std::move(dead), std::move(excluded));
    return std::nullopt;
  }
  ss.partials.emplace(env.signer, msg->partial);
  if (ss.partials.size() < ss.quorum.size()) return std::nullopt;

  std::vector<threshold::PartialSignature> partials;
  for (const auto& [rank, partial] : ss.partials) partials.push_back(partial);
  zkp::SchnorrSignature sig = threshold::combine_signature(gp, reveals, partials);
  ss.done = true;
  l.resend.cancel(ss.round_resend);
  return ServiceSignature{ss.purpose, ss.transfer,
                          ServiceSignedMsg{static_cast<std::uint8_t>(l.me.role), ss.payload,
                                           std::move(sig)}};
}

// --- member ----------------------------------------------------------------------

void Signing::on_request(const Local& l, const SignedMessage& env, const Ledger& ledger) {
  // Signing needs this server's CURRENT key share: retired/standby servers
  // have none, and a pending member's old share would produce partials the
  // re-shared joint key rejects.
  if (!l.holds_share()) return;
  auto msg = parse_signed<SignRequestMsg>(l.cfg, env, MsgType::kSignRequest, l.me.role);
  if (!msg) return;

  // Self-verification of the signing request (§4.2.3): a member signs only
  // payloads justified by valid evidence.
  const auto purpose = static_cast<SignPurpose>(msg->purpose);
  if (purpose == SignPurpose::kBlind) {
    if (!l.is_b()) return;
    const bool ok = check_blind_sign_request_batch(l.cfg, msg->payload, msg->evidence, l.ctx.rng());
    if (!l.verdict(ok, true, nullptr, env.signer, MsgType::kBlind)) return;
  } else if (purpose == SignPurpose::kDone) {
    if (l.is_b()) return;
    auto payload = try_decode<DonePayload>(l.cfg, MsgType::kDone, msg->payload);
    if (!payload) return;
    auto sit = ledger.stored.find(payload->id.transfer);
    if (sit == ledger.stored.end()) return;
    const bool ok = check_done_sign_request_batch(l.cfg, msg->payload, msg->evidence, sit->second,
                                                  l.ctx.rng());
    if (!l.verdict(ok, true, &payload->id, env.signer, MsgType::kDone)) return;
  } else {
    return;
  }

  const net::NodeId to = l.service().node_of(env.signer);
  const auto key = std::make_pair(to, msg->session);
  if (auto it = members_.find(key); it != members_.end()) {
    // Duplicate request: answered with the same bytes — a fresh nonce
    // commitment for an existing session would risk nonce reuse.
    l.resend.resend_frame(l.ctx, to, it->second.commit_frame);
    return;
  }
  MemberSession ms;
  ms.payload = std::move(msg->payload);
  ms.member = std::make_unique<threshold::SigningMember>(l.cfg.params, l.me.sign_share,
                                                         l.ctx.rng());
  ms.commit_frame = l.signed_frame(encode_body(
      MsgType::kSignCommitReply, SignCommitReplyMsg{msg->session, ms.member->commitment()}));
  const MemberSession& stored = members_.emplace(key, std::move(ms)).first->second;
  l.ctx.send(to, stored.commit_frame);
}

void Signing::on_quorum(const Local& l, const SignedMessage& env) {
  auto msg = parse_signed<SignQuorumMsg>(l.cfg, env, MsgType::kSignQuorum, l.me.role);
  const net::NodeId to = msg ? l.service().node_of(env.signer) : 0;
  auto it = msg ? members_.find(std::make_pair(to, msg->session)) : members_.end();
  if (it == members_.end()) return;
  MemberSession& ms = it->second;
  if (!ms.quorum.empty()) {
    // Quorum already fixed: re-answer duplicates with the cached reveal.
    l.resend.resend_frame(l.ctx, to, ms.reveal_frame);
    return;
  }
  if (!ms.member) return;  // left out of this session's quorum earlier
  const bool mine = std::any_of(msg->quorum.begin(), msg->quorum.end(),
                                [&](const auto& c) { return c.index == l.me.rank; });
  if (!mine) {
    // Our nonce will never be used: release it. The session never signs.
    ms.member.reset();
    return;
  }
  ms.quorum = msg->quorum;
  ms.reveal_frame = l.signed_frame(encode_body(
      MsgType::kSignRevealReply, SignRevealReplyMsg{msg->session, ms.member->reveal()}));
  l.ctx.send(to, ms.reveal_frame);
}

void Signing::on_reveal_set(const Local& l, const SignedMessage& env) {
  auto msg = parse_signed<SignRevealSetMsg>(l.cfg, env, MsgType::kSignRevealSet, l.me.role);
  if (!msg) return;
  if (behavior_ == Behavior::kWithholdPartial) return;
  const net::NodeId to = l.service().node_of(env.signer);
  auto it = members_.find(std::make_pair(to, msg->session));
  if (it == members_.end()) return;
  MemberSession& ms = it->second;
  if (ms.responded) {
    // Sign at most once per session. A duplicate of the SAME reveal set gets
    // the cached partial; a different set is refused outright.
    if (hash::Sha256::digest(env.body) == ms.reveals_digest)
      l.resend.resend_frame(l.ctx, to, ms.partial_frame);
    return;
  }
  if (ms.quorum.empty()) return;

  auto partial =
      ms.member->respond(ms.quorum, msg->reveals, l.service().signing_key.point(), ms.payload);
  if (!partial) return;  // reveal set inconsistent with commitments — refuse
  // s_i = k_i + e·x_i is out: anyone who later read k_i would learn x_i.
  // Release the member (nonce and share copy); duplicates get cached bytes.
  ms.member.reset();
  ms.responded = true;
  ms.reveals_digest = hash::Sha256::digest(env.body);
  ms.partial_frame = l.signed_frame(
      encode_body(MsgType::kSignPartialReply, SignPartialReplyMsg{msg->session, *partial}));
  l.ctx.send(to, ms.partial_frame);
}

std::size_t Signing::nonces_held() const {
  return static_cast<std::size_t>(std::count_if(
      members_.begin(), members_.end(), [](const auto& kv) { return kv.second.member != nullptr; }));
}

}  // namespace dblind::core

#include "core/signing.hpp"

#include <algorithm>
#include <utility>

#include "core/recovery.hpp"

namespace dblind::core {

// --- requester -----------------------------------------------------------------

void Signing::start(const Local& l, SignPurpose purpose, std::vector<std::uint8_t> payload,
                    std::vector<std::uint8_t> evidence, const InstanceId& id) {
  Session s;
  s.purpose = purpose;
  s.id = id;
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
  // A stalled round usually means loss, not a bad member: back off
  // exponentially so resends get a chance before the session is torn down
  // and restarted.
  l.ctx.set_timer(retry_delay_ << std::min(ss.attempt, 4), timer::kSignRetry | id);
}

void Signing::retry(const Local& l, Session s, std::set<ServerRank> excluded) {
  Session next;
  next.purpose = s.purpose;
  next.id = s.id;
  next.payload = std::move(s.payload);
  next.evidence = std::move(s.evidence);
  next.excluded = std::move(excluded);
  next.attempt = s.attempt + 1;
  open(l, std::move(next));
}

void Signing::broadcast_round(const Local& l, Session& s, std::vector<std::uint8_t> body) {
  s.round_resend = l.resend.broadcast(
      l.ctx, l.service().nodes(), l.signed_frame(std::move(body)),
      {.transfer = s.id.transfer, .cancel_on_result = s.cancel_on_result});
}

void Signing::on_retry_timer(const Local& l, std::uint64_t session, const ResultMap& results) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return;
  Session ss = std::move(it->second);
  sessions_.erase(it);
  l.resend.cancel(ss.round_resend);
  if (ss.cancel_on_result && results.contains(ss.id.transfer)) return;  // moot
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
  if (!ss.quorum.empty()) return;
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
  if (ss.quorum.empty()) return;
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
  if (ss.reveals.size() != ss.quorum.size() || ss.quorum.empty()) return std::nullopt;
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
  // Finished: a late or duplicate reply, and the retry timer, find no session.
  Session done = std::move(it->second);
  sessions_.erase(it);
  l.resend.cancel(done.round_resend);
  return ServiceSignature{done.purpose, done.id,
                          ServiceSignedMsg{static_cast<std::uint8_t>(l.me.role),
                                           std::move(done.payload), std::move(sig)}};
}

// --- member ----------------------------------------------------------------------

void Signing::on_request(const Local& l, const SignedMessage& env, const Ledger& ledger) {
  // Signing needs this server's CURRENT key share: retired/standby servers
  // have none, and a pending member's old share would produce partials the
  // re-shared joint key rejects.
  if (!l.holds_share()) return;
  auto msg = parse_signed<SignRequestMsg>(l.cfg, env, MsgType::kSignRequest, l.me.role);
  if (!msg) return;
  const net::NodeId to = l.service().node_of(env.signer);
  const auto key = std::make_pair(to, msg->session);
  if (auto it = members_.find(key); it != members_.end()) {
    // Duplicate request: answered with the same bytes — a fresh nonce
    // commitment for an existing session would risk nonce reuse.
    l.resend.resend_frame(l.ctx, to, it->second.commit_frame);
    return;
  }
  // B signs blind payloads, A signs done payloads.
  const auto purpose = static_cast<SignPurpose>(msg->purpose);
  if (purpose != (l.is_b() ? SignPurpose::kBlind : SignPurpose::kDone)) return;

  MemberSession ms;
  // The requester built its payload from messages it had already checked:
  // its own session keeps no evidence. Every other member keeps it for the
  // check it runs once a quorum names it.
  if (env.signer != l.me.rank) {
    Evidence& ev = ms.evidence.emplace();
    if (purpose == SignPurpose::kDone) {
      // The check needs this server's stored E_A(m): without it, no commitment.
      ev.done = try_decode<DonePayload>(l.cfg, MsgType::kDone, msg->payload);
      if (!ev.done || !ledger.stored.contains(ev.done->id.transfer)) return;
    }
    ev.bytes = std::move(msg->evidence);
  }
  ms.payload = std::move(msg->payload);
  ms.member = std::make_unique<threshold::SigningMember>(l.cfg.params, l.me.sign_share,
                                                         l.ctx.rng());
  ms.commit_frame = l.signed_frame(encode_body(
      MsgType::kSignCommitReply, SignCommitReplyMsg{msg->session, ms.member->commitment()}));
  const MemberSession& stored = members_.emplace(key, std::move(ms)).first->second;
  l.ctx.send(to, stored.commit_frame);
}

bool Signing::evidence_ok(const Local& l, const SignedMessage& env,
                          std::span<const std::uint8_t> payload, const Evidence& ev,
                          const Ledger& ledger) {
  if (!ev.done) {
    const auto id = check_blind_sign_request(l.cfg, payload, ev.bytes, l.ctx.rng());
    return l.verdict(id.has_value(), true, id ? &*id : nullptr, env.signer, MsgType::kBlind);
  }
  auto sit = ledger.stored.find(ev.done->id.transfer);
  const bool ok = sit != ledger.stored.end() &&
                  check_done_sign_request(l.cfg, *ev.done, ev.bytes, sit->second, l.ctx.rng());
  return l.verdict(ok, true, &ev.done->id, env.signer, MsgType::kDone);
}

void Signing::on_quorum(const Local& l, const SignedMessage& env, const Ledger& ledger) {
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
  if (!ms.member) return;  // left out of this session's quorum, or its check failed
  const bool mine = std::any_of(msg->quorum.begin(), msg->quorum.end(),
                                [&](const auto& c) { return c.index == l.me.rank; });
  // The evidence is read at most once, here, and freed either way.
  const std::optional<Evidence> ev = std::exchange(ms.evidence, std::nullopt);
  // Self-verification of the signing request (§4.2.3): a member reveals, and
  // so signs, only payloads justified by valid evidence.
  if (!mine || (ev && !evidence_ok(l, env, ms.payload, *ev, ledger))) {
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

std::size_t Signing::evidence_held() const {
  return static_cast<std::size_t>(
      std::count_if(members_.begin(), members_.end(),
                    [](const auto& kv) { return kv.second.evidence.has_value(); }));
}

}  // namespace dblind::core

#include "core/blinding.hpp"

#include <algorithm>
#include <array>

#include "core/recovery.hpp"
#include "zkp/vde.hpp"

namespace dblind::core {

void Blinding::new_incarnation(net::Context& ctx) {
  mpz::Prng root = ctx.rng().fork("transfer-rng-root");
  root.fill(instance_rng_root_);
}

// --- contributor -----------------------------------------------------------------

Blinding::ContributorState& Blinding::contributor(const Local& l, const InstanceId& id) {
  auto it = contributors_.find(id);
  if (it != contributors_.end()) return it->second;

  // The instance's keyed stream depends only on the incarnation root and the
  // instance's public coordinates: a transfer's wire bytes do not depend on
  // interleaving, and a bundle built ahead of its init is the exact one.
  hash::Sha256 h;
  h.update(std::span<const std::uint8_t>(instance_rng_root_.data(), instance_rng_root_.size()));
  std::array<std::uint8_t, 20> coords{};
  for (int i = 0; i < 8; ++i) coords[i] = static_cast<std::uint8_t>(id.transfer >> (8 * i));
  for (int i = 0; i < 4; ++i) coords[8 + i] = static_cast<std::uint8_t>(id.coordinator >> (8 * i));
  for (int i = 0; i < 4; ++i) coords[12 + i] = static_cast<std::uint8_t>(id.epoch >> (8 * i));
  for (int i = 0; i < 4; ++i) coords[16 + i] = static_cast<std::uint8_t>(l.epoch >> (8 * i));
  h.update(std::span<const std::uint8_t>(coords.data(), coords.size()));
  mpz::Prng instance_prng(h.finish());

  ContributorState st;
  st.bundle = make_contribution_bundle(l.cfg, instance_prng);
  st.contribution.ea = st.bundle->ea;
  if (behavior_ == Behavior::kInconsistentContribution) {
    // §4.2.2 attack: E_B encrypts a different plaintext (ρ' != ρ). No valid
    // VDE proof exists for the pair; on_reveal attaches a proof computed for
    // the consistent shadow pair, so the mismatch is only detectable through
    // VDE verification, not through message shape.
    group::Element rho_bad = l.cfg.params.mul(st.bundle->rho, l.cfg.params.g());
    st.contribution.eb = l.cfg.b.encryption_key.encrypt_with_nonce(rho_bad, st.bundle->r2);
  } else {
    st.contribution.eb = st.bundle->eb;
  }
  return contributors_.emplace(id, std::move(st)).first->second;
}

void Blinding::precompute(const Local& l, TransferId transfer, const ResultMap& results) {
  if (!l.is_b() || !l.active() || results.contains(transfer)) return;
  obs::ScopedCounterDelta offline(l.cfg.params.group_op_cell(),
                                  l.observer.m.contrib_mont_muls_offline);
  (void)contributor(l, InstanceId{transfer, 1, 0});
}

void Blinding::on_init(const Local& l, const SignedMessage& env, const ResultMap& results) {
  if (!l.is_b() || !l.active()) return;
  // check_init demands signer == coordinator, and honest servers coordinate
  // only as ranks 1..f+1 (§4.1). A higher signer rank is Byzantine: drop it
  // before the signature check and before any bundle or contributor state.
  if (!l.cfg.b.is_lead(env.signer)) return;
  // Look the instance up before the signature check: an init for an
  // instance this server committed to costs it one decode.
  auto init = try_decode<InitMsg>(l.cfg, MsgType::kInit, env.body);
  if (!init || results.contains(init->id.transfer)) return;
  if (auto it = contributors_.find(init->id); it != contributors_.end() && it->second.committed) {
    // A duplicate of the init we checked (retransmission or network
    // duplication) gets the exact bytes we committed to the first time; any
    // other init for the instance is dropped.
    if (env == it->second.committed_init)
      l.resend.resend_frame(l.ctx, l.cfg.b.node_of(init->id.coordinator), it->second.commit_frame);
    return;
  }
  if (!check_init(l.cfg, env, *init)) return;
  // Mont-muls spent while serving the request are the "online" cost; with a
  // bundle built ahead this stays near zero.
  obs::ScopedCounterDelta online(l.cfg.params.group_op_cell(),
                                 l.observer.m.contrib_mont_muls_online);
  const net::NodeId coordinator = l.cfg.b.node_of(init->id.coordinator);
  ContributorState& st = contributor(l, init->id);
  st.committed = true;
  st.committed_init = env;
  st.commit_frame = l.signed_frame(encode_body(
      MsgType::kCommit, CommitMsg{init->id, l.me.rank, st.contribution.commitment_digest()}));
  l.ctx.send(coordinator, st.commit_frame);
  l.trace(obs::EventKind::kCommitSent, &init->id, {.peer = coordinator});
}

void Blinding::on_reveal(const Local& l, const SignedMessage& env) {
  if (!l.is_b() || !l.active()) return;
  // Look the instance up before any signature check: a reveal this server
  // will not answer costs it one decode, never the 2f+2 signatures.
  auto reveal = try_decode<RevealMsg>(l.cfg, MsgType::kReveal, env.body);
  if (!reveal) return;
  auto it = contributors_.find(reveal->id);
  if (it == contributors_.end() || !it->second.committed) return;  // never committed to it
  ContributorState& st = it->second;
  const net::NodeId coordinator = l.cfg.b.node_of(reveal->id.coordinator);
  // Respond to at most one reveal per instance (see validity.hpp on why this
  // matters for Randomness-Confidentiality). A duplicate of the SAME reveal
  // gets the cached contribute frame — never a re-randomized one, and without
  // checking again what was checked before the answer.
  if (st.contributed) {
    if (env == st.answered_reveal) l.resend.resend_frame(l.ctx, coordinator, st.contribute_frame);
    return;
  }
  if (behavior_ == Behavior::kWithholdContribution) return;
  // Only respond if this reveal contains our commitment (step 4).
  const bool mine = std::any_of(
      reveal->commits.begin(), reveal->commits.end(), [&](const SignedMessage& commit_env) {
        auto c = try_decode<CommitMsg>(l.cfg, MsgType::kCommit, commit_env.body);
        return c && c->server == l.me.rank && c->commitment == st.contribution.commitment_digest();
      });
  if (!mine || !check_reveal(l.cfg, env, *reveal)) return;
  st.contributed = true;
  st.answered_reveal = env;

  obs::ScopedCounterDelta online(l.cfg.params.group_op_cell(),
                                 l.observer.m.contrib_mont_muls_online);
  ContributeMsg msg;
  msg.id = reveal->id;
  msg.server = l.me.rank;
  msg.reveal = env;
  msg.contribution = st.contribution;
  // Online phase of the Fiat-Shamir split: the announcements (over the
  // consistent pair bundle.eb, also for kInconsistentContribution) were fixed
  // with the bundle; this only binds the challenge and computes responses —
  // zero group exponentiations.
  const ContributionBundle& bundle = *st.bundle;
  msg.vde = zkp::vde_prove_online(l.cfg.a.encryption_key, bundle.ea, bundle.r1,
                                  l.cfg.b.encryption_key, bundle.eb, bundle.r2, bundle.vde,
                                  vde_context(msg.id, msg.server));
  st.contribute_frame = l.signed_frame(encode_body(MsgType::kContribute, msg));
  // The answer is cached and the proof is out: nothing reads ρ, r₁, r₂ or the
  // announcement exponents again.
  st.bundle.reset();
  l.ctx.send(coordinator, st.contribute_frame);
  l.trace(obs::EventKind::kContributeSent, &reveal->id, {.peer = coordinator});
}

void Blinding::on_done(TransferId transfer) {
  const auto of_transfer = [&](const auto& kv) { return kv.first.transfer == transfer; };
  std::erase_if(contributors_, of_transfer);
  std::erase_if(coordinators_, of_transfer);
}

// --- coordinator -----------------------------------------------------------------

std::uint32_t Blinding::next_epoch(TransferId transfer) const {
  auto it = next_epoch_.find(transfer);
  return it == next_epoch_.end() ? 0 : it->second;
}

void Blinding::unfinished(std::vector<InstanceId>& out) const {
  for (const auto& [id, st] : coordinators_) out.push_back(id);
}

void Blinding::start(const Local& l, TransferId transfer, std::uint32_t epoch, Signing& signing) {
  InstanceId id{transfer, l.me.rank, epoch};
  if (coordinators_.contains(id)) return;
  next_epoch_[transfer] = std::max(next_epoch(transfer), epoch + 1);
  CoordinatorState& st = coordinators_[id];
  st.id = id;
  st.t_start = l.ctx.now();
  l.trace(obs::EventKind::kEpochStart, &id);

  if (behavior_ == Behavior::kBogusBlindCoordinator) {
    // §4.2.3 attack: skip the protocol and try to get B to sign a fabricated
    // blinding pair for an adversary-known ρ̂.
    group::Element rho_hat = l.cfg.params.random_element(l.ctx.rng());
    elgamal::Ciphertext ea = l.cfg.a.encryption_key.encrypt(rho_hat, l.ctx.rng());
    elgamal::Ciphertext eb = l.cfg.b.encryption_key.encrypt(rho_hat, l.ctx.rng());
    return sign_blind(l, id, {ea, eb}, BlindEvidence{}, signing);  // empty evidence
  }

  st.init_resend = l.resend.broadcast(l.ctx, l.cfg.b.nodes(),
                                      l.signed_frame(encode_body(MsgType::kInit, InitMsg{id})),
                                      {.transfer = transfer, .cancel_on_result = true});
}

void Blinding::coordinate(const Local& l, TransferId transfer, const ResultMap& results,
                          Signing& signing) {
  if (!l.is_b() || !l.cfg.b.is_lead(l.me.rank)) return;
  if (results.contains(transfer) || !coordinated_.insert(transfer).second) return;
  const net::Time delay = (l.me.rank - 1) * backup_delay_;
  if (delay == 0) return start(l, transfer, next_epoch(transfer), signing);
  const std::uint64_t key = next_timer_++;
  timer_ids_[key] = transfer;
  l.ctx.set_timer(delay, timer::kCoordinator | key);
}

void Blinding::on_timer(const Local& l, std::uint64_t key, const ResultMap& results,
                        Signing& signing) {
  auto it = timer_ids_.find(key);
  if (it == timer_ids_.end()) return;
  const TransferId transfer = it->second;
  timer_ids_.erase(it);
  if (l.active() && !results.contains(transfer))
    start(l, transfer, next_epoch(transfer), signing);
}

void Blinding::on_commit(const Local& l, const SignedMessage& env) {
  if (!l.is_b()) return;
  // Look the instance up before the signature check: a commit for an
  // instance this server does not coordinate, one that arrives after the
  // reveal, and a second one from the same server cost one decode each,
  // never a signature check.
  auto claimed = try_decode<CommitMsg>(l.cfg, MsgType::kCommit, env.body);
  if (!claimed) return;
  auto it = coordinators_.find(claimed->id);
  if (it == coordinators_.end()) return;
  CoordinatorState& st = it->second;
  if (st.revealed || st.commits.contains(claimed->server)) return;
  auto commit = check_commit(l.cfg, env);
  if (!commit) return;
  st.commits.emplace(commit->server, env);
  l.trace(obs::EventKind::kCommitAccepted, &st.id,
          {.peer = commit->server, .count = st.commits.size()});

  const std::size_t need = 2 * l.cfg.b.cfg.f + 1;
  if (st.commits.size() < need) return;
  st.revealed = true;
  st.t_reveal = l.ctx.now();
  l.observer.m.phase_commit_us.observe(st.t_reveal - st.t_start);
  l.trace(obs::EventKind::kRevealSent, &st.id, {.count = need});

  RevealMsg reveal;
  reveal.id = st.id;
  for (const auto& [rank, commit_env] : st.commits) {
    if (reveal.commits.size() == need) break;
    reveal.commits.push_back(commit_env);
  }
  st.reveal_env = l.sign(encode_body(MsgType::kReveal, reveal));
  l.resend.cancel(st.init_resend);  // commit round complete
  st.reveal_resend =
      l.resend.broadcast(l.ctx, l.cfg.b.nodes(), frame_signed(st.reveal_env),
                         {.transfer = st.id.transfer, .cancel_on_result = true});
}

void Blinding::on_contribute(const Local& l, const SignedMessage& env, Signing& signing) {
  if (!l.is_b()) return;
  // A rejected message's fields are not trusted for the trace: env.signer
  // names the culprit node and the event carries no transfer.
  const auto reject = [&] { l.verdict(false, true, nullptr, env.signer, MsgType::kContribute); };
  auto contribute = try_decode<ContributeMsg>(l.cfg, MsgType::kContribute, env.body);
  if (!contribute) return reject();
  // Look the instance up before any signature or VDE check: a contribute for
  // an instance this server does not coordinate, one that arrives once
  // signing has begun, a second one from a server already counted and one
  // that answers another reveal cost one decode each.
  auto it = coordinators_.find(contribute->id);
  if (it == coordinators_.end()) return;
  CoordinatorState& st = it->second;
  if (st.signing || st.contributes.contains(contribute->server)) return;
  // Accept only contributions responding to OUR reveal (the same-reveal
  // evidence rule is enforced again by the signing members).
  if (!(contribute->reveal == st.reveal_env)) return;
  if (!check_contribute(l.cfg, env, *contribute, l.ctx.rng())) return reject();
  l.verdict(true, true, &contribute->id, contribute->server, MsgType::kContribute);
  const ServerRank server = contribute->server;
  st.contributes.emplace(server, Contributed{env, std::move(*contribute)});
  try_finish(l, st, signing);
}

void Blinding::try_finish(const Local& l, CoordinatorState& st, Signing& signing) {
  const std::size_t quorum = l.cfg.b.cfg.quorum();
  if (st.contributes.size() < quorum) return;
  l.resend.cancel(st.reveal_resend);  // contribute round complete

  if (behavior_ == Behavior::kAdaptiveCancelCoordinator) {
    attack(l, st, signing);
    return;
  }

  BlindEvidence evidence;
  std::vector<elgamal::Ciphertext> eas, ebs;
  for (const auto& [rank, c] : st.contributes) {
    if (evidence.contributes.size() == quorum) break;
    evidence.contributes.push_back(c.env);
    // Transfer-isolation audit record (invariant I8/T8): a cited contribution
    // naming another transfer would expose cross-transfer contamination.
    l.trace(obs::EventKind::kContributeCited, &st.id,
            {.peer = c.msg.server, .count = c.msg.id.transfer});
    eas.push_back(c.msg.contribution.ea);
    ebs.push_back(c.msg.contribution.eb);
  }
  auto ea = l.cfg.a.encryption_key.product(eas);
  auto eb = l.cfg.b.encryption_key.product(ebs);
  if (!ea || !eb) {
    // Degenerate combined nonce (§3 side condition): request new values by
    // starting a fresh epoch.
    start(l, st.id.transfer, st.id.epoch + 1, signing);
    return;
  }
  st.signing = true;
  st.t_sign = l.ctx.now();
  l.observer.m.phase_contribute_us.observe(st.t_sign - st.t_reveal);
  l.trace(obs::EventKind::kBlindSignBegin, &st.id, {.count = quorum});

  sign_blind(l, st.id, {*ea, *eb}, evidence, signing);
}

void Blinding::sign_blind(const Local& l, const InstanceId& id, Contribution blinded,
                          const BlindEvidence& evidence, Signing& signing) {
  signing.start(l, SignPurpose::kBlind, encode_body(MsgType::kBlind, BlindPayload{id, blinded}),
                group::to_bytes(evidence), id);
}

void Blinding::on_signed(const Local& l, const ServiceSignature& sig, const ResultMap& results) {
  if (behavior_ == Behavior::kBogusBlindCoordinator ||
      behavior_ == Behavior::kAdaptiveCancelCoordinator) {
    ++attack_successes_;  // the service signed an adversarial payload
  }
  // To the A servers that act on a blind, retransmitted until this
  // transfer's result lands; a transfer with a result needs none.
  if (!results.contains(sig.id.transfer)) {
    std::vector<net::NodeId> responders;
    for (ServerRank r = 1; l.cfg.a.is_lead(r); ++r) responders.push_back(l.cfg.a.node_of(r));
    l.resend.broadcast(l.ctx, responders, frame_service(sig.msg),
                       {.transfer = sig.id.transfer, .cancel_on_result = true});
  }
  l.trace(obs::EventKind::kSignDone, &sig.id,
          {.subject = static_cast<std::uint32_t>(SignPurpose::kBlind)});
  auto it = coordinators_.find(sig.id);
  if (it != coordinators_.end() && it->second.t_sign != 0) {
    l.observer.m.phase_blind_sign_us.observe(l.ctx.now() - it->second.t_sign);
  }
}

// --- Byzantine coordinator attack ---------------------------------------------------

void Blinding::attack(const Local& l, CoordinatorState& st, Signing& signing) {
  if (st.signing) return;
  st.signing = true;
  // Having seen f+1 honest contributions to its reveal R1, the coordinator
  // crafts one that cancels all but an adversary-chosen ρ̂. Its commitment
  // was not in R1, so its contribute must embed a second reveal R2, which
  // the same-reveal rule makes every honest member reject: attack_successes()
  // stays 0 and liveness falls to the honest backup coordinators.
  const std::size_t quorum = l.cfg.b.cfg.quorum();
  const group::GroupParams& gp = l.cfg.params;
  const elgamal::PublicKey& ka = l.cfg.a.encryption_key;
  const elgamal::PublicKey& kb = l.cfg.b.encryption_key;
  mpz::Prng& rng = l.ctx.rng();

  std::vector<elgamal::Ciphertext> eas, ebs;
  BlindEvidence evidence;
  for (const auto& [rank, c] : st.contributes) {
    if (evidence.contributes.size() == quorum - 1) break;
    evidence.contributes.push_back(c.env);
    eas.push_back(c.msg.contribution.ea);
    ebs.push_back(c.msg.contribution.eb);
  }

  // Craft the canceling contribution: E(ρ̂) × Π E(ρ_i)^{-1}.
  group::Element rho_hat = gp.random_element(rng);
  elgamal::Ciphertext cancel_ea = ka.encrypt(rho_hat, rng);
  elgamal::Ciphertext cancel_eb = kb.encrypt(rho_hat, rng);
  for (std::size_t i = 0; i < eas.size(); ++i) {
    auto ma = ka.multiply(cancel_ea, ka.inverse(eas[i]));
    auto mb = kb.multiply(cancel_eb, kb.inverse(ebs[i]));
    if (!ma || !mb) return;  // negligible
    cancel_ea = *ma;
    cancel_eb = *mb;
  }

  // The attacker's contribute message. It cannot produce a valid VDE proof
  // (it does not know the nonces of the malleated ciphertexts), and its
  // commitment appears only in a freshly-fabricated reveal R2.
  Contribution cancel{cancel_ea, cancel_eb};
  RevealMsg r2;
  r2.id = st.id;
  r2.commits.push_back(l.sign(encode_body(
      MsgType::kCommit, CommitMsg{st.id, l.me.rank, cancel.commitment_digest()})));
  for (const auto& [rank, commit_env] : st.commits) {
    if (r2.commits.size() == 2 * l.cfg.b.cfg.f + 1) break;
    if (rank == l.me.rank) continue;
    r2.commits.push_back(commit_env);
  }
  ContributeMsg mine;
  mine.id = st.id;
  mine.server = l.me.rank;
  mine.reveal = l.sign(encode_body(MsgType::kReveal, r2));
  mine.contribution = cancel;
  // Bogus VDE: a proof for an unrelated honest pair.
  mpz::Bigint dummy_r1 = gp.random_exponent(rng);
  mpz::Bigint dummy_r2 = gp.random_exponent(rng);
  group::Element dummy_rho = gp.random_element(rng);
  elgamal::Ciphertext da = ka.encrypt_with_nonce(dummy_rho, dummy_r1);
  elgamal::Ciphertext db = kb.encrypt_with_nonce(dummy_rho, dummy_r2);
  mine.vde = zkp::vde_prove(ka, da, dummy_r1, kb, db, dummy_r2, vde_context(st.id, l.me.rank), rng);
  evidence.contributes.push_back(l.sign(encode_body(MsgType::kContribute, mine)));

  // Spliced payload: honest(f) × cancel == E(ρ̂).
  eas.push_back(cancel.ea);
  ebs.push_back(cancel.eb);
  auto ea = ka.product(eas);
  auto eb = kb.product(ebs);
  if (!ea || !eb) return;
  sign_blind(l, st.id, {*ea, *eb}, evidence, signing);
}

}  // namespace dblind::core

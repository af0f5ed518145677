#include "core/server.hpp"

#include "core/client.hpp"

#include <algorithm>
#include <string>

#include "mpz/modmath.hpp"
#include "threshold/reshare.hpp"
#include "zkp/batch.hpp"

namespace dblind::core {

namespace {

// Stable metric-label names for received message types.
const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kInit: return "init";
    case MsgType::kCommit: return "commit";
    case MsgType::kReveal: return "reveal";
    case MsgType::kContribute: return "contribute";
    case MsgType::kBlind: return "blind";
    case MsgType::kDone: return "done";
    case MsgType::kSignRequest: return "sign_request";
    case MsgType::kSignCommitReply: return "sign_commit_reply";
    case MsgType::kSignQuorum: return "sign_quorum";
    case MsgType::kSignRevealReply: return "sign_reveal_reply";
    case MsgType::kSignRevealSet: return "sign_reveal_set";
    case MsgType::kSignPartialReply: return "sign_partial_reply";
    case MsgType::kDecryptRequest: return "decrypt_request";
    case MsgType::kDecryptShareReply: return "decrypt_reply";
    case MsgType::kTransferRequest: return "transfer_request";
    case MsgType::kResultRequest: return "result_request";
    case MsgType::kResultReply: return "result_reply";
    case MsgType::kClientDecryptRequest: return "client_decrypt_request";
    case MsgType::kClientDecryptReply: return "client_decrypt_reply";
    case MsgType::kReconfigStart: return "reconfig_start";
    case MsgType::kReshareDeal: return "reshare_deal";
    case MsgType::kReshareSubshare: return "reshare_subshare";
    case MsgType::kReconfigApply: return "reconfig_apply";
    case MsgType::kReconfigEcho: return "reconfig_echo";
    case MsgType::kWrongEpoch: return "wrong_epoch";
    case MsgType::kReconfigPull: return "reconfig_pull";
    case MsgType::kReconfigState: return "reconfig_state";
    case MsgType::kSubsharePull: return "subshare_pull";
  }
  return "other";
}

// Clamps a MsgType to a metrics array index (0 = unknown bucket).
std::size_t type_index(MsgType t) {
  auto i = static_cast<std::size_t>(t);
  return i < ProtocolServer::Metrics::kTypes ? i : 0;
}

// Wire framing: WireKind byte + content.
std::vector<std::uint8_t> frame_signed(const SignedMessage& env) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(WireKind::kServerSigned));
  env.encode(w);
  return w.take();
}

std::vector<std::uint8_t> frame_client(std::vector<std::uint8_t> body) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(WireKind::kClient));
  w.bytes(body);
  return w.take();
}

std::vector<std::uint8_t> frame_service(const ServiceSignedMsg& msg) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(WireKind::kServiceSigned));
  msg.encode(w);
  return w.take();
}

}  // namespace

ProtocolServer::ProtocolServer(SystemConfig cfg, ServerSecrets secrets, ProtocolOptions opts,
                               Behavior behavior)
    : cfg_(std::move(cfg)), secrets_(std::move(secrets)), opts_(std::move(opts)),
      behavior_(behavior), initial_cfg_(cfg_), initial_secrets_(secrets_),
      engine_(opts_.max_inflight_transfers),
      watchdog_(opts_.watchdog_deadline) {
  // 0 remembered as "defaulted": installs re-derive f+1 from the NEW config.
  initial_max_coordinators_ = opts_.max_coordinators;
  if (opts_.max_coordinators == 0) opts_.max_coordinators = cfg_.b.cfg.f + 1;
  // Pin the protocol bases for this key epoch: every exponentiation in
  // encryption and VDE proving targets g (combed by pow_g), y_A, y_B or
  // y_A·y_B (Pr3's base). One table build per modulus, shared const across
  // all servers holding copies of these GroupParams.
  cfg_.params.pin_base(cfg_.a.encryption_key.y());
  cfg_.params.pin_base(cfg_.b.encryption_key.y());
  cfg_.params.pin_base(cfg_.params.mul(cfg_.a.encryption_key.y(), cfg_.b.encryption_key.y()));
}

void ProtocolServer::store_secret(TransferId transfer, elgamal::Ciphertext ea_m) {
  stored_[transfer] = std::move(ea_m);
}

void ProtocolServer::store_secret_at(TransferId transfer, elgamal::Ciphertext ea_m,
                                     net::Time when) {
  pending_store_[transfer] = {std::move(ea_m), when};
}

void ProtocolServer::register_transfer(TransferId transfer) { transfers_.insert(transfer); }

void ProtocolServer::register_transfer_arriving(TransferId transfer, net::Time when) {
  scheduled_arrivals_.emplace_back(when, transfer);
}

std::optional<elgamal::Ciphertext> ProtocolServer::result(TransferId transfer) const {
  auto it = results_.find(transfer);
  if (it == results_.end()) return std::nullopt;
  return it->second;
}

std::size_t ProtocolServer::signing_nonces_held() const {
  return static_cast<std::size_t>(
      std::count_if(member_sessions_.begin(), member_sessions_.end(),
                    [](const auto& kv) { return kv.second.member != nullptr; }));
}

// --- plumbing -----------------------------------------------------------------

std::vector<std::uint8_t> ProtocolServer::signed_frame(net::Context& ctx,
                                                       const std::vector<std::uint8_t>& body) {
  return frame_signed(make_envelope(secrets_, body, cfg_epoch_, ctx.rng()));
}

// --- retransmission (chaos layer) ---------------------------------------------
//
// Sender side: every liveness-critical broadcast caches its signed frames in a
// Resend entry and re-sends them on a capped exponential backoff until the
// protocol step it belongs to completes (which cancels the entry) or the
// attempt cap runs out (so the event queue always drains). Safety never
// depends on these timers — they are pure liveness (§2's asynchronous model).

std::uint64_t ProtocolServer::arm_resend(net::Context& ctx, Resend r, net::Time initial_delay,
                                         int max_attempts) {
  if (!opts_.retransmit || r.msgs.empty()) return 0;
  r.delay = initial_delay != 0 ? initial_delay : kRetransmitInitialDelay;
  r.max_attempts = max_attempts != 0 ? max_attempts : kRetransmitMaxAttempts;
  std::uint64_t key = next_resend_++;
  net::Time delay = r.delay;
  resends_[key] = std::move(r);
  ctx.set_timer(delay, kTimerResend | key);
  return key;
}

void ProtocolServer::cancel_resend(std::uint64_t& key) {
  if (key == 0) return;
  resends_.erase(key);  // the pending timer becomes an orphan no-op
  key = 0;
}

void ProtocolServer::cancel_resends_for_transfer(TransferId transfer) {
  for (auto it = resends_.begin(); it != resends_.end();) {
    if (it->second.cancel_on_result && it->second.transfer == transfer) {
      it = resends_.erase(it);
    } else {
      ++it;
    }
  }
  result_pull_keys_.erase(transfer);
}

void ProtocolServer::handle_resend_timer(net::Context& ctx, std::uint64_t key) {
  auto it = resends_.find(key);
  if (it == resends_.end()) return;  // cancelled earlier: orphan timer
  Resend& r = it->second;
  if (r.cancel_on_result && results_.contains(r.transfer)) {
    resends_.erase(it);
    return;
  }
  for (const auto& [to, frame] : r.msgs) resend_frame(ctx, to, frame);
  emit_trace(ctx, obs::EventKind::kRetransmit, nullptr,
             {.transfer = r.transfer, .peer = key, .count = r.msgs.size(),
              .attempt = static_cast<std::uint32_t>(r.attempts),
              .cap = static_cast<std::uint32_t>(r.max_attempts)});
  if (++r.attempts >= r.max_attempts) {
    resends_.erase(it);  // give up; backup coordinators / result pulls take over
    return;
  }
  r.delay = std::min(r.delay * 2, kRetransmitMaxDelay);
  ctx.set_timer(r.delay, kTimerResend | key);
}

void ProtocolServer::resend_frame(net::Context& ctx, net::NodeId to,
                                  const std::vector<std::uint8_t>& frame) {
  if (frame.empty()) return;
  retransmits_sent_.fetch_add(1, std::memory_order_relaxed);
  ctx.send(to, frame);
}

void ProtocolServer::arm_result_pull(net::Context& ctx, TransferId transfer) {
  if (!is_b() || !opts_.retransmit) return;
  if (results_.contains(transfer) || result_pull_keys_.contains(transfer)) return;
  ResultRequestMsg req;
  req.transfer = transfer;
  Writer w;
  w.u8(static_cast<std::uint8_t>(WireKind::kClient));
  w.bytes(encode_body(MsgType::kResultRequest, req));
  std::vector<std::uint8_t> frame = w.take();
  Resend r;
  for (ServerRank rank = 1; rank <= cfg_.b.cfg.n; ++rank) {
    net::NodeId peer = cfg_.b.node_of(rank);
    if (peer == ctx.self()) continue;
    r.msgs.emplace_back(peer, frame);
  }
  r.transfer = transfer;
  r.cancel_on_result = true;
  std::uint64_t key = arm_resend(ctx, std::move(r), kResultPullDelay);
  if (key != 0) result_pull_keys_[transfer] = key;
}

void ProtocolServer::handle_result_reply(net::Context& ctx, std::span<const std::uint8_t> body) {
  if (!is_b()) return;
  ResultReplyMsg msg;
  try {
    msg = decode_as<ResultReplyMsg>(MsgType::kResultReply, body, cfg_.params);
  } catch (const CodecError&) {
    return;
  }
  auto done = check_done(cfg_, msg.done);
  if (!done || done->id.transfer != msg.transfer) return;
  record_done(&ctx, *done, msg.done);
}

std::uint32_t ProtocolServer::next_epoch_of(TransferId transfer) const {
  auto it = next_epoch_.find(transfer);
  return it == next_epoch_.end() ? 0 : it->second;
}

void ProtocolServer::on_start(net::Context& ctx) {
  resolve_metrics(ctx);
  metrics_.config_epoch.set(cfg_epoch_);
  // Service A: schedule deferred secret arrivals.
  for (const auto& [transfer, pair] : pending_store_) {
    ctx.set_timer(pair.second, kTimerStoreSecret | transfer);
  }
  // Arm scheduled reconfiguration rounds. Kept across restore() — the timer
  // handler skips any spec whose epoch is already installed, so a stale
  // re-arm after a crash-restart is harmless.
  for (std::size_t i = 0; i < scheduled_reconfigs_.size(); ++i) {
    ctx.set_timer(scheduled_reconfigs_[i].first, kTimerReconfig | i);
  }
  if (restored_) {
    restored_ = false;
    // A restarted server may have slept through installs, leaving it with a
    // stale share and roster that the epoch gate would only correct once
    // epoch-stamped traffic happens to arrive. Proactively pull the install
    // certificate chain from every epoch-0 peer instead (a no-op reply if
    // nothing was installed); the pulls ride a short capped backoff so a
    // lossy link cannot strand the laggard at a dead epoch.
    ReconfigPullMsg msg;
    msg.epoch = cfg_epoch_;
    std::vector<std::uint8_t> frame = frame_client(encode_body(MsgType::kReconfigPull, msg));
    Resend r;
    for (const ServicePublic* svc : {&cfg_.a, &cfg_.b}) {
      for (ServerRank rk = 1; rk <= svc->cfg.n; ++rk) {
        net::NodeId node = svc->node_of(rk);
        if (node != ctx.self()) r.msgs.emplace_back(node, frame);
      }
    }
    for (const auto& [to, f] : r.msgs) ctx.send(to, f);
    arm_resend(ctx, std::move(r), kResultPullDelay, 5);
  }
  if (is_b()) {
    // Root key for per-instance contribution streams. One fork per
    // incarnation, so a restarted server never replays the ρ of an instance
    // it may already have committed to.
    mpz::Prng root = ctx.rng().fork("transfer-rng-root");
    root.fill(instance_rng_root_);
    // Coordinator scheduling (§4.1): rank 1 is the designated coordinator;
    // ranks 2..f+1 are delayed backups. After a restart, completed transfers
    // (restored from the durable done messages) are skipped, and the epoch
    // continues past anything this server may have announced pre-crash.
    // Standby servers (rank 0) hold no roster slot and drive nothing. Every
    // start now passes through the admission engine; with the default
    // unlimited cap the engine admits everything immediately.
    for (TransferId t : transfers_) schedule_coordinator(ctx, t);
    // Open-loop arrivals become registered transfers at their virtual time.
    for (std::size_t i = 0; i < scheduled_arrivals_.size(); ++i) {
      ctx.set_timer(scheduled_arrivals_[i].first, kTimerTransferArrival | i);
    }
    // Recovery: periodically pull missing results from peer B servers (no-op
    // for completed transfers; cancelled as soon as a result arrives).
    for (TransferId t : transfers_) arm_result_pull(ctx, t);
    // Stall watchdog: track every registered-but-unfinished transfer from the
    // moment this incarnation starts (later arrivals and epoch re-admissions
    // self-arm through the emit_trace hook).
    if (watchdog_.enabled()) {
      for (TransferId t : transfers_) {
        if (!results_.contains(t)) watchdog_.arm(t, ctx.now());
      }
      arm_watchdog_timer(ctx);
    }
    // Step flexibility: pre-compute the contribution bundle (encryptions and
    // VDE announcements) for the designated coordinator's first instance
    // before any init arrives. The keyed stream makes it exactly the bundle
    // that instance would derive on demand.
    if (active() && opts_.precompute_contributions) {
      obs::ScopedCounterDelta offline(cfg_.params.mont_mul_cell(),
                                      metrics_.contrib_mont_muls_offline);
      for (TransferId t : transfers_) {
        if (!results_.contains(t)) (void)contributor_state(InstanceId{t, 1, 0});
      }
    }
  }
}

void ProtocolServer::on_timer(net::Context& ctx, std::uint64_t token) {
  auto t0 = std::chrono::steady_clock::now();
  std::uint64_t kind = token & (0xffull << 56);
  std::uint64_t arg = token & ~(0xffull << 56);
  if (kind == kTimerCoordinator) {
    TransferId t = arg;
    // Engine gate: the timer was armed at admission, but an epoch install may
    // have demoted the transfer back to the queue since — a demoted transfer
    // restarts via a fresh admission (and a fresh timer), never a stale one.
    if (active() && !results_.contains(t) &&
        engine_.phase(t) == TransferPhase::kActive) {
      start_coordinator(ctx, t, next_epoch_of(t));
    }
  } else if (kind == kTimerTransferArrival) {
    if (arg < scheduled_arrivals_.size()) {
      TransferId t = scheduled_arrivals_[arg].second;
      // Same path as a client kTransferRequest landing now.
      if (transfers_.insert(t).second) {
        schedule_coordinator(ctx, t);
        arm_result_pull(ctx, t);
      }
    }
  } else if (kind == kTimerReconfig) {
    if (arg < scheduled_reconfigs_.size()) {
      const ReconfigSpec& spec = scheduled_reconfigs_[arg].second;
      if (active() && cfg_epoch_ < spec.epoch) start_reconfig_round(ctx, spec);
    }
  } else if (kind == kTimerResend) {
    handle_resend_timer(ctx, arg);
  } else if (kind == kTimerResponder) {
    auto it = responder_timer_ids_.find(arg);
    if (it != responder_timer_ids_.end()) {
      InstanceId id = it->second;
      if (!seen_blind_.contains(id)) start_responder(ctx, id);
    }
  } else if (kind == kTimerSignRetry) {
    sign_session_retry(ctx, arg);
  } else if (kind == kTimerStoreSecret) {
    TransferId t = arg;
    auto it = pending_store_.find(t);
    if (it != pending_store_.end()) {
      stored_[t] = it->second.first;
      pending_store_.erase(it);
      // Replay blind messages that arrived before the secret existed.
      std::vector<ServiceSignedMsg> parked = std::move(parked_blinds_);
      parked_blinds_.clear();
      for (ServiceSignedMsg& m : parked) handle_blind(ctx, m);
    }
  } else if (kind == kTimerWatchdog) {
    watchdog_tick(ctx);
  }
  cpu_seconds_ += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void ProtocolServer::on_message(net::Context& ctx, net::NodeId from,
                                std::span<const std::uint8_t> bytes) {
  if (behavior_ == Behavior::kSilent) return;
  auto t0 = std::chrono::steady_clock::now();
  MsgType rx_type{};
  try {
    Reader r(bytes, &cfg_.params);
    auto kind = static_cast<WireKind>(r.u8());
    if (kind == WireKind::kServerSigned) {
      SignedMessage env = SignedMessage::decode(r);
      r.expect_done();
      rx_type = peek_type(env.body);
      ++rx_counts_[rx_type];
      const std::size_t ti = type_index(rx_type);
      metrics_.rx_msgs[ti].inc();
      metrics_.rx_bytes[ti].inc(bytes.size());
      obs::ScopedCounterDelta mont(cfg_.params.mont_mul_cell(), metrics_.mont_muls[ti]);
      // Epoch gate (I6 sender side): every server-signed message is stamped
      // with — and signature-bound to — its sender's config epoch. A stale
      // message gets a typed kWrongEpoch so the sender can catch up and
      // retransmit under the new configuration; a FUTURE stamp means WE are
      // behind — probe the sender for the install chain. Either way the
      // message itself is dropped: handlers only ever see same-epoch traffic.
      if (env.cfg_epoch != cfg_epoch_) {
        if (env.cfg_epoch < cfg_epoch_) {
          metrics_.reconfig_stale_rejects.inc();
          maybe_send_wrong_epoch(ctx, from, env);
        } else {
          send_reconfig_pull(ctx, from);
        }
      } else {
        switch (rx_type) {
          case MsgType::kInit: handle_init(ctx, env); break;
          case MsgType::kCommit: handle_commit(ctx, env); break;
          case MsgType::kReveal: handle_reveal(ctx, env); break;
          case MsgType::kContribute: handle_contribute(ctx, env); break;
          case MsgType::kSignRequest: handle_sign_request(ctx, env); break;
          case MsgType::kSignCommitReply: handle_sign_commit_reply(ctx, env); break;
          case MsgType::kSignQuorum: handle_sign_quorum(ctx, env); break;
          case MsgType::kSignRevealReply: handle_sign_reveal_reply(ctx, env); break;
          case MsgType::kSignRevealSet: handle_sign_reveal_set(ctx, env); break;
          case MsgType::kSignPartialReply: handle_sign_partial_reply(ctx, env); break;
          case MsgType::kDecryptRequest: handle_decrypt_request(ctx, env); break;
          case MsgType::kDecryptShareReply: handle_decrypt_share_reply(ctx, env); break;
          case MsgType::kReconfigStart: handle_reconfig_start(ctx, env); break;
          case MsgType::kReshareDeal: handle_reshare_deal(ctx, env); break;
          case MsgType::kReconfigApply: handle_reconfig_apply(ctx, env); break;
          case MsgType::kReconfigEcho: handle_reconfig_echo(ctx, env); break;
          default: break;  // not a server-signed kind — ignore
        }
      }
    } else if (kind == WireKind::kServiceSigned) {
      ServiceSignedMsg msg = ServiceSignedMsg::decode(r);
      r.expect_done();
      rx_type = peek_type(msg.body);
      ++rx_counts_[rx_type];
      const std::size_t ti = type_index(rx_type);
      metrics_.rx_msgs[ti].inc();
      metrics_.rx_bytes[ti].inc(bytes.size());
      obs::ScopedCounterDelta mont(cfg_.params.mont_mul_cell(), metrics_.mont_muls[ti]);
      switch (rx_type) {
        case MsgType::kBlind: handle_blind(ctx, msg); break;
        case MsgType::kDone: handle_done(ctx, msg); break;
        default: break;
      }
    } else if (kind == WireKind::kClient) {
      std::vector<std::uint8_t> body = r.bytes();
      r.expect_done();
      rx_type = peek_type(body);
      ++rx_counts_[rx_type];
      const std::size_t ti = type_index(rx_type);
      metrics_.rx_msgs[ti].inc();
      metrics_.rx_bytes[ti].inc(bytes.size());
      obs::ScopedCounterDelta mont(cfg_.params.mont_mul_cell(), metrics_.mont_muls[ti]);
      switch (rx_type) {
        case MsgType::kTransferRequest: handle_transfer_request(ctx, from, body); break;
        case MsgType::kResultRequest: handle_result_request(ctx, from, body); break;
        case MsgType::kResultReply: handle_result_reply(ctx, body); break;
        case MsgType::kClientDecryptRequest:
          handle_client_decrypt_request(ctx, from, body);
          break;
        case MsgType::kReshareSubshare: handle_reshare_subshare(ctx, body); break;
        case MsgType::kWrongEpoch: handle_wrong_epoch(ctx, from, body); break;
        case MsgType::kReconfigPull: handle_reconfig_pull(ctx, from, body); break;
        case MsgType::kReconfigState: handle_reconfig_state(ctx, from, body); break;
        case MsgType::kSubsharePull: handle_subshare_pull(ctx, from, body); break;
        default: break;
      }
    }
  } catch (const CodecError&) {
    // Malformed message: indistinguishable from loss (§4.2.3).
  }
  const auto wall = std::chrono::steady_clock::now() - t0;
  cpu_seconds_ += std::chrono::duration<double>(wall).count();
  metrics_.handler_wall_us[type_index(rx_type)].observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(wall).count()));
}

// --- contributor role (B) --------------------------------------------------------

ProtocolServer::ContributorState& ProtocolServer::contributor_state(const InstanceId& id) {
  auto it = contributor_.find(id);
  if (it != contributor_.end()) return it->second;

  // The instance's keyed stream: its bundle depends only on the incarnation
  // root and the instance's public coordinates, never on how many other
  // transfers were served first. This makes a transfer's wire bytes
  // interleaving-independent (the concurrent-vs-sequential equivalence
  // panel) and lets on_start precompute the exact bundle an instance will
  // use (the precompute on/off equivalence panel).
  hash::Sha256 h;
  h.update(std::span<const std::uint8_t>(instance_rng_root_.data(), instance_rng_root_.size()));
  std::array<std::uint8_t, 20> coords{};
  for (int i = 0; i < 8; ++i) coords[i] = static_cast<std::uint8_t>(id.transfer >> (8 * i));
  for (int i = 0; i < 4; ++i) coords[8 + i] = static_cast<std::uint8_t>(id.coordinator >> (8 * i));
  for (int i = 0; i < 4; ++i) coords[12 + i] = static_cast<std::uint8_t>(id.epoch >> (8 * i));
  for (int i = 0; i < 4; ++i) coords[16 + i] = static_cast<std::uint8_t>(cfg_epoch_ >> (8 * i));
  h.update(std::span<const std::uint8_t>(coords.data(), coords.size()));
  mpz::Prng instance_prng(h.finish());

  ContributorState st;
  const group::GroupParams& gp = cfg_.params;
  st.bundle = make_contribution_bundle(cfg_, instance_prng);
  st.contribution.ea = st.bundle.ea;
  if (behavior_ == Behavior::kInconsistentContribution) {
    // §4.2.2 attack: E_B encrypts a different plaintext (ρ' != ρ). No valid
    // VDE proof exists for the pair; handle_reveal attaches a proof computed
    // for the consistent shadow pair, so the mismatch is only detectable
    // through VDE verification, not through message shape.
    group::Element rho_bad = gp.mul(st.bundle.rho, gp.g());
    st.contribution.eb = cfg_.b.encryption_key.encrypt_with_nonce(rho_bad, st.bundle.r2);
  } else {
    st.contribution.eb = st.bundle.eb;
  }
  return contributor_.emplace(id, std::move(st)).first->second;
}

void ProtocolServer::handle_init(net::Context& ctx, const SignedMessage& env) {
  if (!is_b() || !active()) return;
  // check_init demands signer == coordinator, and honest servers never
  // coordinate above max_coordinators (schedule_coordinator). A higher
  // signer rank is Byzantine: drop it before the signature check and before
  // any bundle derivation or contributor state.
  if (env.signer > opts_.max_coordinators) return;
  auto init = check_init(cfg_, env);
  if (!init) return;
  // Mont-muls spent while serving the request are the "online" cost; with a
  // precomputed bundle this stays near zero.
  obs::ScopedCounterDelta online(cfg_.params.mont_mul_cell(), metrics_.contrib_mont_muls_online);
  ContributorState& st = contributor_state(init->id);
  if (st.committed) {
    // Duplicate init (retransmission or network duplication): answer with the
    // exact bytes we committed to the first time.
    resend_frame(ctx, cfg_.b.node_of(init->id.coordinator), st.commit_frame);
    return;
  }
  st.committed = true;

  CommitMsg commit;
  commit.id = init->id;
  commit.server = secrets_.rank;
  commit.commitment = st.contribution.commitment_digest();
  st.commit_frame = signed_frame(ctx, encode_body(MsgType::kCommit, commit));
  ctx.send(cfg_.b.node_of(init->id.coordinator), st.commit_frame);
  emit_trace(ctx, obs::EventKind::kCommitSent, &init->id,
             {.peer = cfg_.b.node_of(init->id.coordinator)});
}

void ProtocolServer::handle_reveal(net::Context& ctx, const SignedMessage& env) {
  if (!is_b() || !active()) return;
  auto reveal = check_reveal(cfg_, env);
  if (!reveal) return;
  auto it = contributor_.find(reveal->id);
  if (it == contributor_.end()) return;  // never committed for this instance
  ContributorState& st = it->second;
  // Respond to at most one reveal per instance (see validity.hpp header on
  // why this matters for Randomness-Confidentiality). A duplicate of the
  // SAME reveal gets the cached contribute frame — never a re-randomized one.
  if (st.contributed) {
    if (env == st.answered_reveal)
      resend_frame(ctx, cfg_.b.node_of(reveal->id.coordinator), st.contribute_frame);
    return;
  }
  if (behavior_ == Behavior::kWithholdContribution) return;
  // Only respond if this reveal contains our commitment (step 4).
  bool mine = false;
  for (const SignedMessage& commit_env : reveal->commits) {
    try {
      CommitMsg c = decode_as<CommitMsg>(MsgType::kCommit, commit_env.body, cfg_.params);
      if (c.server == secrets_.rank &&
          c.commitment == st.contribution.commitment_digest()) {
        mine = true;
        break;
      }
    } catch (const CodecError&) {
    }
  }
  if (!mine) return;
  st.contributed = true;
  st.answered_reveal = env;

  obs::ScopedCounterDelta online(cfg_.params.mont_mul_cell(), metrics_.contrib_mont_muls_online);
  ContributeMsg msg;
  msg.id = reveal->id;
  msg.server = secrets_.rank;
  msg.reveal = env;
  msg.contribution = st.contribution;
  // Online phase of the Fiat-Shamir split: the announcements (and, for the
  // kInconsistentContribution attack, the consistent shadow pair bundle.eb
  // the proof is honestly generated over) were fixed when the bundle was
  // built; here we only bind the challenge to the transcript and compute
  // responses — cheap modular arithmetic, zero group exponentiations.
  const ContributionBundle& bundle = st.bundle;
  msg.vde = zkp::vde_prove_online(cfg_.a.encryption_key, bundle.ea, bundle.r1,
                                  cfg_.b.encryption_key, bundle.eb, bundle.r2, bundle.vde,
                                  vde_context(msg.id, msg.server));
  st.contribute_frame = signed_frame(ctx, encode_body(MsgType::kContribute, msg));
  ctx.send(cfg_.b.node_of(reveal->id.coordinator), st.contribute_frame);
  emit_trace(ctx, obs::EventKind::kContributeSent, &reveal->id,
             {.peer = cfg_.b.node_of(reveal->id.coordinator)});
}

// --- coordinator role (B) ----------------------------------------------------------

void ProtocolServer::start_coordinator(net::Context& ctx, TransferId transfer,
                                       std::uint32_t epoch) {
  InstanceId id{transfer, secrets_.rank, epoch};
  if (coordinator_.contains(id)) return;
  // Durable epoch bump: a restarted coordinator must not reuse an epoch it
  // may already have announced with a different (lost) contribution set.
  next_epoch_[transfer] = std::max(next_epoch_of(transfer), epoch + 1);
  CoordinatorState st;
  st.id = id;
  st.t_start = ctx.now();
  coordinator_[id] = std::move(st);
  emit_trace(ctx, obs::EventKind::kEpochStart, &id);

  if (behavior_ == Behavior::kBogusBlindCoordinator) {
    // §4.2.3 attack: skip the protocol and try to get B to sign a fabricated
    // blinding pair for an adversary-known ρ̂.
    group::Element rho_hat = cfg_.params.random_element(ctx.rng());
    BlindPayload payload;
    payload.id = id;
    payload.blinded.ea = cfg_.a.encryption_key.encrypt(rho_hat, ctx.rng());
    payload.blinded.eb = cfg_.b.encryption_key.encrypt(rho_hat, ctx.rng());
    Writer w;
    BlindEvidence{}.encode(w);  // empty evidence
    start_sign_session(ctx, SignPurpose::kBlind, encode_body(MsgType::kBlind, payload), w.take());
    return;
  }

  InitMsg init{id};
  std::vector<std::uint8_t> framed = signed_frame(ctx, encode_body(MsgType::kInit, init));
  Resend r;
  for (ServerRank rank = 1; rank <= cfg_.b.cfg.n; ++rank) {
    ctx.send(cfg_.b.node_of(rank), framed);
    r.msgs.emplace_back(cfg_.b.node_of(rank), framed);
  }
  r.transfer = transfer;
  r.cancel_on_result = true;
  coordinator_[id].init_resend = arm_resend(ctx, std::move(r));
}

void ProtocolServer::handle_commit(net::Context& ctx, const SignedMessage& env) {
  if (!is_b()) return;
  auto commit = check_commit(cfg_, env);
  if (!commit) return;
  auto it = coordinator_.find(commit->id);
  if (it == coordinator_.end()) return;
  CoordinatorState& st = it->second;
  if (st.revealed) return;
  if (st.commits.emplace(commit->server, env).second) {
    emit_trace(ctx, obs::EventKind::kCommitAccepted, &st.id,
               {.peer = commit->server, .count = st.commits.size()});
  }

  const std::size_t need = 2 * cfg_.b.cfg.f + 1;
  if (st.commits.size() < need) return;
  st.revealed = true;
  st.t_reveal = ctx.now();
  metrics_.phase_commit_us.observe(st.t_reveal - st.t_start);
  emit_trace(ctx, obs::EventKind::kRevealSent, &st.id, {.count = need});

  RevealMsg reveal;
  reveal.id = st.id;
  for (const auto& [rank, commit_env] : st.commits) {
    if (reveal.commits.size() == need) break;
    reveal.commits.push_back(commit_env);
  }
  std::vector<std::uint8_t> body = encode_body(MsgType::kReveal, reveal);
  SignedMessage reveal_env = make_envelope(secrets_, body, cfg_epoch_, ctx.rng());
  st.reveal_env = reveal_env;
  std::vector<std::uint8_t> framed = frame_signed(reveal_env);
  cancel_resend(st.init_resend);  // commit round complete
  Resend rs;
  for (ServerRank r = 1; r <= cfg_.b.cfg.n; ++r) {
    ctx.send(cfg_.b.node_of(r), framed);
    rs.msgs.emplace_back(cfg_.b.node_of(r), framed);
  }
  rs.transfer = st.id.transfer;
  rs.cancel_on_result = true;
  st.reveal_resend = arm_resend(ctx, std::move(rs));
}

void ProtocolServer::handle_contribute(net::Context& ctx, const SignedMessage& env) {
  if (!is_b()) return;
  auto contribute = check_contribute_batch(cfg_, env, ctx.rng());
  if (!contribute) {
    // A rejected message is never decoded for the trace: env.signer names
    // the culprit node and the event carries no transfer.
    metrics_.verify_fail.inc();
    metrics_.batch_fallbacks.inc();
    emit_trace(ctx, obs::EventKind::kVerifyFail, nullptr,
               {.peer = env.signer, .subject = static_cast<std::uint32_t>(MsgType::kContribute)});
    return;
  }
  metrics_.verify_pass.inc();
  emit_trace(ctx, obs::EventKind::kVerifyPass, &contribute->id,
             {.peer = contribute->server,
              .subject = static_cast<std::uint32_t>(MsgType::kContribute)});
  auto it = coordinator_.find(contribute->id);
  if (it == coordinator_.end()) return;
  CoordinatorState& st = it->second;
  if (st.signing || st.sent_blind) return;
  // Accept only contributions responding to OUR reveal (the same-reveal
  // evidence rule is enforced again by every signing member).
  if (!(contribute->reveal == st.reveal_env)) return;
  st.contributes.emplace(contribute->server, env);
  coordinator_try_finish(ctx, st);
}

void ProtocolServer::coordinator_try_finish(net::Context& ctx, CoordinatorState& st) {
  const std::size_t quorum = cfg_.b.cfg.quorum();
  if (st.contributes.size() < quorum) return;
  cancel_resend(st.reveal_resend);  // contribute round complete

  if (behavior_ == Behavior::kAdaptiveCancelCoordinator) {
    attack_coordinator_step(ctx, st);
    return;
  }

  BlindEvidence evidence;
  std::vector<elgamal::Ciphertext> eas, ebs;
  for (const auto& [rank, env] : st.contributes) {
    if (evidence.contributes.size() == quorum) break;
    evidence.contributes.push_back(env);
    ContributeMsg c = decode_as<ContributeMsg>(MsgType::kContribute, env.body, cfg_.params);
    // Transfer-isolation audit record (invariant I8/T8): every contribution
    // cited by this instance's evidence names the transfer it was produced
    // for. With the per-transfer state machines this matches st.id.transfer
    // by construction; a cross-transfer contamination bug in the concurrent
    // engine would surface here as a mismatch.
    emit_trace(ctx, obs::EventKind::kContributeCited, &st.id,
               {.peer = c.server, .count = c.id.transfer});
    eas.push_back(c.contribution.ea);
    ebs.push_back(c.contribution.eb);
  }
  auto ea = cfg_.a.encryption_key.product(eas);
  auto eb = cfg_.b.encryption_key.product(ebs);
  if (!ea || !eb) {
    // Degenerate combined nonce (§3 side condition): request new values by
    // starting a fresh epoch.
    start_coordinator(ctx, st.id.transfer, st.id.epoch + 1);
    return;
  }
  st.signing = true;
  st.t_sign = ctx.now();
  metrics_.phase_contribute_us.observe(st.t_sign - st.t_reveal);
  emit_trace(ctx, obs::EventKind::kBlindSignBegin, &st.id, {.count = quorum});

  BlindPayload payload;
  payload.id = st.id;
  payload.blinded.ea = *ea;
  payload.blinded.eb = *eb;
  Writer w;
  evidence.encode(w);
  start_sign_session(ctx, SignPurpose::kBlind, encode_body(MsgType::kBlind, payload), w.take());
}

// --- Byzantine coordinator attacks ---------------------------------------------------

void ProtocolServer::attack_coordinator_step(net::Context& ctx, CoordinatorState& st) {
  if (st.signing) return;
  st.signing = true;
  // The §4.2.1 adaptive attack, mounted against the hardened protocol: the
  // compromised coordinator has seen f+1 honest contributions (responding to
  // its reveal R1). It now crafts a contribution that cancels all but the
  // adversary-chosen ρ̂ and tries to splice it into the evidence. Its own
  // commitment was not in R1, so its contribute message must embed a second
  // reveal R2 — violating the same-reveal rule that honest signing members
  // enforce. The sign request below is therefore rejected by every honest
  // member; attack_successes() stays 0 and liveness falls to the honest
  // backup coordinators.
  const std::size_t quorum = cfg_.b.cfg.quorum();
  const group::GroupParams& gp = cfg_.params;

  std::vector<elgamal::Ciphertext> eas, ebs;
  BlindEvidence evidence;
  for (const auto& [rank, env] : st.contributes) {
    if (evidence.contributes.size() == quorum - 1) break;
    evidence.contributes.push_back(env);
    ContributeMsg c = decode_as<ContributeMsg>(MsgType::kContribute, env.body, cfg_.params);
    eas.push_back(c.contribution.ea);
    ebs.push_back(c.contribution.eb);
  }

  // Craft the canceling contribution: E(ρ̂) × Π E(ρ_i)^{-1}.
  group::Element rho_hat = gp.random_element(ctx.rng());
  elgamal::Ciphertext cancel_ea = cfg_.a.encryption_key.encrypt(rho_hat, ctx.rng());
  elgamal::Ciphertext cancel_eb = cfg_.b.encryption_key.encrypt(rho_hat, ctx.rng());
  for (std::size_t i = 0; i < eas.size(); ++i) {
    auto ma = cfg_.a.encryption_key.multiply(cancel_ea, cfg_.a.encryption_key.inverse(eas[i]));
    auto mb = cfg_.b.encryption_key.multiply(cancel_eb, cfg_.b.encryption_key.inverse(ebs[i]));
    if (!ma || !mb) return;  // negligible
    cancel_ea = *ma;
    cancel_eb = *mb;
  }

  // Build the attacker's contribute message. It cannot produce a valid VDE
  // proof (it does not know the nonces of the malleated ciphertexts), and
  // its commitment appears only in a freshly-fabricated reveal R2.
  Contribution cancel{cancel_ea, cancel_eb};
  CommitMsg my_commit;
  my_commit.id = st.id;
  my_commit.server = secrets_.rank;
  my_commit.commitment = cancel.commitment_digest();
  SignedMessage my_commit_env = make_envelope(secrets_, encode_body(MsgType::kCommit, my_commit),
                                              cfg_epoch_, ctx.rng());

  RevealMsg r2;
  r2.id = st.id;
  r2.commits.push_back(my_commit_env);
  for (const auto& [rank, commit_env] : st.commits) {
    if (r2.commits.size() == 2 * cfg_.b.cfg.f + 1) break;
    if (rank == secrets_.rank) continue;
    r2.commits.push_back(commit_env);
  }
  SignedMessage r2_env =
      make_envelope(secrets_, encode_body(MsgType::kReveal, r2), cfg_epoch_, ctx.rng());

  ContributeMsg mine;
  mine.id = st.id;
  mine.server = secrets_.rank;
  mine.reveal = r2_env;
  mine.contribution = cancel;
  // Bogus VDE: a proof for an unrelated honest pair.
  mpz::Bigint dummy_r1 = gp.random_exponent(ctx.rng());
  mpz::Bigint dummy_r2 = gp.random_exponent(ctx.rng());
  group::Element dummy_rho = gp.random_element(ctx.rng());
  elgamal::Ciphertext da = cfg_.a.encryption_key.encrypt_with_nonce(dummy_rho, dummy_r1);
  elgamal::Ciphertext db = cfg_.b.encryption_key.encrypt_with_nonce(dummy_rho, dummy_r2);
  mine.vde = zkp::vde_prove(cfg_.a.encryption_key, da, dummy_r1, cfg_.b.encryption_key, db,
                            dummy_r2, vde_context(st.id, secrets_.rank), ctx.rng());
  SignedMessage mine_env = make_envelope(secrets_, encode_body(MsgType::kContribute, mine),
                                         cfg_epoch_, ctx.rng());
  evidence.contributes.push_back(mine_env);

  // Spliced payload: honest(f) × cancel == E(ρ̂).
  eas.push_back(cancel.ea);
  ebs.push_back(cancel.eb);
  auto ea = cfg_.a.encryption_key.product(eas);
  auto eb = cfg_.b.encryption_key.product(ebs);
  if (!ea || !eb) return;

  BlindPayload payload;
  payload.id = st.id;
  payload.blinded.ea = *ea;
  payload.blinded.eb = *eb;
  Writer w;
  evidence.encode(w);
  start_sign_session(ctx, SignPurpose::kBlind, encode_body(MsgType::kBlind, payload), w.take());
}

// --- threshold-signing coordinator ----------------------------------------------------

std::uint64_t ProtocolServer::start_sign_session(net::Context& ctx, SignPurpose purpose,
                                                 std::vector<std::uint8_t> payload,
                                                 std::vector<std::uint8_t> evidence,
                                                 std::set<ServerRank> excluded, int attempt) {
  // Abandon after enough failed attempts (each retry excludes provably-bad
  // members or re-solicits; f+2 attempts suffice against f Byzantine
  // members under eventual delivery).
  if (attempt > static_cast<int>(my_service().cfg.f) + 2) return 0;

  std::uint64_t session = next_session_++;
  SignSession ss;
  ss.session = session;
  ss.purpose = purpose;
  ss.payload = payload;
  ss.evidence = evidence;
  ss.excluded = std::move(excluded);
  ss.attempt = attempt;
  // Transfer id for result-based retransmission cancellation (B only; A never
  // records results_, so its done sessions rely on the attempt cap).
  try {
    if (purpose == SignPurpose::kBlind) {
      ss.transfer = decode_as<BlindPayload>(MsgType::kBlind, payload, cfg_.params).id.transfer;
    } else {
      ss.transfer = decode_as<DonePayload>(MsgType::kDone, payload, cfg_.params).id.transfer;
    }
  } catch (const CodecError&) {
  }
  ss.cancel_on_result = is_b();
  sign_sessions_[session] = std::move(ss);
  SignSession& stored = sign_sessions_[session];

  SignRequestMsg req;
  req.session = session;
  req.purpose = static_cast<std::uint8_t>(purpose);
  req.payload = std::move(payload);
  req.evidence = std::move(evidence);
  std::vector<std::uint8_t> framed =
      signed_frame(ctx, encode_body(MsgType::kSignRequest, req));
  const ServicePublic& svc = my_service();
  Resend r;
  for (ServerRank rank = 1; rank <= svc.cfg.n; ++rank) {
    ctx.send(svc.node_of(rank), framed);
    r.msgs.emplace_back(svc.node_of(rank), framed);
  }
  r.transfer = stored.transfer;
  r.cancel_on_result = stored.cancel_on_result;
  stored.round_resend = arm_resend(ctx, std::move(r));
  // With retransmission on, a stalled round usually means loss, not a bad
  // member: back off exponentially so resends get a chance before the session
  // is torn down and restarted.
  net::Time retry = opts_.signing_retry_delay;
  if (opts_.retransmit) retry <<= std::min(attempt, 4);
  ctx.set_timer(retry, kTimerSignRetry | session);
  return session;
}

void ProtocolServer::sign_session_retry(net::Context& ctx, std::uint64_t session) {
  auto it = sign_sessions_.find(session);
  if (it == sign_sessions_.end() || it->second.done) return;
  SignSession ss = std::move(it->second);
  sign_sessions_.erase(it);
  cancel_resend(ss.round_resend);
  if (ss.cancel_on_result && results_.contains(ss.transfer)) return;  // moot
  // Exclude quorum members that stalled the session mid-way; they had their
  // chance. Cap total exclusions at f — beyond that we may be excluding
  // slow-but-honest members, so start over with a clean slate.
  std::set<ServerRank> excluded = ss.excluded;
  if (!ss.quorum.empty()) {
    for (const threshold::NonceCommitment& c : ss.quorum) {
      if (!ss.partials.contains(c.index)) excluded.insert(c.index);
    }
  }
  if (excluded.size() > my_service().cfg.f) excluded.clear();
  start_sign_session(ctx, ss.purpose, std::move(ss.payload), std::move(ss.evidence),
                     std::move(excluded), ss.attempt + 1);
}

void ProtocolServer::handle_sign_commit_reply(net::Context& ctx, const SignedMessage& env) {
  if (!envelope_signature_ok(cfg_, env)) return;
  if (env.service != static_cast<std::uint8_t>(secrets_.role)) return;
  SignCommitReplyMsg msg;
  try {
    msg = decode_as<SignCommitReplyMsg>(MsgType::kSignCommitReply, env.body, cfg_.params);
  } catch (const CodecError&) {
    return;
  }
  auto it = sign_sessions_.find(msg.session);
  if (it == sign_sessions_.end()) return;
  SignSession& ss = it->second;
  if (ss.done || !ss.quorum.empty()) return;
  if (msg.commit.index != env.signer) return;
  if (ss.excluded.contains(env.signer)) return;
  ss.commits.emplace(env.signer, msg.commit);

  const std::size_t need = 2 * my_service().cfg.f + 1;
  if (ss.commits.size() < need) return;
  // Quorum: first f+1 committers in rank order (deterministic).
  for (const auto& [rank, commit] : ss.commits) {
    if (ss.quorum.size() == my_service().cfg.quorum()) break;
    ss.quorum.push_back(commit);
  }
  SignQuorumMsg q;
  q.session = ss.session;
  q.quorum = ss.quorum;
  cancel_resend(ss.round_resend);  // commit round complete
  std::vector<std::uint8_t> framed =
      signed_frame(ctx, encode_body(MsgType::kSignQuorum, q));
  const ServicePublic& svc = my_service();
  Resend r;
  for (ServerRank rank = 1; rank <= svc.cfg.n; ++rank) {
    ctx.send(svc.node_of(rank), framed);
    r.msgs.emplace_back(svc.node_of(rank), framed);
  }
  r.transfer = ss.transfer;
  r.cancel_on_result = ss.cancel_on_result;
  ss.round_resend = arm_resend(ctx, std::move(r));
}

void ProtocolServer::handle_sign_reveal_reply(net::Context& ctx, const SignedMessage& env) {
  if (!envelope_signature_ok(cfg_, env)) return;
  if (env.service != static_cast<std::uint8_t>(secrets_.role)) return;
  SignRevealReplyMsg msg;
  try {
    msg = decode_as<SignRevealReplyMsg>(MsgType::kSignRevealReply, env.body, cfg_.params);
  } catch (const CodecError&) {
    return;
  }
  auto it = sign_sessions_.find(msg.session);
  if (it == sign_sessions_.end()) return;
  SignSession& ss = it->second;
  if (ss.done || ss.quorum.empty()) return;
  if (msg.reveal.index != env.signer) return;
  if (ss.reveals.contains(env.signer)) return;
  // The reveal must come from a quorum member and match its commitment.
  auto cit = std::find_if(ss.quorum.begin(), ss.quorum.end(),
                          [&](const auto& c) { return c.index == env.signer; });
  if (cit == ss.quorum.end()) return;
  if (threshold::nonce_commitment_digest(cfg_.params, msg.reveal) != cit->digest) return;
  ss.reveals.emplace(env.signer, msg.reveal);
  if (ss.reveals.size() < ss.quorum.size()) return;

  SignRevealSetMsg rs;
  rs.session = ss.session;
  for (const auto& [rank, reveal] : ss.reveals) rs.reveals.push_back(reveal);
  cancel_resend(ss.round_resend);  // reveal round complete
  std::vector<std::uint8_t> framed =
      signed_frame(ctx, encode_body(MsgType::kSignRevealSet, rs));
  const ServicePublic& svc = my_service();
  Resend r;
  for (ServerRank rank = 1; rank <= svc.cfg.n; ++rank) {
    ctx.send(svc.node_of(rank), framed);
    r.msgs.emplace_back(svc.node_of(rank), framed);
  }
  r.transfer = ss.transfer;
  r.cancel_on_result = ss.cancel_on_result;
  ss.round_resend = arm_resend(ctx, std::move(r));
}

void ProtocolServer::handle_sign_partial_reply(net::Context& ctx, const SignedMessage& env) {
  if (!envelope_signature_ok(cfg_, env)) return;
  if (env.service != static_cast<std::uint8_t>(secrets_.role)) return;
  SignPartialReplyMsg msg;
  try {
    msg = decode_as<SignPartialReplyMsg>(MsgType::kSignPartialReply, env.body, cfg_.params);
  } catch (const CodecError&) {
    return;
  }
  auto it = sign_sessions_.find(msg.session);
  if (it == sign_sessions_.end()) return;
  SignSession& ss = it->second;
  if (ss.done || ss.reveals.size() != ss.quorum.size() || ss.quorum.empty()) return;
  if (msg.partial.index != env.signer) return;
  auto rit = ss.reveals.find(env.signer);
  if (rit == ss.reveals.end()) return;

  std::vector<threshold::NonceReveal> reveals;
  for (const auto& [rank, reveal] : ss.reveals) reveals.push_back(reveal);
  group::Element r_joint = threshold::combine_nonce(cfg_.params, reveals);
  mpz::Bigint e = zkp::schnorr_challenge(cfg_.params, r_joint, my_service().signing_key.point(),
                                    ss.payload);
  const threshold::FeldmanCommitments& commits = my_service().sign_commitments;
  if (!threshold::verify_partial_signature(cfg_.params, commits, rit->second, msg.partial, e)) {
    // Identifiable abort: this member provably misbehaved — retry without it.
    SignSession dead = std::move(it->second);
    sign_sessions_.erase(it);
    cancel_resend(dead.round_resend);
    std::set<ServerRank> excluded = dead.excluded;
    excluded.insert(env.signer);
    start_sign_session(ctx, dead.purpose, std::move(dead.payload), std::move(dead.evidence),
                       std::move(excluded), dead.attempt + 1);
    return;
  }
  ss.partials.emplace(env.signer, msg.partial);
  if (ss.partials.size() < ss.quorum.size()) return;

  std::vector<threshold::PartialSignature> partials;
  for (const auto& [rank, partial] : ss.partials) partials.push_back(partial);
  zkp::SchnorrSignature sig = threshold::combine_signature(cfg_.params, reveals, partials);
  ss.done = true;
  cancel_resend(ss.round_resend);
  sign_session_finished(ctx, ss, std::move(sig));
}

void ProtocolServer::sign_session_finished(net::Context& ctx, SignSession& ss,
                                           zkp::SchnorrSignature sig) {
  ServiceSignedMsg out;
  out.service = static_cast<std::uint8_t>(secrets_.role);
  out.body = ss.payload;
  out.sig = std::move(sig);

  std::vector<std::uint8_t> framed = frame_service(out);
  if (ss.purpose == SignPurpose::kBlind) {
    if (behavior_ == Behavior::kBogusBlindCoordinator ||
        behavior_ == Behavior::kAdaptiveCancelCoordinator) {
      ++attack_successes_;  // the service signed an adversarial payload
    }
    // Step 5(d): C_j → A (retransmitted until this transfer's result lands).
    Resend r;
    for (ServerRank rank = 1; rank <= cfg_.a.cfg.n; ++rank) {
      ctx.send(cfg_.a.node_of(rank), framed);
      r.msgs.emplace_back(cfg_.a.node_of(rank), framed);
    }
    r.transfer = ss.transfer;
    r.cancel_on_result = ss.cancel_on_result;
    arm_resend(ctx, std::move(r));
    try {
      BlindPayload bp = decode_as<BlindPayload>(MsgType::kBlind, ss.payload, cfg_.params);
      emit_trace(ctx, obs::EventKind::kSignDone, &bp.id,
                 {.subject = static_cast<std::uint32_t>(SignPurpose::kBlind)});
      auto cit = coordinator_.find(bp.id);
      if (cit != coordinator_.end() && cit->second.t_sign != 0) {
        metrics_.phase_blind_sign_us.observe(ctx.now() - cit->second.t_sign);
      }
    } catch (const CodecError&) {
    }
  } else {
    // Step 6(e): l → B. Nothing on A observes B's results, so this resend is
    // capped small; a B server that still misses the done message recovers
    // through its result pull.
    Resend r;
    for (ServerRank rank = 1; rank <= cfg_.b.cfg.n; ++rank) {
      ctx.send(cfg_.b.node_of(rank), framed);
      r.msgs.emplace_back(cfg_.b.node_of(rank), framed);
    }
    arm_resend(ctx, std::move(r), 0, std::min(kRetransmitMaxAttempts, 5));
    try {
      DonePayload done = decode_as<DonePayload>(MsgType::kDone, ss.payload, cfg_.params);
      emit_trace(ctx, obs::EventKind::kSignDone, &done.id,
                 {.subject = static_cast<std::uint32_t>(SignPurpose::kDone)});
      auto rit = responder_.find(done.id);
      if (rit != responder_.end()) {
        rit->second.sent_done = true;
        if (rit->second.t_done_sign != 0) {
          metrics_.phase_done_sign_us.observe(ctx.now() - rit->second.t_done_sign);
        }
      }
    } catch (const CodecError&) {
    }
  }
}

// --- threshold-signing member -----------------------------------------------------------

void ProtocolServer::handle_sign_request(net::Context& ctx, const SignedMessage& env) {
  // Signing needs this server's CURRENT key share: retired/standby servers
  // have none, and a pending member's old share would produce partials the
  // re-shared joint key rejects.
  if (!active() || share_pending_) return;
  if (!envelope_signature_ok(cfg_, env)) return;
  if (env.service != static_cast<std::uint8_t>(secrets_.role)) return;
  SignRequestMsg msg;
  try {
    msg = decode_as<SignRequestMsg>(MsgType::kSignRequest, env.body, cfg_.params);
  } catch (const CodecError&) {
    return;
  }

  // Self-verification of the signing request (§4.2.3): a member signs only
  // payloads justified by valid evidence.
  auto purpose = static_cast<SignPurpose>(msg.purpose);
  if (purpose == SignPurpose::kBlind) {
    if (!is_b()) return;
    if (!check_blind_sign_request_batch(cfg_, msg.payload, msg.evidence, ctx.rng())) {
      metrics_.verify_fail.inc();
      metrics_.batch_fallbacks.inc();
      emit_trace(ctx, obs::EventKind::kVerifyFail, nullptr,
                 {.peer = env.signer, .subject = static_cast<std::uint32_t>(MsgType::kBlind)});
      return;
    }
    metrics_.verify_pass.inc();
    emit_trace(ctx, obs::EventKind::kVerifyPass, nullptr,
               {.peer = env.signer, .subject = static_cast<std::uint32_t>(MsgType::kBlind)});
  } else if (purpose == SignPurpose::kDone) {
    if (is_b()) return;
    DonePayload payload;
    try {
      payload = decode_as<DonePayload>(MsgType::kDone, msg.payload, cfg_.params);
    } catch (const CodecError&) {
      return;
    }
    auto sit = stored_.find(payload.id.transfer);
    if (sit == stored_.end()) return;
    if (!check_done_sign_request_batch(cfg_, msg.payload, msg.evidence, sit->second,
                                       ctx.rng())) {
      metrics_.verify_fail.inc();
      metrics_.batch_fallbacks.inc();
      emit_trace(ctx, obs::EventKind::kVerifyFail, &payload.id,
                 {.peer = env.signer, .subject = static_cast<std::uint32_t>(MsgType::kDone)});
      return;
    }
    metrics_.verify_pass.inc();
    emit_trace(ctx, obs::EventKind::kVerifyPass, &payload.id,
               {.peer = env.signer, .subject = static_cast<std::uint32_t>(MsgType::kDone)});
  } else {
    return;
  }

  net::NodeId requester = cfg_.service(secrets_.role).node_of(env.signer);
  auto key = std::make_pair(requester, msg.session);
  auto it = member_sessions_.find(key);
  if (it != member_sessions_.end()) {
    // Duplicate request: the member MUST answer with the same bytes — a fresh
    // nonce commitment for an existing session would risk nonce reuse.
    resend_frame(ctx, requester, it->second.commit_frame);
    return;
  }
  MemberSession ms;
  ms.payload = msg.payload;
  ms.member = std::make_unique<threshold::SigningMember>(cfg_.params, secrets_.sign_share,
                                                         ctx.rng());
  SignCommitReplyMsg reply;
  reply.session = msg.session;
  reply.commit = ms.member->commitment();
  ms.commit_frame = signed_frame(ctx, encode_body(MsgType::kSignCommitReply, reply));
  it = member_sessions_.emplace(key, std::move(ms)).first;
  ctx.send(requester, it->second.commit_frame);
}

void ProtocolServer::handle_sign_quorum(net::Context& ctx, const SignedMessage& env) {
  if (!envelope_signature_ok(cfg_, env)) return;
  if (env.service != static_cast<std::uint8_t>(secrets_.role)) return;
  SignQuorumMsg msg;
  try {
    msg = decode_as<SignQuorumMsg>(MsgType::kSignQuorum, env.body, cfg_.params);
  } catch (const CodecError&) {
    return;
  }
  net::NodeId requester = cfg_.service(secrets_.role).node_of(env.signer);
  auto it = member_sessions_.find(std::make_pair(requester, msg.session));
  if (it == member_sessions_.end()) return;
  MemberSession& ms = it->second;
  if (!ms.quorum.empty()) {
    // Quorum already fixed: re-answer duplicates with the cached reveal.
    resend_frame(ctx, requester, ms.reveal_frame);
    return;
  }
  if (!ms.member) return;  // left out of this session's quorum earlier
  bool mine = std::any_of(msg.quorum.begin(), msg.quorum.end(),
                          [&](const auto& c) { return c.index == secrets_.rank; });
  if (!mine) {
    // Our nonce will never be used: release it. The session never signs.
    ms.member.reset();
    return;
  }
  ms.quorum = msg.quorum;

  SignRevealReplyMsg reply;
  reply.session = msg.session;
  reply.reveal = ms.member->reveal();
  ms.reveal_frame = signed_frame(ctx, encode_body(MsgType::kSignRevealReply, reply));
  ctx.send(requester, ms.reveal_frame);
}

void ProtocolServer::handle_sign_reveal_set(net::Context& ctx, const SignedMessage& env) {
  if (!envelope_signature_ok(cfg_, env)) return;
  if (env.service != static_cast<std::uint8_t>(secrets_.role)) return;
  SignRevealSetMsg msg;
  try {
    msg = decode_as<SignRevealSetMsg>(MsgType::kSignRevealSet, env.body, cfg_.params);
  } catch (const CodecError&) {
    return;
  }
  if (behavior_ == Behavior::kWithholdPartial) return;
  net::NodeId requester = cfg_.service(secrets_.role).node_of(env.signer);
  auto it = member_sessions_.find(std::make_pair(requester, msg.session));
  if (it == member_sessions_.end()) return;
  MemberSession& ms = it->second;
  if (ms.responded) {
    // Sign at most once per session. A duplicate of the SAME reveal set gets
    // the cached partial; a different set is refused outright.
    if (hash::Sha256::digest(env.body) == ms.reveals_digest)
      resend_frame(ctx, requester, ms.partial_frame);
    return;
  }
  if (ms.quorum.empty()) return;

  auto partial = ms.member->respond(ms.quorum, msg.reveals,
                                    cfg_.service(secrets_.role).signing_key.point(), ms.payload);
  if (!partial) return;  // reveal set inconsistent with commitments — refuse
  // s_i = k_i + e·x_i is out: anyone who later read k_i would learn x_i.
  // Release the member (nonce and share copy); duplicates get cached bytes.
  ms.member.reset();
  ms.responded = true;
  ms.reveals_digest = hash::Sha256::digest(env.body);

  SignPartialReplyMsg reply;
  reply.session = msg.session;
  reply.partial = *partial;
  ms.partial_frame = signed_frame(ctx, encode_body(MsgType::kSignPartialReply, reply));
  ctx.send(requester, ms.partial_frame);
}

// --- service A responder ------------------------------------------------------------------

void ProtocolServer::handle_blind(net::Context& ctx, const ServiceSignedMsg& msg) {
  if (is_b() || !active()) return;
  auto blind = check_blind(cfg_, msg);
  if (!blind) return;
  if (seen_blind_.contains(blind->id)) return;

  if (!stored_.contains(blind->id.transfer)) {
    // Step flexibility: the blinding pair can arrive before E_A(m) exists
    // (it depends on neither the ciphertext nor A's key). Park it.
    if (pending_store_.contains(blind->id.transfer)) parked_blinds_.push_back(msg);
    return;
  }

  // Designated-responder policy mirroring §4.1 (the paper has every server
  // in A perform step 6 eagerly; f+1 responders with delayed backups give
  // the same liveness with less redundant work): rank 1 acts at once, ranks
  // 2..f+1 after a backup delay, ranks beyond f+1 only serve decryption
  // shares.
  if (secrets_.rank > cfg_.a.cfg.f + 1) return;
  if (responder_.contains(blind->id)) return;  // backup timer already armed
  ResponderState& st = responder_.try_emplace(blind->id).first->second;
  st.blind_env = msg;
  st.blind = *blind;

  net::Time delay = (secrets_.rank - 1) * opts_.responder_backup_delay;
  if (delay == 0) {
    start_responder(ctx, blind->id);
  } else {
    std::uint64_t key = next_responder_timer_++;
    responder_timer_ids_[key] = blind->id;
    ctx.set_timer(delay, kTimerResponder | key);
  }
}

void ProtocolServer::start_responder(net::Context& ctx, const InstanceId& id) {
  auto it = responder_.find(id);
  if (it == responder_.end()) return;
  ResponderState& st = it->second;
  if (st.sent_done || seen_blind_.contains(id)) return;
  seen_blind_.insert(id);

  auto sit = stored_.find(id.transfer);
  if (sit == stored_.end()) return;
  auto ea_m_rho = cfg_.a.encryption_key.multiply(sit->second, st.blind.blinded.ea);
  if (!ea_m_rho) return;  // degenerate: wait for another coordinator's instance
  st.ea_m_rho = *ea_m_rho;

  DecryptRequestMsg req;
  req.id = id;
  req.blind = st.blind_env;
  std::vector<std::uint8_t> framed =
      signed_frame(ctx, encode_body(MsgType::kDecryptRequest, req));
  Resend r;
  for (ServerRank rank = 1; rank <= cfg_.a.cfg.n; ++rank) {
    ctx.send(cfg_.a.node_of(rank), framed);
    r.msgs.emplace_back(cfg_.a.node_of(rank), framed);
  }
  r.transfer = id.transfer;
  st.decrypt_resend = arm_resend(ctx, std::move(r));
  st.t_begin = ctx.now();
  emit_trace(ctx, obs::EventKind::kDecryptBegin, &id);
}

void ProtocolServer::handle_decrypt_request(net::Context& ctx, const SignedMessage& env) {
  if (is_b() || !active() || share_pending_) return;
  if (!envelope_signature_ok(cfg_, env)) return;
  if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceA)) return;
  DecryptRequestMsg msg;
  try {
    msg = decode_as<DecryptRequestMsg>(MsgType::kDecryptRequest, env.body, cfg_.params);
  } catch (const CodecError&) {
    return;
  }
  // Duplicate request: replay the cached share reply (cheap, and avoids
  // re-proving) before the expensive evidence re-check.
  auto ckey = std::make_pair(msg.id, env.signer);
  if (auto cached = decrypt_reply_frames_.find(ckey); cached != decrypt_reply_frames_.end()) {
    resend_frame(ctx, cfg_.a.node_of(env.signer), cached->second);
    return;
  }
  // Self-verifying decryption request (step 6(b)): the service-signed blind
  // message is the evidence that decrypting E_A(mρ) is authorized.
  auto blind = check_blind(cfg_, msg.blind);
  if (!blind || !(blind->id == msg.id)) return;
  auto sit = stored_.find(msg.id.transfer);
  if (sit == stored_.end()) return;
  auto ea_m_rho = cfg_.a.encryption_key.multiply(sit->second, blind->blinded.ea);
  if (!ea_m_rho) return;

  threshold::DecryptionShare share = threshold::make_decryption_share(
      cfg_.params, *ea_m_rho, secrets_.enc_share, decrypt_context(msg.id), ctx.rng());
  DecryptShareReplyMsg reply;
  reply.id = msg.id;
  reply.share = std::move(share);
  std::vector<std::uint8_t> frame =
      signed_frame(ctx, encode_body(MsgType::kDecryptShareReply, reply));
  decrypt_reply_frames_[ckey] = frame;
  ctx.send(cfg_.a.node_of(env.signer), frame);
}

void ProtocolServer::handle_decrypt_share_reply(net::Context& ctx, const SignedMessage& env) {
  if (is_b() || !active()) return;
  if (!envelope_signature_ok(cfg_, env)) return;
  if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceA)) return;
  DecryptShareReplyMsg msg;
  try {
    msg = decode_as<DecryptShareReplyMsg>(MsgType::kDecryptShareReply, env.body, cfg_.params);
  } catch (const CodecError&) {
    return;
  }
  auto it = responder_.find(msg.id);
  if (it == responder_.end()) return;
  ResponderState& st = it->second;
  if (st.signing || st.sent_done || !seen_blind_.contains(msg.id)) return;
  if (msg.share.index != env.signer) return;
  if (!threshold::verify_decryption_share(cfg_.params, cfg_.a.enc_commitments, st.ea_m_rho,
                                          msg.share, decrypt_context(msg.id))) {
    metrics_.verify_fail.inc();
    emit_trace(ctx, obs::EventKind::kVerifyFail, &msg.id,
               {.peer = env.signer,
                .subject = static_cast<std::uint32_t>(MsgType::kDecryptShareReply)});
    return;
  }
  metrics_.verify_pass.inc();
  emit_trace(ctx, obs::EventKind::kVerifyPass, &msg.id,
             {.peer = env.signer,
              .subject = static_cast<std::uint32_t>(MsgType::kDecryptShareReply)});
  st.shares.emplace(msg.share.index, msg.share);
  if (st.shares.size() < cfg_.a.cfg.quorum()) return;
  st.signing = true;
  cancel_resend(st.decrypt_resend);  // decryption round complete
  st.t_done_sign = ctx.now();
  if (st.t_begin != 0) metrics_.phase_decrypt_us.observe(st.t_done_sign - st.t_begin);
  emit_trace(ctx, obs::EventKind::kDecryptDone, &msg.id, {.count = cfg_.a.cfg.quorum()});

  std::vector<threshold::DecryptionShare> shares;
  for (const auto& [rank, share] : st.shares) {
    if (shares.size() == cfg_.a.cfg.quorum()) break;
    shares.push_back(share);
  }
  group::Element m_rho = threshold::combine_decryption(cfg_.params, st.ea_m_rho, shares);

  // Step 6(c): E_B(m) := (mρ) · E_B(ρ)^{-1}.
  elgamal::Ciphertext eb_m =
      cfg_.b.encryption_key.juxtapose(m_rho, cfg_.b.encryption_key.inverse(st.blind.blinded.eb));

  DonePayload payload;
  payload.id = msg.id;
  payload.ea_m = stored_.at(msg.id.transfer);
  payload.eb_m = std::move(eb_m);

  DoneEvidence evidence;
  evidence.blind = st.blind_env;
  evidence.m_rho = std::move(m_rho);
  evidence.shares = std::move(shares);
  Writer w;
  evidence.encode(w);
  emit_trace(ctx, obs::EventKind::kDoneSignBegin, &msg.id);
  start_sign_session(ctx, SignPurpose::kDone, encode_body(MsgType::kDone, payload), w.take());
}

// --- service B result consumption ------------------------------------------------------------

void ProtocolServer::handle_done(net::Context& ctx, const ServiceSignedMsg& msg) {
  if (!is_b()) return;
  auto done = check_done(cfg_, msg);
  if (!done) return;
  record_done(&ctx, *done, msg);
}

void ProtocolServer::record_done(net::Context* ctx, const DonePayload& done,
                                 const ServiceSignedMsg& msg) {
  // Keep every distinct validated done (several coordinators may finish with
  // different — equivalent — ciphertexts); clients pick one.
  auto& payloads = done_payloads_[done.id.transfer];
  bool known = false;
  for (const DonePayload& p : payloads) known = known || p.eb_m == done.eb_m;
  if (!known) {
    payloads.push_back(done);
    done_msgs_[done.id.transfer].push_back(msg);
  }
  // First valid result wins; later ones (from other coordinators/responders)
  // are equivalent ciphertexts of the same plaintext. A new result moots all
  // retransmission still running for the transfer.
  if (results_.try_emplace(done.id.transfer, done.eb_m).second) {
    results_count_.fetch_add(1, std::memory_order_release);
    cancel_resends_for_transfer(done.id.transfer);
    // Restore-path replays pass no context (no trace timestamp exists there).
    if (ctx != nullptr) {
      emit_trace(*ctx, obs::EventKind::kDoneRecorded, &done.id);
      // The completion frees an admission slot; queued transfers start now.
      // complete() is a no-op for transfers this node never self-coordinated
      // (results learned via pulls), and the restore path skips this entirely
      // — the engine is volatile and the next on_start re-feeds it.
      std::vector<TransferId> admitted = engine_.complete(done.id.transfer);
      metrics_.engine_inflight.set(engine_.inflight());
      metrics_.engine_queued.set(engine_.queued());
      launch_admitted(*ctx, admitted);
    }
  }
}

// --- client-facing handlers -------------------------------------------------------

void ProtocolServer::schedule_coordinator(net::Context& ctx, TransferId transfer) {
  if (!is_b() || !active() || secrets_.rank > opts_.max_coordinators) return;
  if (results_.contains(transfer)) return;  // nothing to run — and no slot burned
  // Admission gate (core/transfer_engine.hpp): self-coordination only. The
  // contributor / responder / signing-member roles react to whatever arrives
  // regardless of this node's admission queue, so a capped server still
  // serves every other coordinator's transfers at full speed.
  engine_.register_transfer(transfer);
  TransferEngine::StartResult sr = engine_.request_start(transfer);
  if (sr.decision == TransferEngine::Admission::kQueued) {
    metrics_.engine_defers.inc();
    metrics_.engine_queued.set(engine_.queued());
    emit_trace(ctx, obs::EventKind::kEngineDefer, nullptr,
               {.transfer = transfer, .count = engine_.queued()});
  }
  launch_admitted(ctx, sr.admitted);
}

void ProtocolServer::launch_admitted(net::Context& ctx, std::span<const TransferId> admitted) {
  for (TransferId t : admitted) {
    metrics_.engine_admits.inc();
    metrics_.engine_inflight.set(engine_.inflight());
    metrics_.engine_queued.set(engine_.queued());
    emit_trace(ctx, obs::EventKind::kEngineAdmit, nullptr,
               {.transfer = t, .count = engine_.inflight()});
    // Rank-staggered start (§4.1), exactly as the pre-engine flow: rank 1
    // coordinates immediately, backups arm the delayed timer.
    net::Time delay = (secrets_.rank - 1) * opts_.coordinator_backup_delay;
    if (delay == 0) {
      start_coordinator(ctx, t, next_epoch_of(t));
    } else {
      ctx.set_timer(delay, kTimerCoordinator | t);
    }
  }
}

void ProtocolServer::handle_transfer_request(net::Context& ctx, net::NodeId from,
                                             std::span<const std::uint8_t> body) {
  (void)from;
  TransferRequestMsg msg;
  try {
    msg = decode_as<TransferRequestMsg>(MsgType::kTransferRequest, body, cfg_.params);
  } catch (const CodecError&) {
    return;
  }
  if (is_b()) {
    if (!transfers_.insert(msg.transfer).second) return;  // already registered
    schedule_coordinator(ctx, msg.transfer);
    arm_result_pull(ctx, msg.transfer);
  } else {
    if (stored_.contains(msg.transfer) || pending_store_.contains(msg.transfer))
      return;  // first writer wins
    if (!cfg_.a.encryption_key.well_formed(msg.ea_m)) return;
    stored_[msg.transfer] = msg.ea_m;
  }
}

void ProtocolServer::handle_result_request(net::Context& ctx, net::NodeId from,
                                           std::span<const std::uint8_t> body) {
  if (!is_b()) return;
  ResultRequestMsg msg;
  try {
    msg = decode_as<ResultRequestMsg>(MsgType::kResultRequest, body, cfg_.params);
  } catch (const CodecError&) {
    return;
  }
  auto it = done_msgs_.find(msg.transfer);
  if (it == done_msgs_.end() || it->second.empty()) return;
  ResultReplyMsg reply;
  reply.transfer = msg.transfer;
  reply.done = it->second.front();
  Writer w;
  w.u8(static_cast<std::uint8_t>(WireKind::kClient));
  w.bytes(encode_body(MsgType::kResultReply, reply));
  ctx.send(from, w.take());
}

void ProtocolServer::handle_client_decrypt_request(net::Context& ctx, net::NodeId from,
                                                   std::span<const std::uint8_t> body) {
  if (!is_b() || !active() || share_pending_) return;
  ClientDecryptRequestMsg msg;
  try {
    msg = decode_as<ClientDecryptRequestMsg>(MsgType::kClientDecryptRequest, body, cfg_.params);
  } catch (const CodecError&) {
    return;
  }
  // Duplicate of the same request from the same client: replay the cached
  // reply. A request for a DIFFERENT (still authorized) ciphertext gets a
  // fresh share and replaces the cache entry.
  auto ckey = std::make_pair(from, msg.transfer);
  auto cached = client_decrypt_cache_.find(ckey);
  if (cached != client_decrypt_cache_.end() &&
      std::ranges::equal(cached->second.first, body)) {
    resend_frame(ctx, from, cached->second.second);
    return;
  }
  // Only decrypt ciphertexts that appear in a VALID done message for this
  // transfer — the client API must not be a general decryption oracle.
  auto it = done_payloads_.find(msg.transfer);
  if (it == done_payloads_.end()) return;
  bool authorized = false;
  for (const DonePayload& p : it->second) authorized = authorized || p.eb_m == msg.ciphertext;
  if (!authorized) return;

  threshold::DecryptionShare share = threshold::make_decryption_share(
      cfg_.params, msg.ciphertext, secrets_.enc_share, client_decrypt_context(msg.transfer),
      ctx.rng());
  ClientDecryptReplyMsg reply;
  reply.transfer = msg.transfer;
  reply.share = std::move(share);
  Writer w;
  w.u8(static_cast<std::uint8_t>(WireKind::kClient));
  w.bytes(encode_body(MsgType::kClientDecryptReply, reply));
  std::vector<std::uint8_t> frame = w.take();
  client_decrypt_cache_[ckey] = {std::vector<std::uint8_t>(body.begin(), body.end()), frame};
  ctx.send(from, frame);
}

// --- epochal reconfiguration ---------------------------------------------------
//
// Round shape (docs/PROTOCOL.md "Reconfiguration"): a proposer broadcasts the
// spec (kReconfigStart); old-roster members of the changing service each deal
// ONE re-sharing (kReshareDeal commitments broadcast, kReshareSubshare secrets
// point-to-point to their recipients); the proposer certifies the first f+1
// commitment-valid deals into a kReconfigApply; old-roster members echo the
// FIRST valid apply's digest exactly once (kReconfigEcho); any node holding a
// valid apply plus 2f+1 distinct old-roster echoes of its digest installs the
// new configuration. Echo-once gives install uniqueness: with at most f
// Byzantine members, two different digests cannot both collect 2f+1 echoes.

void ProtocolServer::schedule_reconfig(ReconfigSpec spec, net::Time at) {
  scheduled_reconfigs_.emplace_back(at, std::move(spec));
}

void ProtocolServer::maybe_send_wrong_epoch(net::Context& ctx, net::NodeId from,
                                            const SignedMessage& env) {
  // Liveness-only typed rejection; answered every time (bounded by the
  // sender's own capped retransmission, never by receiver-side state).
  WrongEpochMsg msg;
  msg.service = env.service;
  msg.epoch = cfg_epoch_;
  ctx.send(from, frame_client(encode_body(MsgType::kWrongEpoch, msg)));
}

void ProtocolServer::send_reconfig_pull(net::Context& ctx, net::NodeId to) {
  ReconfigPullMsg msg;
  msg.epoch = cfg_epoch_;
  ctx.send(to, frame_client(encode_body(MsgType::kReconfigPull, msg)));
}

std::vector<net::NodeId> ProtocolServer::reconfig_targets(const ReconfigSpec& spec) const {
  std::set<net::NodeId> out;
  for (ServerRank r = 1; r <= cfg_.a.cfg.n; ++r) out.insert(cfg_.a.node_of(r));
  for (ServerRank r = 1; r <= cfg_.b.cfg.n; ++r) out.insert(cfg_.b.node_of(r));
  for (const RosterEntry& e : spec.roster) out.insert(e.node);  // joiners
  return {out.begin(), out.end()};
}

void ProtocolServer::start_reconfig_round(net::Context& ctx, const ReconfigSpec& spec) {
  if (!reconfig_spec_ok(cfg_, cfg_epoch_, spec)) return;
  if (!reconfig_round_) {
    reconfig_round_.emplace();
    reconfig_round_->spec = spec;
  }
  ReconfigRound& rr = *reconfig_round_;
  if (rr.coordinating) return;
  rr.coordinating = true;

  ReconfigStartMsg start;
  start.spec = rr.spec;
  std::vector<std::uint8_t> framed =
      signed_frame(ctx, encode_body(MsgType::kReconfigStart, start));
  Resend r;
  for (net::NodeId to : reconfig_targets(rr.spec)) {
    if (to != ctx.self()) ctx.send(to, framed);
    r.msgs.emplace_back(to, framed);
  }
  rr.start_resend = arm_resend(ctx, std::move(r));
  // The proposer is usually an old-roster member itself: deal immediately.
  reshare_for(ctx, rr.spec);
}

void ProtocolServer::handle_reconfig_start(net::Context& ctx, const SignedMessage& env) {
  if (!envelope_signature_ok(cfg_, env)) return;
  ReconfigStartMsg msg;
  try {
    msg = decode_as<ReconfigStartMsg>(MsgType::kReconfigStart, env.body, cfg_.params);
  } catch (const CodecError&) {
    return;
  }
  if (!reconfig_spec_ok(cfg_, cfg_epoch_, msg.spec)) return;
  if (!reconfig_round_) {
    reconfig_round_.emplace();
    reconfig_round_->spec = msg.spec;
  }
  // Deal for the round we joined first (at most one deal per epoch — two
  // polynomials for the same epoch would equivocate on our share).
  reshare_for(ctx, reconfig_round_->spec);
}

void ProtocolServer::reshare_for(net::Context& ctx, const ReconfigSpec& spec) {
  // Only old-roster members of the CHANGING service hold a share to re-share.
  if (static_cast<std::uint8_t>(secrets_.role) != spec.service || !active()) return;
  if (share_pending_) return;  // our own share is not even complete yet
  auto fit = dealt_frames_.find(spec.epoch);
  if (fit == dealt_frames_.end()) {
    threshold::ReshareDeal enc =
        threshold::reshare_deal(cfg_.params, secrets_.enc_share, spec.n, spec.f, ctx.rng());
    threshold::ReshareDeal sign =
        threshold::reshare_deal(cfg_.params, secrets_.sign_share, spec.n, spec.f, ctx.rng());
    ReshareDealMsg deal;
    deal.service = spec.service;
    deal.epoch = spec.epoch;
    deal.dealer = secrets_.rank;
    deal.enc = enc.commitments;
    deal.sign = sign.commitments;
    DealtEpoch de;
    de.frames.resize(spec.n + 1);
    de.frames[0] = signed_frame(ctx, encode_body(MsgType::kReshareDeal, deal));
    for (std::uint32_t j = 1; j <= spec.n; ++j) {
      ReshareSubshareMsg sub;
      sub.service = spec.service;
      sub.epoch = spec.epoch;
      sub.dealer = secrets_.rank;
      sub.target_rank = j;
      sub.enc_sub = enc.subshares[j - 1].value;
      sub.sign_sub = sign.subshares[j - 1].value;
      de.frames[j] = frame_client(encode_body(MsgType::kReshareSubshare, sub));
      de.targets.push_back(spec.roster[j - 1].node);
    }
    fit = dealt_frames_.emplace(spec.epoch, std::move(de)).first;
  }
  if (reconfig_round_ && reconfig_round_->spec.epoch == spec.epoch && reconfig_round_->dealt)
    return;
  if (reconfig_round_) reconfig_round_->dealt = true;
  const DealtEpoch& de = fit->second;
  // Commitments to every old-roster member (any of them may be proposing);
  // sub-share j point-to-point to the node holding new rank j, and only it.
  Resend r;
  const ServicePublic& svc = my_service();
  for (ServerRank rank = 1; rank <= svc.cfg.n; ++rank) {
    net::NodeId to = svc.node_of(rank);
    if (to != ctx.self()) ctx.send(to, de.frames[0]);
    r.msgs.emplace_back(to, de.frames[0]);
  }
  for (std::uint32_t j = 1; j <= spec.n; ++j) {
    net::NodeId to = de.targets[j - 1];
    if (to == ctx.self()) {
      // Our own sub-share: absorb directly instead of round-tripping.
      try {
        Reader rd(de.frames[j], &cfg_.params);
        (void)rd.u8();  // WireKind
        absorb_subshare(ctx, decode_as<ReshareSubshareMsg>(MsgType::kReshareSubshare,
                                                           rd.bytes(), cfg_.params));
      } catch (const CodecError&) {
      }
      continue;
    }
    ctx.send(to, de.frames[j]);
    r.msgs.emplace_back(to, de.frames[j]);
  }
  if (reconfig_round_) {
    reconfig_round_->deal_resend = arm_resend(ctx, std::move(r));
  } else {
    std::uint64_t key = arm_resend(ctx, std::move(r));
    (void)key;  // cancelled with everything else at install
  }
  // A proposing dealer processes its own deal like anyone else's.
  if (reconfig_round_ && reconfig_round_->coordinating) {
    try {
      Reader rd(de.frames[0], &cfg_.params);
      (void)rd.u8();  // WireKind
      SignedMessage env = SignedMessage::decode(rd);
      handle_reshare_deal(ctx, env);
    } catch (const CodecError&) {
    }
  }
}

void ProtocolServer::handle_reshare_deal(net::Context& ctx, const SignedMessage& env) {
  if (!reconfig_round_ || !reconfig_round_->coordinating) return;
  ReconfigRound& rr = *reconfig_round_;
  if (rr.applied) return;
  auto deal = check_reshare_deal(cfg_, cfg_epoch_, rr.spec, env);
  if (!deal) return;
  rr.deals.emplace(deal->dealer, env);
  const ServicePublic& svc = cfg_.service(static_cast<ServiceRole>(rr.spec.service));
  if (rr.deals.size() < svc.cfg.quorum()) return;
  rr.applied = true;
  cancel_resend(rr.start_resend);

  ReconfigApplyMsg apply;
  apply.spec = rr.spec;
  for (const auto& [rank, deal_env] : rr.deals) {
    if (apply.deals.size() == svc.cfg.quorum()) break;
    apply.deals.push_back(deal_env);  // map order = strictly increasing rank
  }
  // Unfinished transfers ride along so joiners know what to coordinate.
  if (is_b()) {
    for (TransferId t : transfers_) {
      if (!results_.contains(t)) apply.transfers.push_back(t);
    }
  }
  std::vector<std::uint8_t> framed =
      signed_frame(ctx, encode_body(MsgType::kReconfigApply, apply));
  Resend r;
  for (net::NodeId to : reconfig_targets(rr.spec)) {
    if (to != ctx.self()) ctx.send(to, framed);
    r.msgs.emplace_back(to, framed);
  }
  rr.apply_resend = arm_resend(ctx, std::move(r));
  // Process our own apply (echo it, count our echo, maybe install).
  try {
    Reader rd(framed, &cfg_.params);
    (void)rd.u8();
    SignedMessage apply_env = SignedMessage::decode(rd);
    handle_reconfig_apply(ctx, apply_env);
  } catch (const CodecError&) {
  }
}

void ProtocolServer::handle_reconfig_apply(net::Context& ctx, const SignedMessage& env) {
  auto apply = check_reconfig_apply(cfg_, cfg_epoch_, env);
  if (!apply) return;
  const hash::Digest digest = reconfig_apply_digest(env);
  applies_by_digest_.emplace(digest, env);

  // Echo exactly one digest per epoch — the uniqueness rule everything else
  // leans on. Only old-roster members of the changing service vote.
  if (static_cast<std::uint8_t>(secrets_.role) == apply->spec.service && active() &&
      !share_pending_) {
    if (!reconfig_round_) {
      reconfig_round_.emplace();
      reconfig_round_->spec = apply->spec;
    }
    ReconfigRound& rr = *reconfig_round_;
    if (!rr.echoed) {
      rr.echoed = true;
      ReconfigEchoMsg echo;
      echo.service = apply->spec.service;
      echo.epoch = apply->spec.epoch;
      echo.digest = digest;
      std::vector<std::uint8_t> framed =
          signed_frame(ctx, encode_body(MsgType::kReconfigEcho, echo));
      Resend r;
      for (net::NodeId to : reconfig_targets(apply->spec)) {
        if (to != ctx.self()) ctx.send(to, framed);
        r.msgs.emplace_back(to, framed);
      }
      rr.echo_resend = arm_resend(ctx, std::move(r));
      // Count our own echo.
      try {
        Reader rd(framed, &cfg_.params);
        (void)rd.u8();
        SignedMessage echo_env = SignedMessage::decode(rd);
        echoes_by_digest_[digest].emplace(echo_env.signer, echo_env);
      } catch (const CodecError&) {
      }
    }
  }
  try_install(ctx);
}

void ProtocolServer::handle_reconfig_echo(net::Context& ctx, const SignedMessage& env) {
  if (!envelope_signature_ok(cfg_, env)) return;
  ReconfigEchoMsg msg;
  try {
    msg = decode_as<ReconfigEchoMsg>(MsgType::kReconfigEcho, env.body, cfg_.params);
  } catch (const CodecError&) {
    return;
  }
  // Echo votes count per-service: the signer must belong to the service its
  // echo claims to certify (check_install_record re-checks this).
  if (env.service != msg.service) return;
  if (msg.epoch != cfg_epoch_ + 1) return;
  std::map<ServerRank, SignedMessage>& votes = echoes_by_digest_[msg.digest];
  votes.emplace(env.signer, env);
  // Fetch step: 2f+1 members echoed an apply this node has not received. It
  // may be late, or lost together with its resends (which die at the
  // senders' installs, after which nothing stamped with our epoch reaches us
  // to draw a kWrongEpoch). Arm a pull of the install record from those
  // echoers, once, with no immediate send: the echoers answer once they have
  // installed, and our own install cancels the pull if the apply arrives.
  const ServicePublic& svc = cfg_.service(static_cast<ServiceRole>(msg.service));
  if (!install_pull_armed_ && !applies_by_digest_.contains(msg.digest) &&
      votes.size() >= 2 * svc.cfg.f + 1) {
    install_pull_armed_ = true;
    ReconfigPullMsg pull;
    pull.epoch = cfg_epoch_;
    std::vector<std::uint8_t> frame = frame_client(encode_body(MsgType::kReconfigPull, pull));
    Resend r;
    for (const auto& [rank, echo_env] : votes) {
      const net::NodeId to = svc.node_of(rank);
      if (to != ctx.self()) r.msgs.emplace_back(to, frame);
    }
    (void)arm_resend(ctx, std::move(r));
  }
  try_install(ctx);
}

void ProtocolServer::try_install(net::Context& ctx) {
  for (const auto& [digest, apply_env] : applies_by_digest_) {
    auto eit = echoes_by_digest_.find(digest);
    if (eit == echoes_by_digest_.end()) continue;
    std::vector<SignedMessage> echoes;
    echoes.reserve(eit->second.size());
    for (const auto& [rank, echo_env] : eit->second) echoes.push_back(echo_env);
    auto apply = check_install_record(cfg_, cfg_epoch_, apply_env, echoes);
    if (apply) {
      install_config(ctx, apply_env, *apply, std::move(echoes));
      return;
    }
  }
}

void ProtocolServer::install_config(net::Context& ctx, const SignedMessage& apply_env,
                                    const ReconfigApplyMsg& apply,
                                    std::vector<SignedMessage> echoes) {
  const ReconfigSpec& spec = apply.spec;
  if (spec.epoch != cfg_epoch_ + 1) return;

  // 1. Collect the instances this install aborts (invariant I6: a transfer
  //    either completes inside its birth epoch or restarts cleanly under the
  //    new one — contributions never mix across configurations).
  std::vector<InstanceId> aborted;
  for (const auto& [id, st] : coordinator_) {
    if (!results_.contains(id.transfer)) aborted.push_back(id);
  }
  for (const auto& [id, st] : responder_) {
    if (!st.sent_done) aborted.push_back(id);
  }

  // 2. Drop ALL volatile round state — every piece of it is bound to the
  //    dying configuration.
  contributor_.clear();
  coordinator_.clear();
  sign_sessions_.clear();
  member_sessions_.clear();
  responder_.clear();
  seen_blind_.clear();
  parked_blinds_.clear();
  decrypt_reply_frames_.clear();
  client_decrypt_cache_.clear();
  responder_timer_ids_.clear();
  resends_.clear();  // cached frames carry the old epoch stamp: all dead
  result_pull_keys_.clear();
  subshare_pull_resend_ = 0;
  install_pull_armed_ = false;
  // Engine mirror of the abort: demote exactly the in-flight self-coordinated
  // transfers back to the head of the admission queue (they keep their
  // priority); queued and completed transfers are untouched. Step 9 re-admits
  // under the new configuration. Any armed kTimerCoordinator for a demoted
  // transfer is disarmed by the phase gate in on_timer.
  (void)engine_.abort_inflight();
  metrics_.engine_inflight.set(0);
  metrics_.engine_queued.set(engine_.queued());

  // 3. Everything that needs the OLD configuration, computed before the swap.
  std::vector<ReshareDealMsg> deals;
  std::vector<net::NodeId> dealer_nodes;
  const ServicePublic& old_svc = cfg_.service(static_cast<ServiceRole>(spec.service));
  for (const SignedMessage& deal_env : apply.deals) {
    ReshareDealMsg d = decode_as<ReshareDealMsg>(MsgType::kReshareDeal, deal_env.body, cfg_.params);
    dealer_nodes.push_back(old_svc.node_of(d.dealer));
    deals.push_back(std::move(d));
  }
  ServicePublic new_svc = reconfigured_service(cfg_, spec, deals);

  // 4. Our own place under the new configuration.
  const bool my_service_changing = static_cast<std::uint8_t>(secrets_.role) == spec.service;
  ServerRank new_rank = secrets_.rank;
  if (my_service_changing) {
    new_rank = 0;
    for (std::size_t i = 0; i < spec.roster.size(); ++i) {
      if (spec.roster[i].node == ctx.self()) {
        new_rank = static_cast<ServerRank>(i + 1);
        break;
      }
    }
  }

  // 5. Swap the configuration and bump the epoch.
  if (static_cast<ServiceRole>(spec.service) == ServiceRole::kServiceA) {
    cfg_.a = std::move(new_svc);
  } else {
    cfg_.b = std::move(new_svc);
  }
  cfg_epoch_ = spec.epoch;
  if (my_service_changing) {
    secrets_.rank = new_rank;
    if (new_rank == 0) {
      // Retired: destroy the old shares — they are dead weight and a leak
      // hazard (proactive-security discipline, §5).
      secrets_.enc_share = threshold::Share{};
      secrets_.sign_share = threshold::Share{};
      share_pending_ = false;
    } else {
      share_pending_ = true;  // completed below if the sub-shares are in
    }
  }

  // 6. The invalidation cascade restore() models (PR 5), now at an epoch
  //    boundary: pinned fixed-base tables die with the configuration that
  //    created them. Contribution streams need no re-keying: cfg_epoch_ is
  //    part of every instance's stream key.
  cfg_.params.reset_base_caches();
  cfg_.params.pin_base(cfg_.a.encryption_key.y());
  cfg_.params.pin_base(cfg_.b.encryption_key.y());
  cfg_.params.pin_base(cfg_.params.mul(cfg_.a.encryption_key.y(), cfg_.b.encryption_key.y()));
  if (initial_max_coordinators_ == 0) opts_.max_coordinators = cfg_.b.cfg.f + 1;

  // 7. Record the certificate; laggards pull it one epoch at a time.
  install_log_.emplace(cfg_epoch_, InstallRecord{apply_env, std::move(echoes)});
  reconfig_round_.reset();
  applies_by_digest_.clear();
  echoes_by_digest_.clear();
  subshares_.erase(subshares_.begin(), subshares_.lower_bound({cfg_epoch_, 0}));

  // 8. Observability: aborts carry the NEW epoch ("killed by install of e").
  metrics_.config_epoch.set(cfg_epoch_);
  metrics_.reconfig_installs.inc();
  for (const InstanceId& id : aborted) {
    metrics_.reconfig_aborts.inc();
    emit_trace(ctx, obs::EventKind::kEpochAbort, &id);
  }
  emit_trace(ctx, obs::EventKind::kEpochInstall, nullptr,
             {.peer = rank(), .count = spec.n});

  // 9. Resume service. B: adopt the apply's transfer list and restart
  //    coordinators/result pulls under the new ranks (a reconfig of EITHER
  //    service cleared every armed resend above).
  if (is_b() && active() && !share_pending_) {
    for (TransferId t : apply.transfers) transfers_.insert(t);
    // Through the admission engine: the transfers demoted above re-enter from
    // the queue head first, so an install preserves admission priority.
    for (TransferId t : transfers_) schedule_coordinator(ctx, t);
    for (TransferId t : transfers_) arm_result_pull(ctx, t);
  }
  // A server retired by this install (rank 0) no longer owes progress on any
  // transfer — done messages stop reaching it, so its watchdog entries would
  // otherwise stall forever. Stop tracking instead of crying wolf.
  if (is_b() && !active()) watchdog_.reset();

  // 10. Complete our new share, or keep pulling the missing sub-shares.
  if (share_pending_) {
    maybe_complete_share(ctx);
    if (share_pending_) {
      SubsharePullMsg pull;
      pull.service = spec.service;
      pull.epoch = cfg_epoch_;
      pull.my_new_rank = secrets_.rank;
      std::vector<std::uint8_t> frame =
          frame_client(encode_body(MsgType::kSubsharePull, pull));
      Resend r;
      for (net::NodeId to : dealer_nodes) {
        if (to == ctx.self()) continue;
        ctx.send(to, frame);
        r.msgs.emplace_back(to, frame);
      }
      subshare_pull_resend_ = arm_resend(ctx, std::move(r), kResultPullDelay);
    }
  }
}

void ProtocolServer::handle_reshare_subshare(net::Context& ctx,
                                             std::span<const std::uint8_t> body) {
  ReshareSubshareMsg msg;
  try {
    msg = decode_as<ReshareSubshareMsg>(MsgType::kReshareSubshare, body, cfg_.params);
  } catch (const CodecError&) {
    return;
  }
  absorb_subshare(ctx, msg);
}

void ProtocolServer::absorb_subshare(net::Context& ctx, const ReshareSubshareMsg& msg) {
  // Keep sub-shares for the install in progress (epoch+1) or the one just
  // installed (pending members still collecting). Latest receipt wins, so a
  // garbage value cannot permanently shadow the dealer's real one — a bad
  // entry fails verification in maybe_complete_share, is dropped, and the
  // pull retries.
  if (msg.epoch != cfg_epoch_ && msg.epoch != cfg_epoch_ + 1) return;
  subshares_[{msg.epoch, msg.dealer}] = msg;
  if (share_pending_) maybe_complete_share(ctx);
}

void ProtocolServer::maybe_complete_share(net::Context& ctx) {
  if (!share_pending_) return;
  auto lit = install_log_.find(cfg_epoch_);
  if (lit == install_log_.end()) return;
  ReconfigApplyMsg apply;
  try {
    apply = decode_as<ReconfigApplyMsg>(MsgType::kReconfigApply, lit->second.apply.body,
                                        cfg_.params);
  } catch (const CodecError&) {
    return;
  }
  std::vector<std::uint32_t> dealers;
  std::vector<mpz::Bigint> enc_subs, sign_subs;
  for (const SignedMessage& deal_env : apply.deals) {
    ReshareDealMsg deal;
    try {
      deal = decode_as<ReshareDealMsg>(MsgType::kReshareDeal, deal_env.body, cfg_.params);
    } catch (const CodecError&) {
      return;
    }
    auto sit = subshares_.find({cfg_epoch_, deal.dealer});
    if (sit == subshares_.end()) return;  // still missing — the pull keeps running
    const ReshareSubshareMsg& sub = sit->second;
    // Verify against the CERTIFIED deal commitments (the sub-share itself is
    // an unsigned client frame; the feldman check is its authentication).
    if (sub.target_rank != secrets_.rank ||
        !threshold::reshare_verify_subshare(cfg_.params, deal.enc,
                                            {secrets_.rank, sub.enc_sub}) ||
        !threshold::reshare_verify_subshare(cfg_.params, deal.sign,
                                            {secrets_.rank, sub.sign_sub})) {
      subshares_.erase(sit);  // forged/corrupt — drop so the real one can land
      return;
    }
    dealers.push_back(deal.dealer);
    enc_subs.push_back(sub.enc_sub);
    sign_subs.push_back(sub.sign_sub);
  }
  secrets_.enc_share = threshold::reshare_apply(cfg_.params, dealers, enc_subs, secrets_.rank);
  secrets_.sign_share = threshold::reshare_apply(cfg_.params, dealers, sign_subs, secrets_.rank);
  share_pending_ = false;
  cancel_resend(subshare_pull_resend_);
  // Now a full member: start coordinating the transfers the apply carried
  // (admission-gated like every other entry point).
  if (is_b() && active()) {
    for (TransferId t : apply.transfers) transfers_.insert(t);
    for (TransferId t : transfers_) {
      schedule_coordinator(ctx, t);
      arm_result_pull(ctx, t);
    }
  }
}

void ProtocolServer::handle_wrong_epoch(net::Context& ctx, net::NodeId from,
                                        std::span<const std::uint8_t> body) {
  WrongEpochMsg msg;
  try {
    msg = decode_as<WrongEpochMsg>(MsgType::kWrongEpoch, body, cfg_.params);
  } catch (const CodecError&) {
    return;
  }
  // The peer claims to be ahead: pull its install chain. (A forged claim
  // costs one pull round-trip and nothing else.)
  if (msg.epoch > cfg_epoch_) send_reconfig_pull(ctx, from);
}

void ProtocolServer::handle_reconfig_pull(net::Context& ctx, net::NodeId from,
                                          std::span<const std::uint8_t> body) {
  ReconfigPullMsg msg;
  try {
    msg = decode_as<ReconfigPullMsg>(MsgType::kReconfigPull, body, cfg_.params);
  } catch (const CodecError&) {
    return;
  }
  // One epoch per reply: the puller can only validate the step its installed
  // roster signs; it re-pulls after each successful install.
  auto it = install_log_.find(msg.epoch + 1);
  if (it == install_log_.end()) return;
  ReconfigStateMsg reply;
  reply.apply = it->second.apply;
  reply.echoes = it->second.echoes;
  ctx.send(from, frame_client(encode_body(MsgType::kReconfigState, reply)));
}

void ProtocolServer::handle_reconfig_state(net::Context& ctx, net::NodeId from,
                                           std::span<const std::uint8_t> body) {
  ReconfigStateMsg msg;
  try {
    msg = decode_as<ReconfigStateMsg>(MsgType::kReconfigState, body, cfg_.params);
  } catch (const CodecError&) {
    return;
  }
  auto apply = check_install_record(cfg_, cfg_epoch_, msg.apply, msg.echoes);
  if (!apply) return;
  install_config(ctx, msg.apply, *apply, std::move(msg.echoes));
  // Walk the chain: ask the same peer for the next epoch. Termination is
  // guaranteed because the follow-up pull happens only after an install
  // strictly advanced cfg_epoch_.
  send_reconfig_pull(ctx, from);
}

void ProtocolServer::handle_subshare_pull(net::Context& ctx, net::NodeId from,
                                          std::span<const std::uint8_t> body) {
  SubsharePullMsg msg;
  try {
    msg = decode_as<SubsharePullMsg>(MsgType::kSubsharePull, body, cfg_.params);
  } catch (const CodecError&) {
    return;
  }
  auto fit = dealt_frames_.find(msg.epoch);
  if (fit == dealt_frames_.end()) return;
  const DealtEpoch& de = fit->second;
  if (msg.my_new_rank == 0 || msg.my_new_rank >= de.frames.size()) return;
  // Secrecy: rank j's sub-share only ever goes to the node the certified
  // roster assigns rank j — anyone else pulling it is an exfiltration probe.
  if (de.targets[msg.my_new_rank - 1] != from) return;
  resend_frame(ctx, from, de.frames[msg.my_new_rank]);
}

// --- crash recovery -----------------------------------------------------------

namespace {
constexpr std::uint8_t kSnapshotVersion = 1;
}  // namespace

std::vector<std::uint8_t> ProtocolServer::snapshot() const {
  Writer w;
  w.u8(kSnapshotVersion);
  w.u32(static_cast<std::uint32_t>(stored_.size()));
  for (const auto& [t, c] : stored_) {
    w.u64(t);
    put_ciphertext(w, c);
  }
  w.u32(static_cast<std::uint32_t>(pending_store_.size()));
  for (const auto& [t, p] : pending_store_) {
    w.u64(t);
    put_ciphertext(w, p.first);
    w.u64(p.second);
  }
  w.u32(static_cast<std::uint32_t>(transfers_.size()));
  for (TransferId t : transfers_) w.u64(t);
  w.u32(static_cast<std::uint32_t>(next_epoch_.size()));
  for (const auto& [t, e] : next_epoch_) {
    w.u64(t);
    w.u32(e);
  }
  std::uint32_t done_count = 0;
  for (const auto& [t, v] : done_msgs_) done_count += static_cast<std::uint32_t>(v.size());
  w.u32(done_count);
  for (const auto& [t, v] : done_msgs_) {
    for (const ServiceSignedMsg& m : v) m.encode(w);
  }
  return w.take();
}

void ProtocolServer::restore(std::span<const std::uint8_t> snap) {
  // A crash loses everything volatile: round state, signing sessions, reply
  // caches, armed retransmissions, parked messages, and derived results.
  stored_.clear();
  pending_store_.clear();
  transfers_.clear();
  results_.clear();
  done_msgs_.clear();
  done_payloads_.clear();
  parked_blinds_.clear();
  contributor_.clear();
  coordinator_.clear();
  sign_sessions_.clear();
  member_sessions_.clear();
  responder_.clear();
  seen_blind_.clear();
  resends_.clear();
  result_pull_keys_.clear();
  next_epoch_.clear();
  decrypt_reply_frames_.clear();
  client_decrypt_cache_.clear();
  responder_timer_ids_.clear();
  results_count_.store(0, std::memory_order_release);
  // Admission scheduling is volatile; on_start re-feeds it from the restored
  // transfer set. The per-instance rng root dies with the incarnation:
  // on_start draws a fresh one, so a recovered server never replays an
  // instance stream it may have used.
  engine_.reset();
  metrics_.engine_inflight.set(0);
  metrics_.engine_queued.set(0);
  // Watchdog entries (and a possibly-pending sweep timer) die with the
  // incarnation; on_start re-arms from the restored transfer set. A stall
  // observed pre-crash therefore resolves via the transfer's eventual
  // kDoneRecorded, not a kStallResolved (the chaos checker accepts both).
  watchdog_.reset();
  watchdog_timer_armed_ = false;
  // scheduled_arrivals_ is pre-simulation setup like scheduled_reconfigs_:
  // kept, so on_start re-arms it (the arrival handler dedupes via transfers_).
  // Installed configurations are volatile too: a recovered server restarts at
  // the SEED configuration (epoch 0) with its construction-time share, and
  // re-learns the install chain from peers via the epoch gate + pull path. A
  // server that crashed in epoch e and recovers after e+1 installed therefore
  // never acts on its stale share: its first stamped message draws a
  // kWrongEpoch, it pulls the certificates, installs them in order, and
  // rejoins (or retires) under the current roster.
  cfg_ = initial_cfg_;
  secrets_ = initial_secrets_;
  cfg_epoch_ = 0;
  opts_.max_coordinators =
      initial_max_coordinators_ == 0 ? initial_cfg_.b.cfg.f + 1 : initial_max_coordinators_;
  reconfig_round_.reset();
  applies_by_digest_.clear();
  echoes_by_digest_.clear();
  subshares_.clear();
  dealt_frames_.clear();
  install_log_.clear();
  share_pending_ = false;
  subshare_pull_resend_ = 0;
  install_pull_armed_ = false;
  restored_ = true;  // on_start pulls the install chain proactively
  // scheduled_reconfigs_ is pre-simulation setup, not runtime state: kept, so
  // on_start re-arms it (the timer handler skips already-installed epochs).
  if (snap.empty()) return;

  // Parse into locals and commit only on full success: a corrupt snapshot
  // recovers with EMPTY durable state, never a partial one (and never throws).
  try {
    Reader r(snap, &cfg_.params);
    if (r.u8() != kSnapshotVersion) return;
    std::map<TransferId, elgamal::Ciphertext> stored;
    for (std::uint32_t i = 0, n = r.count(8); i < n; ++i) {
      TransferId t = r.u64();
      stored[t] = get_ciphertext(r);
    }
    std::map<TransferId, std::pair<elgamal::Ciphertext, net::Time>> pending;
    for (std::uint32_t i = 0, n = r.count(8); i < n; ++i) {
      TransferId t = r.u64();
      elgamal::Ciphertext c = get_ciphertext(r);
      net::Time when = r.u64();
      pending[t] = {std::move(c), when};
    }
    std::set<TransferId> transfers;
    for (std::uint32_t i = 0, n = r.count(8); i < n; ++i) transfers.insert(r.u64());
    std::map<TransferId, std::uint32_t> next_epoch;
    for (std::uint32_t i = 0, n = r.count(8); i < n; ++i) {
      TransferId t = r.u64();
      next_epoch[t] = r.u32();
    }
    std::vector<ServiceSignedMsg> dones;
    for (std::uint32_t i = 0, n = r.count(8); i < n; ++i) {
      dones.push_back(ServiceSignedMsg::decode(r));
    }
    r.expect_done();

    stored_ = std::move(stored);
    pending_store_ = std::move(pending);
    transfers_ = std::move(transfers);
    next_epoch_ = std::move(next_epoch);
    // Rebuild results from the durable done messages, re-validating each one
    // (a snapshot is data, not an authority on signature validity).
    for (const ServiceSignedMsg& m : dones) {
      auto done = check_done(cfg_, m);
      if (done) record_done(nullptr, *done, m);
    }
  } catch (const CodecError&) {
  }
}

// --- observability -----------------------------------------------------------

void ProtocolServer::emit_trace(net::Context& ctx, obs::EventKind kind, const InstanceId* id) {
  emit_trace(ctx, kind, id, TraceExtras{});
}

void ProtocolServer::emit_trace(net::Context& ctx, obs::EventKind kind, const InstanceId* id,
                                const TraceExtras& extra) {
  if (opts_.trace == nullptr) return;
  obs::TraceEvent ev;
  ev.ts = ctx.now();
  ev.node = ctx.self();
  ev.kind = kind;
  if (id != nullptr) {
    ev.has_instance = true;
    ev.transfer = id->transfer;
    ev.coordinator = id->coordinator;
    ev.epoch = id->epoch;
  } else {
    ev.transfer = extra.transfer;
  }
  ev.peer = extra.peer;
  ev.subject = extra.subject;
  ev.count = extra.count;
  ev.attempt = extra.attempt;
  ev.cap = extra.cap;
  ev.cfg_epoch = cfg_epoch_;
  // Causal chaining: every protocol event is a span whose parent is the
  // ambient span (the message delivery, timer restore, or preceding protocol
  // event that caused it). The event then becomes the ambient span itself, so
  // later events in the same handler — and any sends or timers it arms —
  // descend from it. With tracing off mint_span() returns 0 and the
  // recorder was never reached, so this path stays dormant.
  ev.span = ctx.mint_span();
  ev.parent = ctx.current_span();
  ctx.set_current_span(ev.span);
  opts_.trace->record(ev);
  watchdog_note(ctx, ev);
}

void ProtocolServer::watchdog_note(net::Context& ctx, const obs::TraceEvent& ev) {
  // B roster members only: A servers and retired/standby servers (rank 0)
  // never owe a done record, so tracking them would manufacture stalls.
  if (!watchdog_.enabled() || !is_b() || !active() || ev.transfer == 0) return;
  std::optional<obs::Watchdog::Resolution> res;
  if (ev.kind == obs::EventKind::kDoneRecorded) {
    res = watchdog_.complete(ev.transfer, ev.ts);
  } else if (!results_.contains(ev.transfer)) {
    // Refresh (or implicitly arm — late arrivals, epoch re-admissions) the
    // transfer's deadline. Completed transfers are excluded: stray traffic
    // for them (duplicated frames, peers' retransmits) must not resurrect a
    // tracking entry that nothing will ever complete again.
    res = watchdog_.progress(ev.transfer, ev.ts, ev.span);
  }
  // A freshly (implicitly) armed entry may need the sweep timer running.
  arm_watchdog_timer(ctx);
  if (!res.has_value()) return;
  // Emitted directly (not via emit_trace) so the hook cannot re-enter.
  obs::TraceEvent out;
  out.ts = ev.ts;
  out.node = ev.node;
  out.kind = obs::EventKind::kStallResolved;
  out.transfer = res->transfer;
  out.count = res->stalled_us;
  out.cfg_epoch = cfg_epoch_;
  out.span = ctx.mint_span();
  out.parent = ev.span;  // the resolution descends from the resolving event
  opts_.trace->record(out);
}

void ProtocolServer::arm_watchdog_timer(net::Context& ctx) {
  if (watchdog_timer_armed_ || opts_.trace == nullptr) return;
  std::optional<std::uint64_t> due = watchdog_.next_expiry();
  if (!due) return;
  watchdog_timer_armed_ = true;
  // Fire exactly at the earliest deadline, so a stall surfaces the instant
  // the idle bound passes. Deadlines only move later (progress happens at
  // `now` and the bound is fixed), so the one pending timer is never later
  // than any entry armed after it; a sweep that finds the deadline pushed
  // back simply re-arms.
  ctx.set_timer(*due > ctx.now() ? *due - ctx.now() : 0, kTimerWatchdog);
}

void ProtocolServer::watchdog_tick(net::Context& ctx) {
  watchdog_timer_armed_ = false;
  if (opts_.trace != nullptr) {
    for (const obs::Watchdog::Stall& s : watchdog_.expired(ctx.now())) {
      obs::TraceEvent ev;
      ev.ts = ctx.now();
      ev.node = ctx.self();
      ev.kind = obs::EventKind::kStall;
      ev.transfer = s.transfer;
      // One-shot public state dump: engine queue depth and outstanding
      // retransmission entries. Counts only — never payloads.
      ev.count = engine_.queued();
      ev.attempt = static_cast<std::uint32_t>(resends_.size());
      ev.cfg_epoch = cfg_epoch_;
      ev.span = ctx.mint_span();
      // The transfer's latest span: walking its parent chain reconstructs the
      // span stack the transfer stalled under.
      ev.parent = s.last_span;
      opts_.trace->record(ev);
    }
  }
  arm_watchdog_timer(ctx);
}

void ProtocolServer::resolve_metrics(net::Context& ctx) {
  if (metrics_.resolved || opts_.metrics == nullptr) return;
  metrics_.resolved = true;
  obs::MetricsRegistry& reg = *opts_.metrics;
  const std::string node = std::to_string(ctx.self());
  for (std::size_t i = 1; i < Metrics::kTypes; ++i) {
    obs::LabelSet by_type{{"node", node}, {"type", msg_type_name(static_cast<MsgType>(i))}};
    metrics_.rx_msgs[i] = reg.counter("dblind_rx_messages_total", by_type);
    metrics_.rx_bytes[i] = reg.counter("dblind_rx_bytes_total", by_type);
    metrics_.mont_muls[i] = reg.counter("dblind_handler_mont_muls_total", by_type);
    metrics_.handler_wall_us[i] = reg.histogram("dblind_handler_wall_us", by_type,
                                                {10, 100, 1'000, 10'000, 100'000});
  }
  const obs::LabelSet by_node{{"node", node}};
  const std::vector<std::uint64_t> lat{1'000,   10'000,    100'000,
                                       400'000, 1'600'000, 6'400'000};
  metrics_.phase_commit_us = reg.histogram("dblind_phase_commit_us", by_node, lat);
  metrics_.phase_contribute_us = reg.histogram("dblind_phase_contribute_us", by_node, lat);
  metrics_.phase_blind_sign_us = reg.histogram("dblind_phase_blind_sign_us", by_node, lat);
  metrics_.phase_decrypt_us = reg.histogram("dblind_phase_decrypt_us", by_node, lat);
  metrics_.phase_done_sign_us = reg.histogram("dblind_phase_done_sign_us", by_node, lat);
  metrics_.verify_pass = reg.counter("dblind_verify_total", {{"node", node}, {"result", "pass"}});
  metrics_.verify_fail = reg.counter("dblind_verify_total", {{"node", node}, {"result", "fail"}});
  metrics_.batch_fallbacks = reg.counter("dblind_batch_verify_fallbacks_total", by_node);
  // Pre-existing counters migrate onto the registry as attached (read-only)
  // series: the registry samples the live cells, the owners keep updating
  // them exactly as before.
  reg.attach_counter("dblind_retransmits_sent_total", by_node, &retransmits_sent_);
  reg.attach_counter("dblind_mont_muls_total", {}, cfg_.params.mont_mul_cell());
  // Backend-labelled view of the same op counter plus its word-mul weight:
  // lets offline tooling (trace_critpath) attribute crypto cost to the
  // active group backend instead of assuming mod-p Montgomery muls.
  reg.attach_counter("dblind_group_ops_total",
                     {{"backend", std::string(cfg_.params.backend_name())}},
                     cfg_.params.group_op_cell());
  reg.gauge("dblind_group_op_weight",
            {{"backend", std::string(cfg_.params.backend_name())}})
      .set(cfg_.params.op_cost_weight());
  reg.attach_counter("dblind_batch_verify_combined_total", {},
                     &zkp::batch_verify_counts().combined);
  reg.attach_counter("dblind_batch_verify_rejected_total", {},
                     &zkp::batch_verify_counts().rejected);
  metrics_.contrib_mont_muls_online =
      reg.counter("dblind_contrib_mont_muls_total", {{"node", node}, {"path", "online"}});
  metrics_.contrib_mont_muls_offline =
      reg.counter("dblind_contrib_mont_muls_total", {{"node", node}, {"path", "offline"}});
  metrics_.config_epoch = reg.gauge("dblind_config_epoch", by_node);
  metrics_.reconfig_installs =
      reg.counter("dblind_reconfig_events_total", {{"node", node}, {"event", "install"}});
  metrics_.reconfig_aborts =
      reg.counter("dblind_reconfig_events_total", {{"node", node}, {"event", "abort"}});
  metrics_.reconfig_stale_rejects =
      reg.counter("dblind_reconfig_events_total", {{"node", node}, {"event", "stale_reject"}});
  metrics_.engine_inflight = reg.gauge("dblind_engine_inflight", by_node);
  metrics_.engine_queued = reg.gauge("dblind_engine_queued", by_node);
  metrics_.engine_admits =
      reg.counter("dblind_engine_events_total", {{"node", node}, {"event", "admit"}});
  metrics_.engine_defers =
      reg.counter("dblind_engine_events_total", {{"node", node}, {"event", "defer"}});
}

}  // namespace dblind::core

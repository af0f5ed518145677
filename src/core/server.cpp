#include "core/server.hpp"

#include <algorithm>
#include <chrono>

#include "core/client.hpp"
#include "threshold/thresh_decrypt.hpp"

namespace dblind::core {

ProtocolServer::ProtocolServer(SystemConfig cfg, ServerSecrets secrets, ProtocolOptions opts,
                               Behavior behavior)
    : cfg_(std::move(cfg)), secrets_(std::move(secrets)), opts_(std::move(opts)),
      behavior_(behavior), initial_cfg_(cfg_), initial_secrets_(secrets_),
      observer_(opts_.trace, opts_.watchdog_deadline, ledger_.results),
      recovery_(opts_.retransmit), blinding_(behavior, opts_.backup_delay),
      signing_(behavior, opts_.signing_retry_delay),
      responder_(opts_.backup_delay) {
  pin_bases();
}

void ProtocolServer::pin_bases() {
  const group::GroupParams& gp = cfg_.params;
  gp.pin_base(cfg_.a.encryption_key.y());
  gp.pin_base(cfg_.b.encryption_key.y());
  gp.pin_base(gp.mul(cfg_.a.encryption_key.y(), cfg_.b.encryption_key.y()));
  pin_keys();
}

void ProtocolServer::pin_keys() {
  for (const ServicePublic* svc : {&cfg_.a, &cfg_.b}) {
    cfg_.params.pin_base(svc->signing_key.point());
    for (const zkp::SchnorrVerifyKey& key : svc->server_sign_keys)
      cfg_.params.pin_base(key.point());
  }
}

void ProtocolServer::store_secret(TransferId transfer, elgamal::Ciphertext ea_m) {
  ledger_.stored[transfer] = std::move(ea_m);
}

void ProtocolServer::store_secret_at(TransferId transfer, elgamal::Ciphertext ea_m,
                                     net::Time when) {
  ledger_.pending_store[transfer] = {std::move(ea_m), when};
}

void ProtocolServer::register_transfer(TransferId transfer) { ledger_.transfers.insert(transfer); }

void ProtocolServer::register_transfer_arriving(TransferId transfer, net::Time when) {
  scheduled_arrivals_.emplace_back(when, transfer);
}

void ProtocolServer::schedule_reconfig(ReconfigSpec spec, net::Time at) {
  scheduled_reconfigs_.emplace_back(at, std::move(spec));
}

std::optional<elgamal::Ciphertext> ProtocolServer::result(TransferId transfer) const {
  auto it = ledger_.results.find(transfer);
  if (it == ledger_.results.end()) return std::nullopt;
  return it->second;
}

// --- transport entry points ---------------------------------------------------

void ProtocolServer::on_start(net::Context& ctx) {
  auto t0 = std::chrono::steady_clock::now();
  observer_.resolve(ctx, opts_.metrics, cfg_.params, &recovery_.sent_cell());
  observer_.m.config_epoch.set(cfg_epoch_);
  store_timers_.clear();
  for (const auto& [transfer, pair] : ledger_.pending_store) {
    ctx.set_timer(pair.second, timer::kStoreSecret | store_timers_.size());
    store_timers_.push_back(transfer);
  }
  // Kept across restore(): the round skips an epoch already installed.
  for (std::size_t i = 0; i < scheduled_reconfigs_.size(); ++i) {
    ctx.set_timer(scheduled_reconfigs_[i].first, timer::kReconfig | i);
  }
  if (restored_) {
    restored_ = false;
    resharing_.pull_installs(local(ctx));
  }
  if (is_b()) {
    blinding_.new_incarnation(ctx);
    const Local l = local(ctx);
    // After a restart, completed transfers (restored from the durable done
    // messages) are skipped, and the coordinator epoch continues past
    // anything this server may have announced pre-crash.
    for (TransferId t : ledger_.transfers) blinding_.coordinate(l, t, ledger_.results, signing_);
    for (std::size_t i = 0; i < scheduled_arrivals_.size(); ++i) {
      ctx.set_timer(scheduled_arrivals_[i].first, timer::kTransferArrival | i);
    }
    for (TransferId t : ledger_.transfers) recovery_.pull_result(ctx, cfg_, t, ledger_.results);
    // Stall watchdog: track every unfinished transfer from this incarnation's
    // start (a later arrival is tracked from its first transfer-scoped event).
    if (observer_.watchdog().enabled()) {
      for (TransferId t : ledger_.transfers) {
        if (!ledger_.results.contains(t)) observer_.watchdog().arm(t, ctx.now());
      }
      observer_.arm_watchdog(ctx);
    }
    // Step flexibility, as on a later arrival in run_transfer.
    for (TransferId t : ledger_.transfers) blinding_.precompute(l, t, ledger_.results);
  }
  cpu_seconds_ += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void ProtocolServer::on_timer(net::Context& ctx, std::uint64_t token) {
  auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t arg = token & ~timer::kKindMask;
  const Local l = local(ctx);
  switch (token & timer::kKindMask) {
    case timer::kCoordinator: blinding_.on_timer(l, arg, ledger_.results, signing_); break;
    case timer::kTransferArrival:  // as if a client kTransferRequest landed now
      if (arg < scheduled_arrivals_.size()) run_transfer(ctx, scheduled_arrivals_[arg].second);
      break;
    case timer::kReconfig:
      if (arg < scheduled_reconfigs_.size()) {
        const ReconfigSpec& spec = scheduled_reconfigs_[arg].second;
        if (active() && cfg_epoch_ < spec.epoch)
          install_if(ctx, resharing_.propose(l, spec, ledger_));
      }
      break;
    case timer::kResend: recovery_.on_timer(l, arg, ledger_.results); break;
    case timer::kSignRetry: signing_.on_retry_timer(l, arg, ledger_.results); break;
    case timer::kStoreSecret:
      if (arg >= store_timers_.size()) break;
      if (auto it = ledger_.pending_store.find(store_timers_[arg]);
          it != ledger_.pending_store.end()) {
        ledger_.stored[it->first] = it->second.first;
        ledger_.pending_store.erase(it);
        responder_.replay_parked(l, ledger_);
      }
      break;
    case timer::kWatchdog:
      observer_.watchdog_tick(ctx, cfg_epoch_, recovery_.open_entries());
      break;
    default: break;
  }
  cpu_seconds_ += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

obs::ScopedCounterDelta ProtocolServer::count_rx(MsgType type, std::size_t bytes) {
  ++rx_counts_[type];
  const std::size_t slot = metric_slot(type);
  observer_.m.rx_msgs[slot].inc();
  observer_.m.rx_bytes[slot].inc(bytes);
  return obs::ScopedCounterDelta(cfg_.params.group_op_cell(), observer_.m.mont_muls[slot]);
}

void ProtocolServer::on_message(net::Context& ctx, net::NodeId from,
                                std::span<const std::uint8_t> bytes) {
  if (behavior_ == Behavior::kSilent) return;
  auto t0 = std::chrono::steady_clock::now();
  MsgType rx_type{};
  // Each frame is parsed once, here; a malformed one is lost (§4.2.3).
  try {
    Reader r(bytes, &cfg_.params);
    const auto kind = static_cast<WireKind>(r.u8());
    if (kind == WireKind::kServerSigned) {
      const auto env = group::read<SignedMessage>(r);
      r.expect_done();
      rx_type = peek_type(env.body);
      const obs::ScopedCounterDelta mont = count_rx(rx_type, bytes.size());
      on_signed(ctx, from, rx_type, env);
    } else if (kind == WireKind::kServiceSigned) {
      const auto msg = group::read<ServiceSignedMsg>(r);
      r.expect_done();
      rx_type = peek_type(msg.body);
      const obs::ScopedCounterDelta mont = count_rx(rx_type, bytes.size());
      if (rx_type == MsgType::kBlind) responder_.on_blind(local(ctx), from, msg, ledger_);
      if (rx_type == MsgType::kDone) accept_done(ctx, msg, std::nullopt);
    } else if (kind == WireKind::kClient) {
      const std::vector<std::uint8_t> body = r.bytes();
      r.expect_done();
      rx_type = peek_type(body);
      const obs::ScopedCounterDelta mont = count_rx(rx_type, bytes.size());
      on_client(ctx, from, rx_type, body);
    }
  } catch (const CodecError&) {
  }
  const auto wall = std::chrono::steady_clock::now() - t0;
  cpu_seconds_ += std::chrono::duration<double>(wall).count();
  observer_.m.handler_wall_us[metric_slot(rx_type)].observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(wall).count()));
}

void ProtocolServer::on_signed(net::Context& ctx, net::NodeId from, MsgType type,
                               const SignedMessage& env) {
  const Local l = local(ctx);
  // Epoch gate (I6): a stale message gets a typed kWrongEpoch so its sender
  // catches up; a FUTURE stamp means WE are behind, so we pull the install
  // chain. Either way handlers only ever see same-epoch traffic.
  if (env.cfg_epoch < cfg_epoch_) {
    observer_.m.reconfig_stale_rejects.inc();
    resharing_.reject_stale(l, from, env);
    return;
  }
  if (env.cfg_epoch > cfg_epoch_) {
    resharing_.send_pull(l, from);
    return;
  }
  switch (type) {
    case MsgType::kInit: blinding_.on_init(l, env, ledger_.results); break;
    case MsgType::kCommit: blinding_.on_commit(l, env); break;
    case MsgType::kReveal: blinding_.on_reveal(l, env); break;
    case MsgType::kContribute: blinding_.on_contribute(l, env, signing_); break;
    case MsgType::kSignRequest: signing_.on_request(l, env, ledger_); break;
    case MsgType::kSignCommitReply: signing_.on_commit_reply(l, env); break;
    case MsgType::kSignQuorum: signing_.on_quorum(l, env, ledger_); break;
    case MsgType::kSignRevealReply: signing_.on_reveal_reply(l, env); break;
    case MsgType::kSignRevealSet: signing_.on_reveal_set(l, env); break;
    case MsgType::kSignPartialReply:
      if (auto sig = signing_.on_partial(l, env)) {
        if (sig->purpose == SignPurpose::kBlind) {
          blinding_.on_signed(l, *sig, ledger_.results);
        } else {
          responder_.on_signed(l, *sig);
        }
      }
      break;
    case MsgType::kDecryptRequest: responder_.on_decrypt_request(l, env, ledger_); break;
    case MsgType::kDecryptShareReply: responder_.on_share_reply(l, env, ledger_, signing_); break;
    case MsgType::kReconfigStart: install_if(ctx, resharing_.on_start(l, env, ledger_)); break;
    case MsgType::kReshareDeal: install_if(ctx, resharing_.on_deal(l, env, ledger_)); break;
    case MsgType::kReconfigApply: install_if(ctx, resharing_.on_apply(l, env)); break;
    case MsgType::kReconfigEcho: install_if(ctx, resharing_.on_echo(l, env)); break;
    default: break;  // not a server-signed kind — ignore
  }
}

void ProtocolServer::on_client(net::Context& ctx, net::NodeId from, MsgType type,
                               std::span<const std::uint8_t> body) {
  const Local l = local(ctx);
  switch (type) {
    case MsgType::kTransferRequest: handle_transfer_request(ctx, body); break;
    case MsgType::kResultRequest:
      if (!is_b()) break;
      if (auto msg = try_decode<ResultRequestMsg>(cfg_, type, body)) {
        auto it = ledger_.done_msgs.find(msg->transfer);
        if (it == ledger_.done_msgs.end()) break;
        const ResultReplyMsg reply{msg->transfer, it->second.front()};
        ctx.send(from, frame_client(encode_body(MsgType::kResultReply, reply)));
      }
      break;
    case MsgType::kResultReply:
      if (!is_b()) break;
      if (auto msg = try_decode<ResultReplyMsg>(cfg_, MsgType::kResultReply, body))
        accept_done(ctx, msg->done, msg->transfer);
      break;
    case MsgType::kClientDecryptRequest: handle_client_decrypt_request(ctx, from, body); break;
    case MsgType::kReshareSubshare:
      if (auto share = resharing_.on_subshare(l, body)) adopt_share(ctx, std::move(*share));
      break;
    case MsgType::kWrongEpoch: resharing_.on_wrong_epoch(l, from, body); break;
    case MsgType::kReconfigPull: resharing_.on_pull(l, from, body); break;
    case MsgType::kReconfigState:
      if (auto cert = resharing_.on_state(l, body)) {
        install(ctx, std::move(*cert));
        // Walk the chain: each follow-up pull comes after an install advanced
        // the epoch, so this terminates.
        resharing_.send_pull(local(ctx), from);
      }
      break;
    case MsgType::kSubsharePull: resharing_.on_subshare_pull(l, from, body); break;
    default: break;
  }
}

// --- service B results -----------------------------------------------------------

void ProtocolServer::accept_done(net::Context& ctx, const ServiceSignedMsg& msg,
                                 std::optional<TransferId> transfer) {
  if (!is_b()) return;
  auto done = check_done(cfg_, msg);
  if (done && (!transfer || done->id.transfer == *transfer)) record_done(&ctx, *done, msg);
}

void ProtocolServer::run_transfer(net::Context& ctx, TransferId transfer) {
  if (!ledger_.transfers.insert(transfer).second) return;  // already registered
  blinding_.coordinate(local(ctx), transfer, ledger_.results, signing_);
  recovery_.pull_result(ctx, cfg_, transfer, ledger_.results);
  blinding_.precompute(local(ctx), transfer, ledger_.results);
}

void ProtocolServer::resume_transfers(net::Context& ctx) {
  const Local l = local(ctx);
  for (TransferId t : ledger_.transfers) blinding_.coordinate(l, t, ledger_.results, signing_);
  for (TransferId t : ledger_.transfers) recovery_.pull_result(ctx, cfg_, t, ledger_.results);
}

void ProtocolServer::record_done(net::Context* ctx, const DonePayload& done,
                                 const ServiceSignedMsg& msg) {
  // Keep every distinct validated done (coordinators may finish with
  // different, equivalent ciphertexts); clients pick one.
  std::vector<DonePayload>& payloads = ledger_.done_payloads[done.id.transfer];
  if (std::none_of(payloads.begin(), payloads.end(),
                   [&](const DonePayload& p) { return p.eb_m == done.eb_m; })) {
    payloads.push_back(done);
    ledger_.done_msgs[done.id.transfer].push_back(msg);
  }
  // The first valid result wins and moots the transfer's retransmissions.
  if (!ledger_.results.try_emplace(done.id.transfer, done.eb_m).second) return;
  results_count_.fetch_add(1, std::memory_order_release);
  recovery_.cancel_transfer(done.id.transfer);
  blinding_.on_done(done.id.transfer);
  if (ctx == nullptr) return;  // restore: no trace timestamp exists there
  local(*ctx).trace(obs::EventKind::kDoneRecorded, &done.id);
}

// --- client-facing handlers --------------------------------------------------------

void ProtocolServer::handle_transfer_request(net::Context& ctx,
                                             std::span<const std::uint8_t> body) {
  auto msg = try_decode<TransferRequestMsg>(cfg_, MsgType::kTransferRequest, body);
  if (!msg) return;
  if (is_b()) return run_transfer(ctx, msg->transfer);
  if (ledger_.stored.contains(msg->transfer) || ledger_.pending_store.contains(msg->transfer))
    return;  // first writer wins
  if (!cfg_.a.encryption_key.well_formed(msg->ea_m)) return;
  ledger_.stored[msg->transfer] = msg->ea_m;
}

void ProtocolServer::handle_client_decrypt_request(net::Context& ctx, net::NodeId from,
                                                   std::span<const std::uint8_t> body) {
  if (!is_b() || !active() || resharing_.share_pending()) return;
  auto msg = try_decode<ClientDecryptRequestMsg>(cfg_, MsgType::kClientDecryptRequest, body);
  if (!msg) return;
  // Duplicate of the same request from the same client: replay the cached
  // reply. A request for a DIFFERENT (still authorized) ciphertext gets a
  // fresh share and replaces the cache entry.
  const auto key = std::make_pair(from, msg->transfer);
  auto cached = client_decrypt_cache_.find(key);
  if (cached != client_decrypt_cache_.end() && std::ranges::equal(cached->second.first, body)) {
    recovery_.resend_frame(ctx, from, cached->second.second);
    return;
  }
  // Only decrypt ciphertexts that appear in a VALID done message for this
  // transfer — the client API must not be a general decryption oracle.
  auto it = ledger_.done_payloads.find(msg->transfer);
  if (it == ledger_.done_payloads.end()) return;
  if (std::none_of(it->second.begin(), it->second.end(),
                   [&](const DonePayload& p) { return p.eb_m == msg->ciphertext; }))
    return;

  threshold::DecryptionShare share = threshold::make_decryption_share(
      cfg_.params, msg->ciphertext, secrets_.enc_share, client_decrypt_context(msg->transfer),
      ctx.rng());
  Frame frame = frame_client(encode_body(MsgType::kClientDecryptReply,
                                         ClientDecryptReplyMsg{msg->transfer, std::move(share)}));
  client_decrypt_cache_[key] = {Frame(body.begin(), body.end()), frame};
  ctx.send(from, frame);
}

// --- epochal reconfiguration -----------------------------------------------------------

void ProtocolServer::drop_round_state() {
  blinding_.reset();
  signing_.reset();
  responder_.reset();
  resharing_.reset();
  recovery_.reset();
  client_decrypt_cache_.clear();
}

void ProtocolServer::install(net::Context& ctx, Certificate cert) {
  const ReconfigSpec& spec = cert.apply.spec;
  if (spec.epoch != cfg_epoch_ + 1) return;

  // 1. The instances this install aborts (I6: a transfer completes inside
  //    its birth epoch or restarts cleanly under the new one).
  std::vector<InstanceId> aborted;
  blinding_.unfinished(aborted);
  responder_.unfinished(aborted);

  // 2. Drop ALL round state: all of it is bound to the dying configuration.
  //    Step 8 (or adopt_share) coordinates the unfinished transfers afresh.
  drop_round_state();

  // 3. Everything that needs the OLD configuration, computed before the swap.
  NextService next = next_service(cfg_, cert.apply);

  // 4. Our own place under the new configuration.
  const bool changing = static_cast<std::uint8_t>(secrets_.role) == spec.service;
  ServerRank new_rank = changing ? 0 : secrets_.rank;
  for (std::size_t i = 0; changing && new_rank == 0 && i < spec.roster.size(); ++i) {
    if (spec.roster[i].node == ctx.self()) new_rank = static_cast<ServerRank>(i + 1);
  }

  // 5. Swap the configuration and bump the epoch.
  (static_cast<ServiceRole>(spec.service) == ServiceRole::kServiceA ? cfg_.a : cfg_.b) =
      std::move(next.svc);
  cfg_epoch_ = spec.epoch;
  if (changing) {
    secrets_.rank = new_rank;
    if (new_rank == 0) {
      // Retired: destroy the old shares — they are dead weight and a leak
      // hazard (proactive-security discipline, §5).
      secrets_.enc_share = threshold::Share{};
      secrets_.sign_share = threshold::Share{};
    }
    // A member completes its re-shared share below, if the sub-shares are in.
    resharing_.set_share_pending(new_rank != 0);
  }

  // 6. Record the certificate; laggards pull it one epoch at a time. A
  //    reshare never changes a service key, so the pinned bases stay, and
  //    the epoch is part of each contribution stream's key; a new roster's
  //    server keys are pinned beside the old ones.
  resharing_.record(cfg_epoch_, InstallRecord{std::move(cert.apply_env), std::move(cert.echoes)});
  pin_keys();

  // 7. Observability: aborts carry the NEW epoch ("killed by install of e").
  observer_.m.config_epoch.set(cfg_epoch_);
  observer_.m.reconfig_installs.inc();
  const Local l = local(ctx);
  for (const InstanceId& id : aborted) {
    observer_.m.reconfig_aborts.inc();
    l.trace(obs::EventKind::kEpochAbort, &id);
  }
  l.trace(obs::EventKind::kEpochInstall, nullptr, {.peer = rank(), .count = spec.n});

  // 8. Resume: B adopts the apply's transfers and restarts coordinators
  //    and result pulls under the new ranks.
  if (is_b() && active() && !resharing_.share_pending()) {
    for (TransferId t : cert.apply.transfers) ledger_.transfers.insert(t);
    resume_transfers(ctx);
  }
  // A retired server owes no more done records: stop tracking, not crying
  // wolf.
  if (is_b() && !active()) observer_.watchdog().reset();

  // 9. Complete our new share, or keep pulling the missing sub-shares.
  if (resharing_.share_pending()) {
    if (auto share = resharing_.complete_share(local(ctx))) {
      adopt_share(ctx, std::move(*share));
    } else {
      resharing_.pull_subshares(local(ctx), spec.service, next.dealers);
    }
  }
}

void ProtocolServer::adopt_share(net::Context& ctx, CompletedShare share) {
  secrets_.enc_share = std::move(share.enc);
  secrets_.sign_share = std::move(share.sign);
  // Now a full member: resume like install's step 8, with the transfers the
  // apply carried.
  if (!is_b() || !active()) return;
  for (TransferId t : share.transfers) ledger_.transfers.insert(t);
  resume_transfers(ctx);
}

// --- crash recovery -------------------------------------------------------------------

namespace {

constexpr std::uint8_t kSnapshotVersion = 1;

// A server's durable state, in snapshot order (behind kSnapshotVersion).
struct SnapshotRecord {
  ResultMap stored;
  std::map<TransferId, std::pair<elgamal::Ciphertext, net::Time>> pending_store;
  std::set<TransferId> transfers;
  std::map<TransferId, std::uint32_t> next_epochs;
  std::vector<ServiceSignedMsg> dones;  // every validated done, by transfer
};

}  // namespace

std::vector<std::uint8_t> ProtocolServer::snapshot() const {
  SnapshotRecord record{ledger_.stored, ledger_.pending_store, ledger_.transfers,
                        blinding_.next_epochs(), {}};
  for (const auto& [t, v] : ledger_.done_msgs)
    record.dones.insert(record.dones.end(), v.begin(), v.end());
  return group::to_bytes(kSnapshotVersion, record);
}

void ProtocolServer::restore(std::span<const std::uint8_t> snap) {
  // A crash loses everything volatile: round state, caches, resends, parked
  // messages and derived results.
  drop_round_state();
  ledger_ = Ledger{};
  blinding_.next_epochs().clear();
  results_count_.store(0, std::memory_order_release);
  // The watchdog too: on_start re-arms it from the restored transfer set (a
  // pre-crash stall resolves via kDoneRecorded).
  observer_.reset_watchdog();
  // Installed configurations too: a recovered server restarts at the SEED
  // configuration with its construction-time share and re-learns the install
  // chain from peers, so it never acts on a stale share. The pre-simulation
  // schedules are kept.
  cfg_ = initial_cfg_;
  secrets_ = initial_secrets_;
  cfg_epoch_ = 0;
  resharing_.forget();
  restored_ = true;  // on_start pulls the install chain proactively
  if (snap.empty()) return;

  // Parse into locals and commit only on full success: a corrupt snapshot
  // recovers with EMPTY durable state, never a partial one (and never throws).
  try {
    SnapshotRecord record =
        group::from_bytes<SnapshotRecord>(kSnapshotVersion, snap, &cfg_.params);
    ledger_.stored = std::move(record.stored);
    ledger_.pending_store = std::move(record.pending_store);
    ledger_.transfers = std::move(record.transfers);
    blinding_.next_epochs() = std::move(record.next_epochs);
    // Rebuild results from the durable done messages, re-validating each one
    // (a snapshot is data, not an authority on signature validity).
    for (const ServiceSignedMsg& m : record.dones) {
      auto done = check_done(cfg_, m);
      if (done) record_done(nullptr, *done, m);
    }
  } catch (const CodecError&) {
  }
}

}  // namespace dblind::core

#include "core/resharing.hpp"

#include <set>

#include "core/recovery.hpp"
#include "threshold/reshare.hpp"

namespace dblind::core {

namespace {

// Everyone a reconfiguration broadcast must reach: both current rosters plus
// the target roster (joiners are not in any current roster yet).
std::vector<net::NodeId> round_targets(const Local& l, const ReconfigSpec& spec) {
  std::set<net::NodeId> out;
  for (net::NodeId n : l.cfg.a.nodes()) out.insert(n);
  for (net::NodeId n : l.cfg.b.nodes()) out.insert(n);
  for (const RosterEntry& e : spec.roster) out.insert(e.node);
  return {out.begin(), out.end()};
}

Frame pull_frame(const Local& l) {
  return frame_client(encode_body(MsgType::kReconfigPull, ReconfigPullMsg{l.epoch}));
}

// The held votes of `service`'s members for `digest`, by rank.
template <typename Votes>
std::vector<SignedMessage> votes_of(const Votes& votes, std::uint8_t service,
                                    const hash::Digest& digest) {
  std::vector<SignedMessage> out;
  for (auto it = votes.lower_bound({service, 0}); it != votes.end() && it->first.first == service;
       ++it) {
    if (it->second.digest == digest) out.push_back(it->second.echo);
  }
  return out;
}

}  // namespace

NextService next_service(const SystemConfig& cfg, const ReconfigApplyMsg& apply) {
  std::vector<ReshareDealMsg> deals;
  std::vector<net::NodeId> dealers;
  const ServicePublic& old = cfg.service(static_cast<ServiceRole>(apply.spec.service));
  for (const SignedMessage& deal_env : apply.deals) {
    ReshareDealMsg d = decode_as<ReshareDealMsg>(MsgType::kReshareDeal, deal_env.body, cfg.params);
    dealers.push_back(old.node_of(d.dealer));
    deals.push_back(std::move(d));
  }
  return NextService{reconfigured_service(cfg, apply.spec, deals), std::move(dealers)};
}

Resharing::Round& Resharing::join(const ReconfigSpec& spec) {
  if (!round_) {
    round_.emplace();
    round_->spec = spec;
  }
  return *round_;
}

// --- the round -----------------------------------------------------------------

std::optional<Certificate> Resharing::propose(const Local& l, const ReconfigSpec& spec,
                                              const Ledger& ledger) {
  if (!reconfig_spec_ok(l.cfg, l.epoch, spec)) return std::nullopt;
  Round& rr = join(spec);
  if (rr.coordinating) return std::nullopt;
  rr.coordinating = true;
  rr.start_resend = l.resend.broadcast(
      l.ctx, round_targets(l, rr.spec),
      l.signed_frame(encode_body(MsgType::kReconfigStart, ReconfigStartMsg{rr.spec})),
      {.self = ToSelf::kResendOnly});
  // The proposer is usually an old-roster member itself: deal immediately.
  return deal(l, rr.spec, ledger);
}

std::optional<Certificate> Resharing::on_start(const Local& l, const SignedMessage& env,
                                               const Ledger& ledger) {
  auto msg = parse_signed<ReconfigStartMsg>(l.cfg, env, MsgType::kReconfigStart);
  if (!msg || !reconfig_spec_ok(l.cfg, l.epoch, msg->spec)) return std::nullopt;
  // Deal for the round we joined first (at most one deal per epoch — two
  // polynomials for the same epoch would equivocate on our share).
  return deal(l, join(msg->spec).spec, ledger);
}

Resharing::Dealt Resharing::make_deal(const Local& l, const ReconfigSpec& spec) const {
  const group::GroupParams& gp = l.cfg.params;
  threshold::ReshareDeal enc =
      threshold::reshare_deal(gp, l.me.enc_share, spec.n, spec.f, l.ctx.rng());
  threshold::ReshareDeal sign =
      threshold::reshare_deal(gp, l.me.sign_share, spec.n, spec.f, l.ctx.rng());
  Dealt d;
  d.deal = l.sign(encode_body(MsgType::kReshareDeal, ReshareDealMsg{spec.service, spec.epoch,
                                                                    l.me.rank, enc.commitments,
                                                                    sign.commitments}));
  d.frames.push_back(frame_signed(d.deal));
  for (std::uint32_t j = 1; j <= spec.n; ++j) {
    ReshareSubshareMsg sub{spec.service, spec.epoch, l.me.rank, j,
                           enc.subshares[j - 1].value, sign.subshares[j - 1].value};
    const net::NodeId to = spec.roster[j - 1].node;
    d.frames.push_back(frame_client(encode_body(MsgType::kReshareSubshare, sub)));
    d.targets.push_back(to);
    if (to == l.ctx.self()) d.own = std::move(sub);
  }
  return d;
}

std::optional<Certificate> Resharing::deal(const Local& l, const ReconfigSpec& spec,
                                           const Ledger& ledger) {
  // Only old-roster members of the CHANGING service hold a share to re-share.
  if (static_cast<std::uint8_t>(l.me.role) != spec.service || !l.active()) return std::nullopt;
  if (share_pending_) return std::nullopt;  // our own share is not even complete yet
  auto fit = dealt_.find(spec.epoch);
  if (fit == dealt_.end()) fit = dealt_.emplace(spec.epoch, make_deal(l, spec)).first;
  if (round_ && round_->spec.epoch == spec.epoch && round_->dealt) return std::nullopt;
  if (round_) round_->dealt = true;
  const Dealt& d = fit->second;
  // Commitments to every old-roster member (any of them may be proposing);
  // sub-share j point-to-point to the node holding new rank j, and only it.
  // Our own sub-share is absorbed directly instead of round-tripping. The
  // entry dies with every other one at the install.
  std::vector<std::pair<net::NodeId, Frame>> msgs;
  for (net::NodeId to : l.service().nodes()) msgs.emplace_back(to, d.frames[0]);
  for (std::uint32_t j = 1; j <= spec.n; ++j) {
    if (d.targets[j - 1] != l.ctx.self()) msgs.emplace_back(d.targets[j - 1], d.frames[j]);
  }
  l.resend.broadcast(l.ctx, std::move(msgs), {.self = ToSelf::kResendOnly});
  if (d.own) store(l, *d.own);
  // A proposing dealer processes its own deal like anyone else's.
  if (round_ && round_->coordinating) return on_deal(l, d.deal, ledger);
  return std::nullopt;
}

std::optional<Certificate> Resharing::on_deal(const Local& l, const SignedMessage& env,
                                              const Ledger& ledger) {
  if (!round_ || !round_->coordinating) return std::nullopt;
  Round& rr = *round_;
  // One deal per dealer (its signer): a held dealer's next deal changes
  // nothing, so it is not checked.
  if (rr.applied || rr.deals.contains(env.signer)) return std::nullopt;
  auto deal = check_reshare_deal(l.cfg, l.epoch, rr.spec, env);
  if (!deal) return std::nullopt;
  rr.deals.emplace(deal->dealer, env);
  const std::size_t quorum = l.cfg.service(static_cast<ServiceRole>(rr.spec.service)).cfg.quorum();
  if (rr.deals.size() < quorum) return std::nullopt;
  rr.applied = true;
  l.resend.cancel(rr.start_resend);

  ReconfigApplyMsg apply;
  apply.spec = rr.spec;
  for (const auto& [rank, deal_env] : rr.deals) {
    if (apply.deals.size() == quorum) break;
    apply.deals.push_back(deal_env);  // map order = strictly increasing rank
  }
  // Unfinished transfers ride along so joiners know what to coordinate.
  if (l.is_b()) {
    for (TransferId t : ledger.transfers) {
      if (!ledger.results.contains(t)) apply.transfers.push_back(t);
    }
  }
  const SignedMessage apply_env = l.sign(encode_body(MsgType::kReconfigApply, apply));
  l.resend.broadcast(l.ctx, round_targets(l, rr.spec), frame_signed(apply_env),
                     {.self = ToSelf::kResendOnly});
  // Process our own apply (echo it, count our echo, maybe install).
  return on_apply(l, apply_env);
}

std::optional<Certificate> Resharing::on_apply(const Local& l, const SignedMessage& env) {
  const hash::Digest digest = reconfig_apply_digest(env);
  auto held = applies_.find(digest);
  if (held == applies_.end() || !(held->second.env == env)) {
    auto apply = check_reconfig_apply(l.cfg, l.epoch, env);
    if (!apply) return std::nullopt;
    held = applies_.try_emplace(digest, HeldApply{env, std::move(*apply)}).first;
  }
  const ReconfigSpec& spec = held->second.msg.spec;

  // Echo exactly one digest per epoch — the uniqueness rule everything else
  // leans on. Only old-roster members of the changing service vote.
  if (static_cast<std::uint8_t>(l.me.role) == spec.service && l.active() && !share_pending_) {
    Round& rr = join(spec);
    if (!rr.echoed) {
      rr.echoed = true;
      const SignedMessage echo = l.sign(encode_body(
          MsgType::kReconfigEcho, ReconfigEchoMsg{spec.service, spec.epoch, digest}));
      l.resend.broadcast(l.ctx, round_targets(l, spec), frame_signed(echo),
                         {.self = ToSelf::kResendOnly});
      votes_.try_emplace(Voter{echo.service, echo.signer}, Vote{digest, echo});  // our own
    }
  }
  return try_install(l);
}

std::optional<Certificate> Resharing::on_echo(const Local& l, const SignedMessage& env) {
  auto msg = try_decode<ReconfigEchoMsg>(l.cfg, MsgType::kReconfigEcho, env.body);
  if (!msg) return std::nullopt;
  // One vote per voter and epoch, as a correct member echoes exactly one
  // digest: a voter's first checked echo stands, and any later one (the same
  // digest again, or another) is dropped before its check.
  const Voter voter{env.service, env.signer};
  if (votes_.contains(voter)) return std::nullopt;
  if (!check_reconfig_echo(l.cfg, l.epoch, env)) return std::nullopt;
  votes_.try_emplace(voter, Vote{msg->digest, env});
  // Fetch step: 2f+1 members echoed an apply this node lacks (late, or lost
  // with resends that die at the senders' installs). Pull the install record
  // from the echoers once, sending nothing now: they answer once installed,
  // and our own install cancels the pull if the apply arrives first.
  if (!install_pull_armed_ && !applies_.contains(msg->digest)) {
    const ServicePublic& svc = l.cfg.service(static_cast<ServiceRole>(msg->service));
    const std::vector<SignedMessage> echoed = votes_of(votes_, msg->service, msg->digest);
    if (echoed.size() >= 2 * svc.cfg.f + 1) {
      install_pull_armed_ = true;
      std::vector<net::NodeId> echoers;
      for (const SignedMessage& echo_env : echoed) echoers.push_back(svc.node_of(echo_env.signer));
      l.resend.broadcast(l.ctx, echoers, pull_frame(l),
                         {.send_now = false, .self = ToSelf::kNever});
    }
  }
  return try_install(l);
}

std::optional<Certificate> Resharing::try_install(const Local& l) const {
  for (const auto& [digest, held] : applies_) {
    const std::uint8_t service = held.msg.spec.service;
    std::vector<SignedMessage> echoes = votes_of(votes_, service, digest);
    if (echoes.size() >= 2 * l.cfg.service(static_cast<ServiceRole>(service)).cfg.f + 1)
      return Certificate{held.env, held.msg, std::move(echoes)};
  }
  return std::nullopt;
}

std::optional<Certificate> Resharing::on_state(const Local& l,
                                               std::span<const std::uint8_t> body) {
  auto msg = try_decode<ReconfigStateMsg>(l.cfg, MsgType::kReconfigState, body);
  if (!msg) return std::nullopt;
  auto apply = check_install_record(l.cfg, l.epoch, msg->apply, msg->echoes);
  if (!apply) return std::nullopt;
  return Certificate{std::move(msg->apply), std::move(*apply), std::move(msg->echoes)};
}

// --- the epoch gate and catching up ---------------------------------------------

void Resharing::reject_stale(const Local& l, net::NodeId to, const SignedMessage& env) const {
  l.ctx.send(to, frame_client(encode_body(MsgType::kWrongEpoch,
                                          WrongEpochMsg{env.service, l.epoch})));
}

void Resharing::send_pull(const Local& l, net::NodeId to) const { l.ctx.send(to, pull_frame(l)); }

void Resharing::pull_installs(const Local& l) const {
  std::vector<net::NodeId> peers = l.cfg.a.nodes();
  for (net::NodeId n : l.cfg.b.nodes()) peers.push_back(n);
  l.resend.broadcast(l.ctx, peers, pull_frame(l),
                     {.first_delay = kResultPullDelay, .max_attempts = 5, .self = ToSelf::kNever});
}

void Resharing::on_wrong_epoch(const Local& l, net::NodeId from,
                               std::span<const std::uint8_t> body) const {
  auto msg = try_decode<WrongEpochMsg>(l.cfg, MsgType::kWrongEpoch, body);
  // The peer claims to be ahead: pull its install chain. (A forged claim
  // costs one pull round-trip and nothing else.)
  if (msg && msg->epoch > l.epoch) send_pull(l, from);
}

void Resharing::on_pull(const Local& l, net::NodeId from,
                        std::span<const std::uint8_t> body) const {
  auto msg = try_decode<ReconfigPullMsg>(l.cfg, MsgType::kReconfigPull, body);
  if (!msg) return;
  // One epoch per reply: the puller can only validate the step its installed
  // roster signs; it re-pulls after each successful install.
  auto it = install_log_.find(msg->epoch + 1);
  if (it == install_log_.end()) return;
  const ReconfigStateMsg reply{it->second.apply, it->second.echoes};
  l.ctx.send(from, frame_client(encode_body(MsgType::kReconfigState, reply)));
}

// --- a new member's share ------------------------------------------------------------

bool Resharing::store(const Local& l, const ReshareSubshareMsg& msg) {
  if (msg.epoch != l.epoch && msg.epoch != l.epoch + 1) return false;
  subshares_[{msg.epoch, msg.dealer}] = msg;
  return true;
}

std::optional<CompletedShare> Resharing::on_subshare(const Local& l,
                                                     std::span<const std::uint8_t> body) {
  auto msg = try_decode<ReshareSubshareMsg>(l.cfg, MsgType::kReshareSubshare, body);
  // A bad entry fails verification in complete_share, is dropped, and the
  // pull retries.
  if (!msg || !store(l, *msg)) return std::nullopt;
  return complete_share(l);
}

void Resharing::on_subshare_pull(const Local& l, net::NodeId from,
                                 std::span<const std::uint8_t> body) {
  auto msg = try_decode<SubsharePullMsg>(l.cfg, MsgType::kSubsharePull, body);
  if (!msg) return;
  auto fit = dealt_.find(msg->epoch);
  if (fit == dealt_.end()) return;
  const Dealt& d = fit->second;
  if (msg->my_new_rank == 0 || msg->my_new_rank >= d.frames.size()) return;
  // Secrecy: rank j's sub-share only ever goes to the node the certified
  // roster assigns rank j — anyone else pulling it is an exfiltration probe.
  if (d.targets[msg->my_new_rank - 1] != from) return;
  // taint-lint: allow(taint-retransmit) a sub-share frame, re-sent only to its certified owner
  l.resend.resend_frame(l.ctx, from, d.frames[msg->my_new_rank]);
}

std::optional<CompletedShare> Resharing::complete_share(const Local& l) {
  if (!share_pending_) return std::nullopt;
  auto lit = install_log_.find(l.epoch);
  if (lit == install_log_.end()) return std::nullopt;
  auto apply = try_decode<ReconfigApplyMsg>(l.cfg, MsgType::kReconfigApply, lit->second.apply.body);
  if (!apply) return std::nullopt;
  const group::GroupParams& gp = l.cfg.params;
  std::vector<std::uint32_t> dealers;
  std::vector<mpz::Bigint> enc_subs, sign_subs;
  for (const SignedMessage& deal_env : apply->deals) {
    auto deal = try_decode<ReshareDealMsg>(l.cfg, MsgType::kReshareDeal, deal_env.body);
    if (!deal) return std::nullopt;
    auto sit = subshares_.find({l.epoch, deal->dealer});
    if (sit == subshares_.end()) return std::nullopt;  // still missing — the pull keeps running
    const ReshareSubshareMsg& sub = sit->second;
    // Verify against the CERTIFIED deal commitments (the sub-share itself is
    // an unsigned client frame; the Feldman check is its authentication).
    if (sub.target_rank != l.me.rank ||
        !threshold::reshare_verify_subshare(gp, deal->enc, {l.me.rank, sub.enc_sub}) ||
        !threshold::reshare_verify_subshare(gp, deal->sign, {l.me.rank, sub.sign_sub})) {
      subshares_.erase(sit);  // forged/corrupt — drop so the real one can land
      return std::nullopt;
    }
    dealers.push_back(deal->dealer);
    enc_subs.push_back(sub.enc_sub);
    sign_subs.push_back(sub.sign_sub);
  }
  CompletedShare out{threshold::reshare_apply(gp, dealers, enc_subs, l.me.rank),
                     threshold::reshare_apply(gp, dealers, sign_subs, l.me.rank),
                     std::move(apply->transfers)};
  share_pending_ = false;
  l.resend.cancel(subshare_pull_);
  return out;
}

void Resharing::pull_subshares(const Local& l, std::uint8_t service,
                               std::span<const net::NodeId> dealers) {
  const SubsharePullMsg pull{service, l.epoch, l.me.rank};
  // taint-lint: allow(taint-retransmit) the pull names a rank and an epoch, no sub-share
  subshare_pull_ = l.resend.broadcast(l.ctx, dealers,
                                      frame_client(encode_body(MsgType::kSubsharePull, pull)),
                                      {.first_delay = kResultPullDelay, .self = ToSelf::kNever});
}

void Resharing::record(ConfigEpoch epoch, InstallRecord record) {
  install_log_.emplace(epoch, std::move(record));
  subshares_.erase(subshares_.begin(), subshares_.lower_bound({epoch, 0}));
}

}  // namespace dblind::core

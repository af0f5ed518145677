#include "core/observer.hpp"

#include <array>
#include <string>
#include <vector>

#include "core/local.hpp"
#include "zkp/batch.hpp"

namespace dblind::core {

namespace {

// Stable metric-label names for received message types, by MsgType value.
constexpr std::array<const char*, ServerMetrics::kTypes> kTypeNames = {
    "other", "init", "commit", "reveal", "contribute", "blind", "done",
    "sign_request", "sign_commit_reply", "sign_quorum", "sign_reveal_reply",
    "sign_reveal_set", "sign_partial_reply", "decrypt_request", "decrypt_reply",
    "transfer_request", "result_request", "result_reply", "client_decrypt_request",
    "client_decrypt_reply", "reconfig_start", "reshare_deal", "reshare_subshare",
    "reconfig_apply", "reconfig_echo", "wrong_epoch", "reconfig_pull", "reconfig_state",
    "subshare_pull"};

}  // namespace

std::size_t metric_slot(MsgType t) {
  auto i = static_cast<std::size_t>(t);
  return i < ServerMetrics::kTypes ? i : 0;
}

void Observer::emit(net::Context& ctx, ConfigEpoch epoch, bool watched, obs::EventKind kind,
                    const InstanceId* id, const TraceExtras& extra) {
  if (trace_ == nullptr) return;
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
  ev.cfg_epoch = epoch;
  ev.span = ctx.mint_span();
  ev.parent = ctx.current_span();
  ctx.set_current_span(ev.span);
  trace_->record(ev);

  // Watchdog: A servers and retired/standby servers never owe a done record,
  // so tracking them would manufacture stalls.
  if (!watchdog_.enabled() || !watched || ev.transfer == 0) return;
  std::optional<obs::Watchdog::Resolution> res;
  if (ev.kind == obs::EventKind::kDoneRecorded) {
    res = watchdog_.complete(ev.transfer, ev.ts);
  } else if (!results_.contains(ev.transfer)) {
    // Refresh (or implicitly arm) the deadline; stray traffic for completed
    // transfers must not resurrect an entry nothing will complete again.
    res = watchdog_.progress(ev.transfer, ev.ts, ev.span);
  }
  // A freshly (implicitly) armed entry may need the sweep timer running.
  arm_watchdog(ctx);
  if (!res.has_value()) return;
  // Recorded directly (not via emit) so the hook cannot re-enter.
  obs::TraceEvent out;
  out.ts = ev.ts;
  out.node = ev.node;
  out.kind = obs::EventKind::kStallResolved;
  out.transfer = res->transfer;
  out.count = res->stalled_us;
  out.cfg_epoch = epoch;
  out.span = ctx.mint_span();
  out.parent = ev.span;  // the resolution descends from the resolving event
  trace_->record(out);
}

void Observer::arm_watchdog(net::Context& ctx) {
  if (watchdog_timer_armed_ || trace_ == nullptr) return;
  std::optional<std::uint64_t> due = watchdog_.next_expiry();
  if (!due) return;
  watchdog_timer_armed_ = true;
  // Deadlines only move later, so one timer at the earliest suffices; a
  // sweep that finds it pushed back re-arms.
  ctx.set_timer(*due > ctx.now() ? *due - ctx.now() : 0, timer::kWatchdog);
}

void Observer::watchdog_tick(net::Context& ctx, ConfigEpoch epoch, std::uint64_t queued,
                             std::size_t resends) {
  watchdog_timer_armed_ = false;
  if (trace_ != nullptr) {
    for (const obs::Watchdog::Stall& s : watchdog_.expired(ctx.now())) {
      obs::TraceEvent ev;
      ev.ts = ctx.now();
      ev.node = ctx.self();
      ev.kind = obs::EventKind::kStall;
      ev.transfer = s.transfer;
      // One-shot public state dump: counts only — never payloads.
      ev.count = queued;
      ev.attempt = static_cast<std::uint32_t>(resends);
      ev.cfg_epoch = epoch;
      ev.span = ctx.mint_span();
      // The transfer's latest span: walking its parent chain reconstructs the
      // span stack the transfer stalled under.
      ev.parent = s.last_span;
      trace_->record(ev);
    }
  }
  arm_watchdog(ctx);
}

void Observer::resolve(net::Context& ctx, obs::MetricsRegistry* registry,
                       const group::GroupParams& params,
                       std::atomic<std::uint64_t>* retransmits) {
  if (m.resolved || registry == nullptr) return;
  m.resolved = true;
  obs::MetricsRegistry& reg = *registry;
  const std::string node = std::to_string(ctx.self());
  for (std::size_t i = 1; i < ServerMetrics::kTypes; ++i) {
    obs::LabelSet by_type{{"node", node}, {"type", kTypeNames[i]}};
    m.rx_msgs[i] = reg.counter("dblind_rx_messages_total", by_type);
    m.rx_bytes[i] = reg.counter("dblind_rx_bytes_total", by_type);
    m.mont_muls[i] = reg.counter("dblind_handler_mont_muls_total", by_type);
    m.handler_wall_us[i] = reg.histogram("dblind_handler_wall_us", by_type,
                                         {10, 100, 1'000, 10'000, 100'000});
  }
  const obs::LabelSet by_node{{"node", node}};
  const std::vector<std::uint64_t> lat{1'000,   10'000,    100'000,
                                       400'000, 1'600'000, 6'400'000};
  m.phase_commit_us = reg.histogram("dblind_phase_commit_us", by_node, lat);
  m.phase_contribute_us = reg.histogram("dblind_phase_contribute_us", by_node, lat);
  m.phase_blind_sign_us = reg.histogram("dblind_phase_blind_sign_us", by_node, lat);
  m.phase_decrypt_us = reg.histogram("dblind_phase_decrypt_us", by_node, lat);
  m.phase_done_sign_us = reg.histogram("dblind_phase_done_sign_us", by_node, lat);
  m.verify_pass = reg.counter("dblind_verify_total", {{"node", node}, {"result", "pass"}});
  m.verify_fail = reg.counter("dblind_verify_total", {{"node", node}, {"result", "fail"}});
  m.batch_fallbacks = reg.counter("dblind_batch_verify_fallbacks_total", by_node);
  // Pre-existing counters join the registry as attached (read-only) series:
  // the registry samples the live cells, the owners keep updating them.
  reg.attach_counter("dblind_retransmits_sent_total", by_node, retransmits);
  reg.attach_counter("dblind_mont_muls_total", {}, params.mont_mul_cell());
  // Backend-labelled view of the same op counter plus its word-mul weight:
  // lets offline tooling (trace_critpath) attribute crypto cost to the
  // active group backend instead of assuming mod-p Montgomery muls.
  reg.attach_counter("dblind_group_ops_total",
                     {{"backend", std::string(params.backend_name())}},
                     params.group_op_cell());
  reg.gauge("dblind_group_op_weight", {{"backend", std::string(params.backend_name())}})
      .set(params.op_cost_weight());
  reg.attach_counter("dblind_batch_verify_combined_total", {},
                     &zkp::batch_verify_counts().combined);
  reg.attach_counter("dblind_batch_verify_rejected_total", {},
                     &zkp::batch_verify_counts().rejected);
  m.contrib_mont_muls_online =
      reg.counter("dblind_contrib_mont_muls_total", {{"node", node}, {"path", "online"}});
  m.contrib_mont_muls_offline =
      reg.counter("dblind_contrib_mont_muls_total", {{"node", node}, {"path", "offline"}});
  m.config_epoch = reg.gauge("dblind_config_epoch", by_node);
  m.reconfig_installs =
      reg.counter("dblind_reconfig_events_total", {{"node", node}, {"event", "install"}});
  m.reconfig_aborts =
      reg.counter("dblind_reconfig_events_total", {{"node", node}, {"event", "abort"}});
  m.reconfig_stale_rejects =
      reg.counter("dblind_reconfig_events_total", {{"node", node}, {"event", "stale_reject"}});
  m.engine_inflight = reg.gauge("dblind_engine_inflight", by_node);
  m.engine_queued = reg.gauge("dblind_engine_queued", by_node);
  m.engine_admits =
      reg.counter("dblind_engine_events_total", {{"node", node}, {"event", "admit"}});
  m.engine_defers =
      reg.counter("dblind_engine_events_total", {{"node", node}, {"event", "defer"}});
}

}  // namespace dblind::core

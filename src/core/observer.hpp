// Observability of one ProtocolServer (docs/OBSERVABILITY.md): the trace hook
// every module emits through, the metric handles and the stall watchdog. No
// protocol effect.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "net/sim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace dblind::core {

// Optional fields of a trace event; which ones an event uses depends on its
// kind (see obs/trace.hpp).
struct TraceExtras {
  std::uint64_t transfer = 0;  // events with a transfer but no instance
  std::uint64_t peer = 0;
  std::uint32_t subject = 0;
  std::uint64_t count = 0;
  std::uint32_t attempt = 0;
  std::uint32_t cap = 0;
};

// Metric handles, resolved once from ProtocolOptions::metrics. Without a
// registry every handle points at the process-wide discard cell, so updates
// stay branch-free.
struct ServerMetrics {
  bool resolved = false;
  static constexpr std::size_t kTypes = 29;  // MsgType values are 1..28
  std::array<obs::Counter, kTypes> rx_msgs;       // received, by type
  std::array<obs::Counter, kTypes> rx_bytes;      // payload bytes, by type
  std::array<obs::Counter, kTypes> mont_muls;     // handler mont-muls, by type
  std::array<obs::Histogram, kTypes> handler_wall_us;  // handler wall time
  // Per-phase latency in transport time (virtual µs under the Simulator).
  obs::Histogram phase_commit_us;      // epoch start -> reveal broadcast
  obs::Histogram phase_contribute_us;  // reveal broadcast -> blind-sign begin
  obs::Histogram phase_blind_sign_us;  // blind-sign begin -> service signature
  obs::Histogram phase_decrypt_us;     // decrypt begin -> f+1 valid replies
  obs::Histogram phase_done_sign_us;   // done-sign begin -> service signature
  obs::Counter verify_pass;
  obs::Counter verify_fail;
  obs::Counter batch_fallbacks;        // batch checks that came back false
  // Contributor mont-muls: "online" in the init/reveal handlers (a
  // coordinator's critical path), "offline" in Blinding::precompute.
  obs::Counter contrib_mont_muls_online;
  obs::Counter contrib_mont_muls_offline;
  // Epochal reconfiguration: installed epoch + lifecycle counts.
  obs::Gauge config_epoch;
  obs::Counter reconfig_installs;   // dblind_reconfig_events_total{event="install"}
  obs::Counter reconfig_aborts;     // ...{event="abort"} (instances killed at installs)
  obs::Counter reconfig_stale_rejects;  // ...{event="stale_reject"} (kWrongEpoch sent)
};

// Clamps a MsgType to a ServerMetrics per-type slot (0 = unknown).
[[nodiscard]] std::size_t metric_slot(MsgType t);

class Observer {
 public:
  // `results`: the server's results; the watchdog ignores finished transfers.
  Observer(obs::TraceRecorder* trace, net::Time watchdog_deadline, const ResultMap& results)
      : trace_(trace), watchdog_(watchdog_deadline), results_(results) {}

  ServerMetrics m;

  // Binds the handles to `registry` (idempotent, so a restarted server
  // re-binds to the same series; a no-op without a registry).
  void resolve(net::Context& ctx, obs::MetricsRegistry* registry,
               const group::GroupParams& params, std::atomic<std::uint64_t>* retransmits);
  // Emits one event when tracing (a single pointer test otherwise). The event
  // is a span parented on the ambient span, and becomes the ambient span.
  // `watched` (a B roster member, which owes done records): its
  // transfer-scoped events feed the watchdog — kDoneRecorded completes an
  // entry, anything else refreshes its deadline, and a refresh that
  // un-stalls a transfer emits kStallResolved.
  void emit(net::Context& ctx, ConfigEpoch epoch, bool watched, obs::EventKind kind,
            const InstanceId* id, const TraceExtras& extra);

  // Stall watchdog (B servers; inert unless tracing with a deadline).
  [[nodiscard]] obs::Watchdog& watchdog() { return watchdog_; }
  // Arms the sweep timer at the earliest pending deadline, unless armed.
  void arm_watchdog(net::Context& ctx);
  // Sweep: one kStall per newly idle transfer, parented on its latest span,
  // with a one-shot public state dump (open resends).
  void watchdog_tick(net::Context& ctx, ConfigEpoch epoch, std::size_t resends);
  void reset_watchdog() {
    watchdog_.reset();
    watchdog_timer_armed_ = false;
  }

 private:
  obs::TraceRecorder* trace_;
  obs::Watchdog watchdog_;
  bool watchdog_timer_armed_ = false;
  const ResultMap& results_;
};

}  // namespace dblind::core

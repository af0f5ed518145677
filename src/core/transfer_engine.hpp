// TransferEngine: per-transfer state machines plus a small admission
// scheduler, so one ProtocolServer can drive many transfers concurrently
// through commit/reveal/contribute/blind/done without the implicit
// one-transfer-at-a-time flow the seed server grew up with.
//
// Responsibilities are deliberately narrow:
//
//   - Each transfer owns one explicit lifecycle phase, kept in one map
//     keyed by transfer id under the scheduler's lock.
//   - A FIFO scheduler admits transfers into at most `max_inflight`
//     concurrently-active slots (0 = unlimited, the seed behavior). FIFO
//     admission is the no-starvation guarantee: a queued transfer is admitted
//     after exactly the completions of the transfers admitted before it
//     (asserted by tests/core/transfer_engine_test.cpp).
//   - Epoch boundaries (PR 7): abort_inflight() demotes exactly the active
//     transfers back to the head of the queue — queued and done transfers are
//     untouched — so an install aborts the in-flight transfers of the old
//     epoch and no others.
//
// The engine schedules; it never touches protocol state. ProtocolServer owns
// all Fig. 4 state and calls back into start_coordinator for every id the
// engine admits. All methods are internally synchronized (core/sync.hpp
// capabilities), so the engine is safe to query from outside the handler
// thread.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "core/sync.hpp"
#include "core/types.hpp"

namespace dblind::core {

// Lifecycle of one transfer inside the engine. Registered transfers become
// Queued when eligible to run (registration time, or their scheduled arrival
// in the open-loop harness), Active when the scheduler admits them, Done when
// a validated result lands. Aborted is transient: an epoch install demotes
// Active back to Queued via Aborted bookkeeping.
enum class TransferPhase : std::uint8_t {
  kRegistered = 0,
  kQueued,
  kActive,
  kDone,
};

class TransferEngine {
 public:
  // What request_start decided for the *requested* transfer.
  enum class Admission : std::uint8_t {
    kAdmitted,       // the transfer is now active (it is in the result list)
    kQueued,         // no free slot; it waits in FIFO order
    kAlreadyActive,  // duplicate request (e.g. a backup timer re-fired)
    kDone,           // a result already exists; nothing to run
  };

  // `max_inflight` caps concurrently-active transfers; 0 = unlimited (every
  // request is admitted immediately — byte-identical scheduling to the seed
  // engine).
  explicit TransferEngine(std::size_t max_inflight) : max_inflight_(max_inflight) {}

  // Idempotently creates the record for `t` (phase kRegistered).
  void register_transfer(TransferId t) EXCLUDES(sched_mu_);

  // Marks `t` eligible and fills free slots. Every id in `admitted` (which
  // may include other, earlier-queued transfers) is now Active and must be
  // handed to start_coordinator by the caller.
  struct StartResult {
    Admission decision = Admission::kQueued;
    std::vector<TransferId> admitted;
  };
  [[nodiscard]] StartResult request_start(TransferId t) EXCLUDES(sched_mu_);

  // Records a validated result for `t` and fills the slot it frees. Returns
  // the ids admitted from the queue (Active; caller starts them). Safe for
  // transfers the engine never admitted (results learned via pulls).
  [[nodiscard]] std::vector<TransferId> complete(TransferId t) EXCLUDES(sched_mu_);

  // Epoch boundary: demote every Active transfer to the FRONT of the queue
  // (they keep their admission priority under the new epoch) and return them.
  // Queued/Done transfers are untouched — the returned set is exactly the
  // in-flight set of the old epoch.
  [[nodiscard]] std::vector<TransferId> abort_inflight() EXCLUDES(sched_mu_);

  // Pops queued transfers into free slots without changing eligibility; used
  // after abort_inflight() to resume under the new configuration.
  [[nodiscard]] std::vector<TransferId> fill_slots() EXCLUDES(sched_mu_);

  // Crash semantics: all scheduling state is volatile (restore() calls this);
  // durable facts (registered transfers, results) are re-fed by the server.
  void reset() EXCLUDES(sched_mu_);

  // --- observers --------------------------------------------------------------
  [[nodiscard]] TransferPhase phase(TransferId t) const EXCLUDES(sched_mu_);
  [[nodiscard]] std::size_t inflight() const EXCLUDES(sched_mu_);
  [[nodiscard]] std::size_t queued() const EXCLUDES(sched_mu_);
  [[nodiscard]] std::uint64_t admitted_total() const EXCLUDES(sched_mu_);
  [[nodiscard]] std::size_t max_inflight() const { return max_inflight_; }

 private:
  // A transfer without a record is kRegistered.
  [[nodiscard]] TransferPhase phase_locked(TransferId t) const REQUIRES(sched_mu_);

  // Pops queue heads into free slots.
  void fill_locked(std::vector<TransferId>& admitted) REQUIRES(sched_mu_);

  const std::size_t max_inflight_;

  mutable Mutex sched_mu_;
  std::map<TransferId, TransferPhase> phases_ GUARDED_BY(sched_mu_);
  std::deque<TransferId> queue_ GUARDED_BY(sched_mu_);
  std::size_t inflight_ GUARDED_BY(sched_mu_) = 0;
  std::uint64_t admitted_total_ GUARDED_BY(sched_mu_) = 0;
};

}  // namespace dblind::core

#include "core/transfer_engine.hpp"

#include <algorithm>

namespace dblind::core {

TransferPhase TransferEngine::phase_locked(TransferId t) const {
  auto it = phases_.find(t);
  return it == phases_.end() ? TransferPhase::kRegistered : it->second;
}

void TransferEngine::register_transfer(TransferId t) {
  MutexLock lock(sched_mu_);
  phases_.try_emplace(t, TransferPhase::kRegistered);
}

void TransferEngine::fill_locked(std::vector<TransferId>& admitted) {
  while (!queue_.empty() && (max_inflight_ == 0 || inflight_ < max_inflight_)) {
    TransferId next = queue_.front();
    queue_.pop_front();
    ++inflight_;
    ++admitted_total_;
    phases_[next] = TransferPhase::kActive;
    admitted.push_back(next);
  }
}

TransferEngine::StartResult TransferEngine::request_start(TransferId t) {
  StartResult out;
  MutexLock lock(sched_mu_);
  switch (phase_locked(t)) {
    case TransferPhase::kDone:
      out.decision = Admission::kDone;
      return out;
    case TransferPhase::kActive:
      out.decision = Admission::kAlreadyActive;
      return out;
    case TransferPhase::kQueued:
      // Already waiting; a duplicate request must not double-enqueue.
      out.decision = Admission::kQueued;
      fill_locked(out.admitted);
      break;
    case TransferPhase::kRegistered:
      if (max_inflight_ == 0 || inflight_ < max_inflight_) {
        ++inflight_;
        ++admitted_total_;
        phases_[t] = TransferPhase::kActive;
        out.decision = Admission::kAdmitted;
        out.admitted.push_back(t);
      } else {
        phases_[t] = TransferPhase::kQueued;
        queue_.push_back(t);
        out.decision = Admission::kQueued;
      }
      break;
  }
  return out;
}

std::vector<TransferId> TransferEngine::complete(TransferId t) {
  std::vector<TransferId> admitted;
  MutexLock lock(sched_mu_);
  switch (phase_locked(t)) {
    case TransferPhase::kDone:
      return admitted;
    case TransferPhase::kActive:
      if (inflight_ > 0) --inflight_;
      break;
    case TransferPhase::kQueued:
      // A result arrived (peer pull, another coordinator) before this node
      // ever admitted the transfer: drop it from the wait queue.
      queue_.erase(std::remove(queue_.begin(), queue_.end(), t), queue_.end());
      break;
    case TransferPhase::kRegistered:
      break;
  }
  phases_[t] = TransferPhase::kDone;
  fill_locked(admitted);
  return admitted;
}

std::vector<TransferId> TransferEngine::abort_inflight() {
  std::vector<TransferId> aborted;
  MutexLock lock(sched_mu_);
  // The active set in ascending id order (the map's order), so scheduling
  // decisions stay deterministic.
  for (const auto& [id, phase] : phases_) {
    if (phase == TransferPhase::kActive) aborted.push_back(id);
  }
  // Demote to the FRONT of the queue: aborted transfers were admitted before
  // anything currently queued, and keep that priority under the new epoch.
  for (auto it = aborted.rbegin(); it != aborted.rend(); ++it) {
    phases_[*it] = TransferPhase::kQueued;
    queue_.push_front(*it);
  }
  inflight_ = 0;
  return aborted;
}

std::vector<TransferId> TransferEngine::fill_slots() {
  std::vector<TransferId> admitted;
  MutexLock lock(sched_mu_);
  fill_locked(admitted);
  return admitted;
}

void TransferEngine::reset() {
  MutexLock lock(sched_mu_);
  phases_.clear();
  queue_.clear();
  inflight_ = 0;
  admitted_total_ = 0;
}

TransferPhase TransferEngine::phase(TransferId t) const {
  MutexLock lock(sched_mu_);
  return phase_locked(t);
}

std::size_t TransferEngine::inflight() const {
  MutexLock lock(sched_mu_);
  return inflight_;
}

std::size_t TransferEngine::queued() const {
  MutexLock lock(sched_mu_);
  return queue_.size();
}

std::uint64_t TransferEngine::admitted_total() const {
  MutexLock lock(sched_mu_);
  return admitted_total_;
}

}  // namespace dblind::core

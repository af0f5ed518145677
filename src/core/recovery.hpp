// Recovery (liveness only, §2's asynchronous model): the retransmission table
// every broadcast goes through, and B's pull of results it missed. Only
// cached, originally-signed frames are ever re-sent.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "net/sim.hpp"

namespace dblind::core {

struct Local;

// Whether a broadcast that names this server among its targets sends to it.
enum class ToSelf : std::uint8_t {
  kAlways,      // like any other target (rank-wide rounds the sender is part of)
  kResendOnly,  // processed locally at once; the resends still loop back
  kNever,
};

struct ResendPolicy {
  TransferId transfer = 0;        // traced with each resend
  bool cancel_on_result = false;  // B: stop once `transfer` has a result
  net::Time first_delay = kRetransmitInitialDelay;
  int max_attempts = kRetransmitMaxAttempts;  // the first send counts
  bool send_now = true;  // false: nothing goes out before the first resend
  ToSelf self = ToSelf::kAlways;
};

class Recovery {
 public:
  explicit Recovery(bool enabled) : enabled_(enabled) {}

  // Sends `frame` to `targets`, then re-sends it on a capped exponential
  // backoff until cancel(), the transfer's result or the attempt cap.
  // Returns the entry's key, or 0 when retransmission is off or nobody is
  // left to re-send to.
  std::uint64_t broadcast(net::Context& ctx, std::span<const net::NodeId> targets,
                          const Frame& frame, const ResendPolicy& policy);
  // The same with one frame per target, in one entry.
  std::uint64_t broadcast(net::Context& ctx, std::vector<std::pair<net::NodeId, Frame>> msgs,
                          const ResendPolicy& policy);
  // Re-sends one cached frame verbatim to answer a duplicate (an empty frame
  // is skipped).
  void resend_frame(net::Context& ctx, net::NodeId to, const Frame& frame);
  void cancel(std::uint64_t& key);
  // A result for `transfer` moots every entry waiting on it, and its pull.
  void cancel_transfer(TransferId transfer);
  // timer::kResend: one backoff step of entry `key`.
  void on_timer(const Local& l, std::uint64_t key, const ResultMap& results);
  // B: pulls a missing result from the peer B servers (after restarts and
  // partitions) through the client ResultRequest/ResultReply path.
  void pull_result(net::Context& ctx, const SystemConfig& cfg, TransferId transfer,
                   const ResultMap& results);

  void reset() {
    entries_.clear();  // cached frames carry the old epoch stamp: all dead
    result_pulls_.clear();
  }
  [[nodiscard]] std::size_t open_entries() const { return entries_.size(); }
  [[nodiscard]] std::atomic<std::uint64_t>& sent_cell() { return sent_; }
  [[nodiscard]] std::uint64_t sent() const { return sent_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    std::vector<std::pair<net::NodeId, Frame>> msgs;
    net::Time delay = 0;
    int attempts = 1;  // the original send counts as the first attempt
    int max_attempts = 0;
    TransferId transfer = 0;
    bool cancel_on_result = false;
  };

  bool enabled_;
  std::map<std::uint64_t, Entry> entries_;
  std::uint64_t next_key_ = 1;  // 0 = "no entry"
  std::map<TransferId, std::uint64_t> result_pulls_;
  std::atomic<std::uint64_t> sent_{0};
};

}  // namespace dblind::core

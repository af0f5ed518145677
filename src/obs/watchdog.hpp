// Stall watchdog: per-transfer liveness deadlines over the trace stream.
//
// The watchdog answers "which transfers have gone quiet?" from inside the
// process, without waiting for an offline trace replay: ProtocolServer feeds
// it every transfer-scoped trace emission (progress), arms entries for the
// transfers it knows about, and sweeps expired entries from a timer set for
// the earliest pending deadline (next_expiry), so a stall is reported the
// moment a transfer has been idle for exactly the deadline. A transfer idle
// past the deadline flips to *stalled* exactly once and is reported so the
// server can emit a kStall trace event carrying the transfer's latest span
// (whose parent chain IS the stalled span stack) and a one-shot public state
// dump (engine queue depth, outstanding retransmits — integers only, never
// secrets). When a stalled transfer makes progress again the watchdog reports
// the resolution for a matching kStallResolved event.
//
// The watchdog is observability, not protocol: it never influences protocol
// decisions, draws no randomness, and is disabled (and allocation-free) by
// default — ProtocolOptions::watchdog_deadline = 0 keeps the seed schedule
// byte-identical. Like all trace machinery it only runs when a recorder is
// installed; its outputs are trace events.
//
// Thread model: owned by one ProtocolServer and touched only from that
// node's handler thread (the same confinement as all round state), so no
// locking is needed — see the server.hpp state comments.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

namespace dblind::obs {

class Watchdog {
 public:
  // `deadline_us` is the per-transfer idle bound in transport time
  // (virtual µs under the Simulator); 0 disables every method.
  explicit Watchdog(std::uint64_t deadline_us) : deadline_(deadline_us) {}

  [[nodiscard]] bool enabled() const { return deadline_ != 0; }

  // A newly-stalled transfer, reported once per stall episode.
  struct Stall {
    std::uint64_t transfer = 0;
    std::uint64_t last_span = 0;  // the transfer's latest span at stall time
  };
  // A stalled transfer that made progress again.
  struct Resolution {
    std::uint64_t transfer = 0;
    std::uint64_t stalled_us = 0;  // time spent stalled
  };

  // Starts (or refreshes) tracking for `transfer`. Idempotent.
  void arm(std::uint64_t transfer, std::uint64_t now);

  // Progress on `transfer` at `now`: refreshes its deadline and remembers
  // `span` (0 keeps the previous span) as the latest span. Arms the entry if
  // it was unknown. Returns the resolution if the transfer was stalled.
  std::optional<Resolution> progress(std::uint64_t transfer, std::uint64_t now,
                                     std::uint64_t span);

  // Terminal progress: like progress(), then stops tracking the transfer.
  std::optional<Resolution> complete(std::uint64_t transfer, std::uint64_t now);
  void reset() { entries_.clear(); }

  // Sweep at `now`: every tracked transfer idle past the deadline flips to
  // stalled (exactly once per episode) and is returned.
  [[nodiscard]] std::vector<Stall> expired(std::uint64_t now);

  // The earliest instant a sweep can find something new: min over unstalled
  // entries of last_activity + deadline. nullopt while every tracked
  // transfer is stalled (or none is tracked): the owner arms its sweep timer
  // only when this has a value, so a fully-stalled (or fully-done) node lets
  // the simulator's event queue drain.
  [[nodiscard]] std::optional<std::uint64_t> next_expiry() const;

  // Currently-stalled transfer count (tests).
  [[nodiscard]] std::size_t stalled_count() const;

 private:
  struct Entry {
    std::uint64_t last_activity = 0;
    std::uint64_t last_span = 0;
    std::uint64_t stalled_at = 0;  // meaningful while stalled
    bool stalled = false;
  };

  std::uint64_t deadline_;
  std::map<std::uint64_t, Entry> entries_;
};

}  // namespace dblind::obs

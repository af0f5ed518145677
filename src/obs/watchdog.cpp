#include "obs/watchdog.hpp"

namespace dblind::obs {

void Watchdog::arm(std::uint64_t transfer, std::uint64_t now) {
  if (!enabled()) return;
  entries_.try_emplace(transfer, Entry{now, 0, 0, false});
}

std::optional<Watchdog::Resolution> Watchdog::progress(std::uint64_t transfer,
                                                       std::uint64_t now,
                                                       std::uint64_t span) {
  if (!enabled()) return std::nullopt;
  auto [it, fresh] = entries_.try_emplace(transfer, Entry{now, span, 0, false});
  Entry& e = it->second;
  e.last_activity = now;
  if (span != 0) e.last_span = span;
  if (fresh || !e.stalled) return std::nullopt;
  e.stalled = false;
  return Resolution{transfer, now - e.stalled_at};
}

std::optional<Watchdog::Resolution> Watchdog::complete(std::uint64_t transfer,
                                                       std::uint64_t now) {
  if (!enabled()) return std::nullopt;
  auto it = entries_.find(transfer);
  if (it == entries_.end()) return std::nullopt;
  std::optional<Resolution> out;
  if (it->second.stalled) out = Resolution{transfer, now - it->second.stalled_at};
  entries_.erase(it);
  return out;
}

void Watchdog::disarm(std::uint64_t transfer) { entries_.erase(transfer); }

std::vector<Watchdog::Stall> Watchdog::expired(std::uint64_t now) {
  std::vector<Stall> out;
  if (!enabled()) return out;
  for (auto& [transfer, e] : entries_) {
    if (e.stalled || now < e.last_activity + deadline_) continue;
    e.stalled = true;
    e.stalled_at = now;
    out.push_back(Stall{transfer, e.last_span});
  }
  return out;
}

std::optional<std::uint64_t> Watchdog::next_expiry() const {
  std::optional<std::uint64_t> due;
  if (!enabled()) return due;
  for (const auto& [transfer, e] : entries_) {
    if (e.stalled) continue;
    const std::uint64_t at = e.last_activity + deadline_;
    if (!due || at < *due) due = at;
  }
  return due;
}

std::size_t Watchdog::stalled_count() const {
  std::size_t n = 0;
  for (const auto& [transfer, e] : entries_) {
    if (e.stalled) ++n;
  }
  return n;
}

}  // namespace dblind::obs

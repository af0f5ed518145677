#include "core/recovery.hpp"

#include <algorithm>

#include "core/local.hpp"

namespace dblind::core {

std::uint64_t Recovery::broadcast(net::Context& ctx, std::span<const net::NodeId> targets,
                                  const Frame& frame, const ResendPolicy& policy) {
  std::vector<std::pair<net::NodeId, Frame>> msgs;
  msgs.reserve(targets.size());
  for (net::NodeId to : targets) msgs.emplace_back(to, frame);
  return broadcast(ctx, std::move(msgs), policy);
}

std::uint64_t Recovery::broadcast(net::Context& ctx,
                                  std::vector<std::pair<net::NodeId, Frame>> msgs,
                                  const ResendPolicy& policy) {
  Entry e;
  for (auto& [to, frame] : msgs) {
    const bool self = to == ctx.self();
    if (self && policy.self == ToSelf::kNever) continue;
    if (policy.send_now && !(self && policy.self == ToSelf::kResendOnly)) ctx.send(to, frame);
    e.msgs.emplace_back(to, std::move(frame));
  }
  if (!enabled_ || e.msgs.empty()) return 0;
  e.delay = policy.first_delay;
  e.max_attempts = policy.max_attempts;
  e.transfer = policy.transfer;
  e.cancel_on_result = policy.cancel_on_result;
  const std::uint64_t key = next_key_++;
  entries_[key] = std::move(e);
  ctx.set_timer(policy.first_delay, timer::kResend | key);
  return key;
}

void Recovery::resend_frame(net::Context& ctx, net::NodeId to, const Frame& frame) {
  if (frame.empty()) return;
  sent_.fetch_add(1, std::memory_order_relaxed);
  ctx.send(to, frame);
}

void Recovery::cancel(std::uint64_t& key) {
  if (key == 0) return;
  entries_.erase(key);  // the pending timer becomes an orphan no-op
  key = 0;
}

void Recovery::cancel_transfer(TransferId transfer) {
  std::erase_if(entries_, [&](const auto& kv) {
    return kv.second.cancel_on_result && kv.second.transfer == transfer;
  });
  result_pulls_.erase(transfer);
}

void Recovery::on_timer(const Local& l, std::uint64_t key, const ResultMap& results) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;  // cancelled earlier: orphan timer
  Entry& e = it->second;
  if (e.cancel_on_result && results.contains(e.transfer)) {
    entries_.erase(it);
    return;
  }
  for (const auto& [to, frame] : e.msgs) resend_frame(l.ctx, to, frame);
  l.trace(obs::EventKind::kRetransmit, nullptr,
          {.transfer = e.transfer, .peer = key, .count = e.msgs.size(),
           .attempt = static_cast<std::uint32_t>(e.attempts),
           .cap = static_cast<std::uint32_t>(e.max_attempts)});
  if (++e.attempts >= e.max_attempts) {
    entries_.erase(it);  // give up; backup coordinators / result pulls take over
    return;
  }
  e.delay = std::min(e.delay * 2, kRetransmitMaxDelay);
  l.ctx.set_timer(e.delay, timer::kResend | key);
}

void Recovery::pull_result(net::Context& ctx, const SystemConfig& cfg, TransferId transfer,
                           const ResultMap& results) {
  if (!enabled_ || results.contains(transfer) || result_pulls_.contains(transfer)) return;
  const Frame frame =
      frame_client(encode_body(MsgType::kResultRequest, ResultRequestMsg{transfer}));
  const std::uint64_t key =
      broadcast(ctx, cfg.b.nodes(), frame,
                {.transfer = transfer, .cancel_on_result = true, .first_delay = kResultPullDelay,
                 .send_now = false, .self = ToSelf::kNever});
  if (key != 0) result_pulls_[transfer] = key;
}

}  // namespace dblind::core

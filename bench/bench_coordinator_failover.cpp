// CLAIM-COORD: the multi-coordinator trade-off of §4.1.
//
// "In the worst case, run-time costs are inflated by a factor of f, since as
// many as f of the coordinators are superfluous. This cost, however, can be
// reduced by delaying when f of the coordinators commence execution."
//
// Rows compare eager coordinators (all f+1 start at once) against delayed
// backups, with the designated coordinator healthy, crashed, or targeted by
// a delay-injection (DoS) adversary — the attack the asynchronous model is
// designed to survive.
#include "core/system.hpp"
#include "table.hpp"

namespace {

using namespace dblind;  // NOLINT
using mpz::Bigint;

struct Row {
  double latency_ms;
  std::uint64_t messages;
  bool ok;
};

Row run(net::Time backup_delay, bool crash_designated, bool slow_designated, std::uint64_t seed) {
  core::SystemOptions o;
  o.seed = seed;
  o.protocol.backup_delay = backup_delay;
  if (slow_designated) {
    // DoS adversary: all traffic touching B's designated coordinator (node
    // index a.n + 0) is stretched 50x.
    o.delay_policy = std::make_unique<net::TargetedSlowdown>(
        500, 20'000, std::set<net::NodeId>{static_cast<net::NodeId>(o.a.n)}, 50);
  }
  core::System sys(std::move(o));
  core::TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(31337)));
  if (crash_designated) sys.sim().crash_at(sys.config().b.node_of(1), 0);
  bool done = sys.run_to_completion();
  bool ok = done;
  for (core::ServerRank r = 1; r <= sys.b_cfg().n && ok; ++r) {
    if (!sys.is_honest_b(r)) continue;
    auto res = sys.result(t, r);
    ok = res && sys.oracle_decrypt_b(*res) == sys.plaintext_of(t);
  }
  return {sys.sim().stats().end_time / 1000.0, sys.sim().stats().messages_sent, ok};
}

}  // namespace

int main() {
  std::puts("CLAIM-COORD — designated coordinator + delayed backups (n=4, f=1)");
  std::puts("(backup_delay = 0 means all f+1 coordinators and responders run eagerly)");
  std::puts("");

  bench::Table table({"scenario", "backup_delay_ms", "latency_ms", "messages", "integrity"});
  for (net::Time delay : {net::Time{0}, net::Time{100'000}, net::Time{400'000},
                          net::Time{1'600'000}}) {
    Row healthy = run(delay, false, false, 1 + delay);
    table.row({"healthy", bench::fmt(delay / 1000.0, 0), bench::fmt(healthy.latency_ms),
               bench::fmt_u(healthy.messages), healthy.ok ? "yes" : "NO"});
  }
  for (net::Time delay : {net::Time{0}, net::Time{100'000}, net::Time{400'000},
                          net::Time{1'600'000}}) {
    Row crashed = run(delay, true, false, 2 + delay);
    table.row({"designated crashed", bench::fmt(delay / 1000.0, 0),
               bench::fmt(crashed.latency_ms), bench::fmt_u(crashed.messages),
               crashed.ok ? "yes" : "NO"});
  }
  for (net::Time delay : {net::Time{0}, net::Time{400'000}}) {
    Row slowed = run(delay, false, true, 3 + delay);
    table.row({"designated DoS-slowed 50x", bench::fmt(delay / 1000.0, 0),
               bench::fmt(slowed.latency_ms), bench::fmt_u(slowed.messages),
               slowed.ok ? "yes" : "NO"});
  }
  table.print();

  std::puts("");
  std::puts("Expected shape: when healthy, delayed backups cut messages ~(f+1)x vs eager");
  std::puts("with identical latency; when the designated coordinator fails or is slowed,");
  std::puts("latency pays ~backup_delay but the protocol still completes — timeouts only");
  std::puts("affect liveness/cost, never safety (asynchronous model).");
  return 0;
}

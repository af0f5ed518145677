// EXT-REFRESH: §5 proactive share refresh as a same-roster reconfiguration
// (System::schedule_reconfig_b with the current roster), swept over service
// size, honest and with the primary proposer crashed.
//
// Complements CMP-PSS in bench_baselines: that bench measures the per-epoch
// CPU cost asymmetry (O(1) vs O(#secrets)); this one measures the
// distributed round itself — latency from the scheduled start to the last
// live member's install (new share complete), and the messages and bytes
// sent until then. "key preserved" comes from a transfer that arrives after
// the install: it needs B's re-shared signing shares, and its result must
// decrypt under the unchanged service key.
#include "core/system.hpp"
#include "table.hpp"

namespace {

using namespace dblind;  // NOLINT

constexpr net::Time kRefreshAt = 50'000;
constexpr net::Time kTransferAt = kRefreshAt + 1'000'000;

struct Row {
  double latency_ms = 0;
  std::uint64_t messages = 0;
  double kbytes = 0;
  bool key_preserved = false;
};

Row run(std::size_t n, std::size_t f, std::uint64_t seed, bool crash_proposer) {
  core::SystemOptions o;
  o.b = {n, f};
  o.seed = seed;
  core::System sys(std::move(o));
  std::vector<net::NodeId> roster;
  for (core::ServerRank r = 1; r <= n; ++r) roster.push_back(sys.b_node(r));
  sys.schedule_reconfig_b(sys.make_b_spec(1, static_cast<std::uint32_t>(f), roster),
                          kRefreshAt);
  if (crash_proposer) sys.sim().crash_at(sys.b_node(1), kRefreshAt);
  core::TransferId t = sys.add_transfer_arriving(sys.config().params.g(), kTransferAt);

  auto live = [&](core::ServerRank r) { return !sys.sim().crashed(sys.b_node(r)); };
  bool installed = sys.sim().run_until([&] {
    for (core::ServerRank r = 1; r <= n; ++r) {
      if (!live(r)) continue;
      const core::ProtocolServer& s = sys.b_server(r);
      if (s.config_epoch() != 1 || s.share_pending()) return false;
    }
    return true;
  });
  Row row;
  row.latency_ms = static_cast<double>(sys.sim().now() - kRefreshAt) / 1000.0;
  row.messages = sys.sim().stats().messages_sent;
  row.kbytes = static_cast<double>(sys.sim().stats().bytes_sent) / 1024.0;
  if (!installed || sys.sim().now() >= kTransferAt || !sys.run_to_completion()) return row;
  row.key_preserved = true;
  for (core::ServerRank r = 1; r <= n; ++r) {
    if (!live(r)) continue;
    auto res = sys.result(t, r);
    row.key_preserved = row.key_preserved && res.has_value() &&
                        sys.oracle_decrypt_b(*res) == sys.plaintext_of(t);
  }
  return row;
}

}  // namespace

int main() {
  std::puts("EXT-REFRESH — proactive share refresh as a same-roster reconfiguration");
  std::puts("(one epoch of service B, async simulator; A = (4,1))");
  std::puts("");
  bench::Table table({"n", "f", "scenario", "latency_ms", "messages", "kbytes",
                      "key preserved"});
  for (std::size_t f : {1u, 2u, 3u}) {
    const std::size_t n = 3 * f + 1;
    for (bool crashed : {false, true}) {
      Row row = run(n, f, (crashed ? 200 : 100) + f, crashed);
      table.row({std::to_string(n), std::to_string(f),
                 crashed ? "proposer crashed" : "honest", bench::fmt(row.latency_ms),
                 bench::fmt_u(row.messages), bench::fmt(row.kbytes),
                 row.key_preserved ? "yes" : "NO"});
    }
  }
  table.print();
  std::puts("");
  std::puts("Expected shape: a few message delays per healthy refresh independent of n;");
  std::puts("messages O(n^2) (echo round to both rosters); a crashed primary proposer");
  std::puts("costs the 300 ms proposer stagger; every row preserves the service key.");
  return 0;
}

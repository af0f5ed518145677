// Chaos harness: seed-sweep invariant testing of the full Figure-4 protocol
// under lossy/partitioned channels, payload corruption, crash-recovery, and
// Byzantine servers.
//
// Safety invariants are asserted UNCONDITIONALLY — on every seed and every
// fault mix, whether or not the run completed:
//   S1 every result any B server holds decrypts to the published plaintext
//      (correctness + agreement across servers in one check, via the dealer
//      oracle);
//   S2 no Byzantine server ever obtained a service signature on an
//      adversarial payload (attack_successes == 0 everywhere);
//   S3 no handler crashed or threw on corrupted/duplicated/replayed input
//      (the run returning at all certifies this — on_message is required to
//      swallow malformed bytes).
//
// Liveness (every honest B server eventually holds a result) is asserted only
// for mixes that stay within the fault bound the protocol promises to
// tolerate: f crashed/Byzantine servers per service, finite loss, partitions
// that heal. The retransmission layer is what turns "finite loss" into
// progress; ChaosRegression.DeadlocksWithoutRetransmission pins that claim by
// running the same seed with the layer disabled.
//
// The tier-1 sweep (registered with ctest under the `chaos` label) covers a
// fixed grid of seeds × mixes. The larger CI sweep reuses this binary with
// DBLIND_CHAOS_SEEDS=<n> (see ChaosSweep.EnvConfiguredSweep and tools/ci.sh).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "core/system.hpp"
#include "obs/trace.hpp"

namespace dblind::core {
namespace {

using mpz::Bigint;
using Behavior = ProtocolServer::Behavior;

struct Mix {
  const char* name;
  unsigned drop_percent = 0;
  unsigned corrupt_percent = 0;
  unsigned duplication_percent = 0;
  bool partition_b_backup = false;  // isolate one B backup for a window
  bool crash_restart_b1 = false;    // crash the designated coordinator, restart later
  bool crash_a4 = false;            // permanently crash one A server (within f)
  bool byzantine_b1 = false;        // adaptive-cancel coordinator at B rank 1
  bool precompute = false;          // contributions precomputed in on_start
  bool liveness_expected = true;    // mix stays within the f-bound
  // --- epochal churn (PR 7) -------------------------------------------------
  // kJoin: (4,1)->(5,1) adopting a standby. kLeave: (5,1)->(4,1) retiring
  // rank 5. kReshare: same roster, fresh shares (the proactive-refresh
  // shape). churn_at is the virtual time the rotation round starts.
  enum class Churn { kNone, kJoin, kLeave, kReshare };
  Churn churn = Churn::kNone;
  net::Time churn_at = 0;
  // Crash one non-proposer roster member exactly as the round starts (it
  // never deals; quorums come from the survivors) and restart it after the
  // install — the laggard must rejoin via the certificate-chain pull.
  bool churn_crash_member = false;
  // --- concurrent multi-transfer engine (PR 8) -----------------------------
  // Extra open-loop transfers arriving 3ms apart (on top of the two baseline
  // transfers), so many instances are in flight when faults strike.
  unsigned concurrent_transfers = 0;
  std::size_t max_inflight = 0;   // admission cap (0 = unlimited)
};

constexpr Mix kMixes[] = {
    // Plain loss + duplication: the bread-and-butter retransmission case.
    {.name = "lossy", .drop_percent = 10, .duplication_percent = 20},
    // Corruption (signature/codec rejection paths) + a healing partition.
    {.name = "corrupt-partition",
     .drop_percent = 5,
     .corrupt_percent = 5,
     .partition_b_backup = true},
    // Everything at once, including crash-recovery of the designated
    // coordinator (exercises snapshot/restore + result pull).
    {.name = "heavy",
     .drop_percent = 20,
     .corrupt_percent = 3,
     .duplication_percent = 25,
     .partition_b_backup = true,
     .crash_restart_b1 = true,
     .crash_a4 = true},
    // A Byzantine coordinator under loss: retransmission must not help the
    // attacker (it only ever re-sends already-validated bytes).
    {.name = "byzantine-lossy", .drop_percent = 10, .byzantine_b1 = true},
    // A Byzantine coordinator behind a healing partition, with loss,
    // corruption and duplication: the isolated backup must trip the
    // watchdog and take over once the partition heals, while the attacker
    // gains nothing from the retransmitted or corrupted traffic — same
    // S1–S3 invariants, same liveness bound.
    {.name = "byzantine-partition",
     .drop_percent = 10,
     .corrupt_percent = 3,
     .duplication_percent = 15,
     .partition_b_backup = true,
     .byzantine_b1 = true},
    // Precomputed contributions under crash-recovery and loss: a restored
    // server derives fresh bundles under a new incarnation root, and the
    // Byzantine coordinator gains nothing from precomputation.
    {.name = "precompute-chaos",
     .drop_percent = 10,
     .duplication_percent = 15,
     .crash_restart_b1 = true,
     .byzantine_b1 = true,
     .precompute = true},
    // Membership churn under loss: a standby joins mid-run ((4,1)->(5,1)).
    // Transfers never mix contributions across config epochs (I6/T6) and the
    // joiner converges on results for work it never participated in.
    {.name = "churn-join",
     .drop_percent = 5,
     .duplication_percent = 10,
     .churn = Mix::Churn::kJoin,
     .churn_at = 150'000},
    // Roster shrink ((5,1)->(4,1)): the retired server stops serving, the
    // survivors' re-shared shares keep decrypting the unchanged service key.
    {.name = "churn-leave",
     .drop_percent = 5,
     .churn = Mix::Churn::kLeave,
     .churn_at = 150'000},
    // A roster member crashes exactly as the re-sharing round starts and
    // restarts after the install: deal/echo quorums must come from the
    // survivors and the laggard rejoins through the install-chain pull plus
    // a fresh sub-share quorum.
    {.name = "churn-crash-during-reshare",
     .churn = Mix::Churn::kReshare,
     .churn_at = 250'000,
     .churn_crash_member = true},
    // Rotation with transfers mid-flight under loss + duplication: instances
    // alive at the boundary abort and re-run under the new configuration.
    {.name = "churn-mid-transfer",
     .drop_percent = 10,
     .duplication_percent = 15,
     .churn = Mix::Churn::kJoin,
     .churn_at = 250'000},
    // The concurrent engine under fire: >= 8 transfers in flight (asserted
    // from engine_admit events) while messages drop/duplicate and the
    // designated coordinator crash-restarts mid-storm. No done record may
    // cite another transfer's contribution (T8).
    {.name = "concurrent-load",
     .drop_percent = 10,
     .duplication_percent = 15,
     .crash_restart_b1 = true,
     .concurrent_transfers = 10},
    // Concurrency composed with epochal churn (PR 7 x PR 8): a capped engine
    // holds a queue across the install boundary — actives abort, re-admit at
    // queue head under the new epoch, and everything still completes with
    // single-epoch evidence (T6) and transfer isolation (T8).
    {.name = "concurrent-churn",
     .drop_percent = 5,
     .duplication_percent = 10,
     .churn = Mix::Churn::kJoin,
     .churn_at = 250'000,
     .concurrent_transfers = 8,
     .max_inflight = 4},
};

constexpr int kMixCount = static_cast<int>(std::size(kMixes));

// Trace-invariant mirror of tools/trace_check.py, asserted on every chaos
// run: the event stream every mix produces must satisfy the same Fig. 4
// causality rules the offline checker enforces on JSONL —
//   T1 done_recorded is preceded by >= f+1 verify_pass(contribute) from
//      distinct provers for the same (transfer, coordinator, epoch);
//   T2 reveal_sent is preceded by >= 2f+1 commit_accepted from distinct
//      servers at the same coordinator for the same instance;
//   T3 epochs opened per (node, transfer) are strictly increasing;
//   T4 retransmit attempts stay below their cap, increase per (node, timer
//      key), and no cap exceeds the configured maximum;
//   T6 (invariant I6) a done's evidence never mixes config epochs: all
//      verify_pass(contribute) events for one instance carry ONE cfg_epoch —
//      an instance aborted by an install re-runs as a fresh instance;
//   T7 config epochs installed per node are strictly increasing (a node
//      restored to the seed epoch re-walks the chain but each install event
//      it emits still moves forward from the previous one it emitted alive);
//   T8 (invariant I8) transfer isolation: every contribute_cited event backing
//      a done-recorded instance cites that instance's OWN transfer id — with
//      many transfers in flight, evidence never leaks across transfers;
//   T9 (PR 9) spans form a causal forest: span ids are unique and every
//      nonzero parent names a span recorded EARLIER in the stream (spans are
//      minted at record time, so causes precede effects — across nodes,
//      through message hops, timers and crash/restart cycles);
//   T10 (PR 9, gated on `expect_stalls_resolved`) every stall the watchdog
//      reports is eventually resolved on the same (node, transfer): by a
//      kStallResolved, by the transfer's kDoneRecorded, or — because the
//      watchdog is volatile — mooted by the node crash-restarting or
//      retiring (rank 0 after an install).
void check_trace_invariants(const obs::MemoryTraceRecorder& trace, const char* mix_name,
                            std::uint64_t seed, bool expect_stalls_resolved) {
  const obs::RunMeta meta = trace.meta();
  ASSERT_GT(meta.b_f, 0u) << "run_meta not recorded";
  using Instance = std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>;
  std::map<Instance, std::set<std::uint64_t>> contribute_ok;
  std::map<std::pair<std::uint64_t, Instance>, std::set<std::uint64_t>> commits;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t> last_epoch;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t> last_attempt;
  std::map<Instance, std::set<std::uint32_t>> contribute_cfg_epochs;
  std::map<std::uint64_t, std::uint32_t> installed_epoch;
  std::map<Instance, std::set<std::uint64_t>> foreign_cites;
  std::set<std::uint64_t> spans_seen;
  std::set<std::pair<std::uint64_t, std::uint64_t>> open_stalls;  // (node, transfer)
  const std::string at = std::string(mix_name) + " seed=" + std::to_string(seed);
  for (const obs::TraceEvent& e : trace.events()) {
    const Instance id{e.transfer, e.coordinator, e.epoch};
    // T9: unique span ids; parents only ever reference already-seen spans.
    // (kStall's parent is the stalled transfer's LATEST span, which by
    // construction was recorded before the sweep noticed the silence.)
    if (e.parent != 0) {
      EXPECT_TRUE(spans_seen.contains(e.parent))
          << "T9 " << at << ": orphan parent " << e.parent << " on kind "
          << obs::kind_name(e.kind) << " at node " << e.node;
    }
    if (e.span != 0) {
      EXPECT_TRUE(spans_seen.insert(e.span).second)
          << "T9 " << at << ": duplicate span " << e.span;
    }
    switch (e.kind) {
      case obs::EventKind::kStall:
        open_stalls.insert({e.node, e.transfer});
        break;
      case obs::EventKind::kStallResolved:
        open_stalls.erase({e.node, e.transfer});
        break;
      case obs::EventKind::kVerifyPass:
        if (e.has_instance && e.subject == static_cast<std::uint32_t>(MsgType::kContribute)) {
          contribute_ok[id].insert(e.peer);
          contribute_cfg_epochs[id].insert(e.cfg_epoch);
        }
        break;
      case obs::EventKind::kCommitAccepted:
        commits[{e.node, id}].insert(e.peer);
        break;
      case obs::EventKind::kRevealSent:
        EXPECT_GE((commits[{e.node, id}].size()), 2 * meta.b_f + 1) << "T2 " << at;
        break;
      case obs::EventKind::kDoneRecorded:
        open_stalls.erase({e.node, e.transfer});  // T10: done resolves a stall
        EXPECT_GE(contribute_ok[id].size(), meta.b_f + 1) << "T1 " << at;
        // T6/I6: all contribute evidence for this instance came from exactly
        // one config epoch. (The recording node's own epoch may lag — done
        // messages are service-signed and epoch-blind by design.)
        EXPECT_LE(contribute_cfg_epochs[id].size(), 1u) << "T6 " << at;
        // T8/I8: no evidence cite crossed transfer ids for this instance.
        EXPECT_TRUE(foreign_cites[id].empty())
            << "T8 " << at << ": instance cited transfers "
            << (foreign_cites[id].empty() ? 0 : *foreign_cites[id].begin());
        break;
      case obs::EventKind::kContributeCited:
        if (e.count != e.transfer) foreign_cites[id].insert(e.count);
        break;
      case obs::EventKind::kEpochInstall: {
        // T10: an install that RETIRES the node (new rank 0, carried in the
        // event's rank field) releases it from every deadline — done
        // messages stop reaching it by design.
        if (e.peer == 0) {
          std::erase_if(open_stalls, [&](const auto& s) { return s.first == e.node; });
        }
        auto [it, fresh] = installed_epoch.try_emplace(e.node, e.cfg_epoch);
        if (!fresh) {
          EXPECT_GT(e.cfg_epoch, it->second) << "T7 " << at;
          it->second = e.cfg_epoch;
        }
        break;
      }
      case obs::EventKind::kRestart:
        // A restored node restarts at the seed epoch and legitimately
        // re-installs the chain — reset its monotonicity baseline.
        installed_epoch.erase(e.node);
        // T10: the watchdog is volatile; a stall episode interrupted by a
        // crash ends with the crash (completion shows up as kDoneRecorded).
        std::erase_if(open_stalls, [&](const auto& s) { return s.first == e.node; });
        break;
      case obs::EventKind::kEpochStart: {
        auto [it, fresh] = last_epoch.try_emplace({e.node, e.transfer}, e.epoch);
        if (!fresh) {
          EXPECT_GT(e.epoch, it->second) << "T3 " << at;
          it->second = e.epoch;
        }
        break;
      }
      case obs::EventKind::kRetransmit: {
        EXPECT_LT(e.attempt, e.cap) << "T4 " << at;
        EXPECT_LE(e.cap, meta.retransmit_cap) << "T4 " << at;
        auto [it, fresh] = last_attempt.try_emplace({e.node, e.peer}, e.attempt);
        if (!fresh) {
          EXPECT_GT(e.attempt, it->second) << "T4 " << at;
          it->second = e.attempt;
        }
        break;
      }
      default:
        break;
    }
  }
  // T10: on liveness-bound runs the trace ends with zero unresolved stalls.
  if (expect_stalls_resolved) {
    for (const auto& [node, transfer] : open_stalls) {
      ADD_FAILURE() << "T10 " << at << ": node " << node << " transfer " << transfer
                    << " stalled and never resolved";
    }
  }
}

// One full protocol run under `mix` with `seed`; asserts S1–S3 always and
// liveness when the mix is in-bound. Returns true iff the run completed.
bool run_chaos(const Mix& mix, std::uint64_t seed, bool retransmit = true) {
  obs::MemoryTraceRecorder trace;
  SystemOptions o;
  o.seed = 9000 + seed;
  o.a = {4, 1};
  o.b = {mix.churn == Mix::Churn::kLeave ? 5u : 4u, 1};
  o.b_standby = mix.churn == Mix::Churn::kJoin ? 1 : 0;
  o.protocol.trace = &trace;
  o.protocol.retransmit = retransmit;
  // Stall watchdog (PR 9): shorter than the partition_b_backup window
  // (100ms–500ms), so an isolated backup reliably trips a stall that then
  // resolves after the heal — and long enough that healthy runs stay quiet.
  o.protocol.watchdog_deadline = 300'000;
  o.protocol.precompute_contributions = mix.precompute;
  o.protocol.max_inflight_transfers = mix.max_inflight;
  if (mix.byzantine_b1) {
    o.b_behaviors.assign(4, Behavior::kHonest);
    o.b_behaviors[0] = Behavior::kAdaptiveCancelCoordinator;
  }
  System sys(std::move(o));
  sys.sim().set_duplication_percent(mix.duplication_percent);

  net::FaultPlan plan;
  plan.drop_percent = mix.drop_percent;
  plan.corrupt_percent = mix.corrupt_percent;
  if (mix.partition_b_backup) {
    // Isolate B rank 2 (a backup coordinator) for a window mid-protocol.
    net::FaultPlan::Partition part;
    part.start = 100'000;
    part.heal = 500'000;
    part.island = {sys.config().b.node_of(2)};
    plan.partitions.push_back(part);
  }
  if (!plan.empty()) sys.sim().set_fault_plan(plan);

  if (mix.crash_restart_b1) {
    sys.sim().crash_at(sys.config().b.node_of(1), 200'000);
    sys.sim().restart_at(sys.config().b.node_of(1), 700'000);
  }
  if (mix.crash_a4) sys.sim().crash_at(sys.config().a.node_of(4), 150'000);

  const std::uint32_t b_n = sys.b_cfg().n;
  if (mix.churn != Mix::Churn::kNone) {
    std::vector<net::NodeId> roster;
    for (ServerRank r = 1; r <= 4; ++r) roster.push_back(sys.b_node(r));
    if (mix.churn == Mix::Churn::kJoin) roster.push_back(sys.b_standby_node(0));
    sys.schedule_reconfig_b(sys.make_b_spec(1, 1, roster), mix.churn_at);
  }
  if (mix.churn_crash_member) {
    // Crashes win over same-time events: rank 4 never sees the round start,
    // so it never deals and the quorums come from ranks 1..3.
    sys.sim().crash_at(sys.b_node(4), mix.churn_at);
    sys.sim().restart_at(sys.b_node(4), mix.churn_at + 900'000);
  }

  TransferId t1 = sys.add_transfer(sys.config().params.encode_message(Bigint(1000 + seed)));
  TransferId t2 = sys.add_transfer(sys.config().params.encode_message(Bigint(2000 + seed)));
  std::vector<TransferId> transfers = {t1, t2};
  if (mix.churn != Mix::Churn::kNone) {
    // Post-rotation work: guarantees the run outlives the install (the early
    // transfers may finish before churn_at) and exercises the new
    // configuration end to end.
    transfers.push_back(sys.add_transfer_at(
        sys.config().params.encode_message(Bigint(3000 + seed)), mix.churn_at + 150'000));
  }
  for (unsigned i = 0; i < mix.concurrent_transfers; ++i) {
    // Open-loop arrivals 3ms apart (one network hop is up to 20ms): the whole
    // batch is in flight long before any instance can finish.
    transfers.push_back(sys.add_transfer_arriving(
        sys.config().params.encode_message(Bigint(4000 + 100 * seed + i)), 1'000 + 3'000 * i));
  }

  bool completed = sys.run_to_completion();

  // The storm actually happened: some node's engine reached >= 8 concurrent
  // self-coordinated transfers (or the cap, when one is set).
  if (mix.concurrent_transfers >= 8) {
    std::uint64_t max_inflight_seen = 0;
    for (const obs::TraceEvent& e : trace.events()) {
      if (e.kind == obs::EventKind::kEngineAdmit && e.count > max_inflight_seen)
        max_inflight_seen = e.count;
    }
    const std::uint64_t want = mix.max_inflight == 0 ? 8 : mix.max_inflight;
    EXPECT_GE(max_inflight_seen, want) << mix.name << " seed=" << seed;
  }

  // S1: every result held anywhere decrypts to the published plaintext.
  // (This is correctness AND agreement: all servers' results for a transfer
  // decrypt to the same value because both compare against the oracle.)
  for (TransferId t : transfers) {
    for (ServerRank r = 1; r <= b_n; ++r) {
      auto res = sys.result(t, r);
      if (!res) continue;
      EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t))
          << mix.name << " seed=" << seed << " t=" << t << " rank=" << r;
    }
    for (std::size_t i = 0; i < sys.b_standby_count(); ++i) {
      auto res = sys.b_standby_server(i).result(t);
      if (!res) continue;
      EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t))
          << mix.name << " seed=" << seed << " t=" << t << " standby=" << i;
    }
  }
  // S2: no service signature on an adversarial payload, ever.
  for (ServerRank r = 1; r <= 4; ++r) {
    EXPECT_EQ(sys.a_server(r).attack_successes(), 0) << mix.name << " seed=" << seed;
  }
  for (ServerRank r = 1; r <= b_n; ++r) {
    EXPECT_EQ(sys.b_server(r).attack_successes(), 0) << mix.name << " seed=" << seed;
  }
  // Faults were genuinely injected (guards against a silently-empty plan).
  if (mix.drop_percent > 0 && retransmit) {
    EXPECT_GT(sys.sim().stats().messages_dropped, 0u) << mix.name << " seed=" << seed;
    EXPECT_GT(trace.count_of(obs::EventKind::kMsgDrop), 0u) << mix.name << " seed=" << seed;
  }

  // Settle before the trace check. run_to_completion stops the instant the
  // honest current roster holds every result, but other live roster members
  // — a Byzantine coordinator, members still interpolating a re-shared key,
  // an adopted standby, a member that restarts after the install — may still
  // have install, result or sub-share pulls riding their capped backoff, and
  // their open watchdog stalls resolve only when those land. Let them: wait
  // for every scheduled restart, then for every live roster member to reach
  // the installed epoch with a complete share and every result. T10 below is
  // unchanged, so a stall that never resolves still fails once the event
  // queue drains.
  const bool owes_liveness = mix.liveness_expected && retransmit;
  const ConfigEpoch installed = mix.churn != Mix::Churn::kNone ? 1 : 0;
  const net::Time restart_at = mix.churn_crash_member ? mix.churn_at + 900'000 : 0;
  if (owes_liveness) {
    auto settled = [&](const ProtocolServer& s) {
      if (s.share_pending() || s.config_epoch() < installed) return false;
      for (TransferId t : transfers) {
        if (!s.result(t)) return false;
      }
      return true;
    };
    sys.sim().run_until([&] {
      if (sys.sim().now() < restart_at ||
          (mix.churn_crash_member && sys.sim().crashed(sys.b_node(4))))
        return false;
      for (ServerRank r = 1; r <= b_n; ++r) {
        if (sys.b_server(r).rank() == 0 || sys.sim().crashed(sys.b_node(r))) continue;
        if (!settled(sys.b_server(r))) return false;
      }
      return mix.churn != Mix::Churn::kJoin || settled(sys.b_standby_server(0));
    });
  }

  // T1–T10: the run's trace satisfies the Fig. 4 causality invariants under
  // every fault mix (the C++ mirror of tools/trace_check.py). Stall
  // resolution (T10) is only owed when the protocol owes liveness: the
  // fire-once deadlock regression intentionally stalls forever.
  EXPECT_GT(trace.events().size(), 0u) << mix.name << " seed=" << seed;
  check_trace_invariants(trace, mix.name, seed, owes_liveness);

  // The watchdog actually barked: isolating a B backup past the deadline
  // must produce at least one stall, and the heal must resolve it.
  if (mix.partition_b_backup && owes_liveness) {
    EXPECT_GT(trace.count_of(obs::EventKind::kStall), 0u) << mix.name << " seed=" << seed;
    EXPECT_GT(trace.count_of(obs::EventKind::kStallResolved), 0u)
        << mix.name << " seed=" << seed;
  }

  // CI artifact hook (tools/ci.sh): export the full JSONL trace of this run
  // when DBLIND_CHAOS_TRACE_DIR is set, for offline span/critical-path
  // analysis of a failing (mix, seed).
  if (const char* dir = std::getenv("DBLIND_CHAOS_TRACE_DIR"); dir != nullptr) {
    std::string path = std::string(dir) + "/" + mix.name + "_seed" +
                       std::to_string(seed) + (retransmit ? "" : "_noretx") + ".jsonl";
    std::ofstream out(path);
    if (out) {
      out << obs::to_jsonl(trace.meta()) << "\n";
      for (const obs::TraceEvent& e : trace.events()) out << obs::to_jsonl(e) << "\n";
    }
  }

  if (owes_liveness) {
    EXPECT_TRUE(completed) << mix.name << " seed=" << seed;
    // The settle above already let queued pulls fire: if one genuinely
    // capped out, the queue drained with a result missing or a share still
    // pending, and the assertions below fail.
    for (TransferId t : transfers) {
      for (ServerRank r = 1; r <= b_n; ++r) {
        if (!sys.is_honest_b(r)) continue;
        // Retired servers (rank 0 after a shrink) stop receiving dones; only
        // current roster members owe results.
        if (sys.b_server(r).rank() == 0) continue;
        EXPECT_TRUE(sys.result(t, r).has_value())
            << mix.name << " seed=" << seed << " t=" << t << " rank=" << r;
      }
    }
    // Once the roster stabilizes, every live member sits at the new epoch —
    // including an adopted standby and a member that crashed through the
    // install and rejoined.
    if (mix.churn != Mix::Churn::kNone) {
      for (ServerRank r = 1; r <= b_n; ++r) {
        if (!sys.is_honest_b(r)) continue;
        EXPECT_EQ(sys.b_server(r).config_epoch(), 1u) << mix.name << " seed=" << seed
                                                      << " rank=" << r;
      }
      if (mix.churn_crash_member) {
        // The rank that crashed as the round started has restarted, pulled
        // the install, completed its re-shared share and every result.
        const ProtocolServer& laggard = sys.b_server(4);
        EXPECT_FALSE(sys.sim().crashed(sys.b_node(4))) << mix.name << " seed=" << seed;
        EXPECT_EQ(laggard.config_epoch(), 1u) << mix.name << " seed=" << seed;
        EXPECT_FALSE(laggard.share_pending()) << mix.name << " seed=" << seed;
        for (TransferId t : transfers) {
          EXPECT_TRUE(laggard.result(t).has_value())
              << mix.name << " seed=" << seed << " t=" << t;
        }
      }
      if (mix.churn == Mix::Churn::kJoin) {
        EXPECT_EQ(sys.b_standby_server(0).config_epoch(), 1u) << mix.name << " seed=" << seed;
        EXPECT_FALSE(sys.b_standby_server(0).share_pending()) << mix.name << " seed=" << seed;
        for (TransferId t : transfers) {
          EXPECT_TRUE(sys.b_standby_server(0).result(t).has_value())
              << mix.name << " seed=" << seed << " t=" << t;
        }
      }
    }
  }
  return completed;
}

class ChaosSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ChaosSweep, SafetyAlwaysLivenessInBound) {
  const auto [mix_index, seed] = GetParam();
  run_chaos(kMixes[mix_index], static_cast<std::uint64_t>(seed));
}

// Tier-1 grid: 6 seeds × 12 mixes = 72 deterministic runs, each its own ctest
// entry (parallelizable). tools/ci.sh runs the wider sweep (the churn mixes
// also get a dedicated `ci.sh churn` job).
INSTANTIATE_TEST_SUITE_P(Grid, ChaosSweep,
                         ::testing::Combine(::testing::Range(0, kMixCount),
                                            ::testing::Range(0, 6)),
                         [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
                           std::string name = kMixes[std::get<0>(info.param)].name;
                           for (char& c : name)
                             if (c == '-') c = '_';  // gtest names are [A-Za-z0-9_]
                           return name + "_seed" + std::to_string(std::get<1>(info.param));
                         });

// Wider sweep, sized at runtime: DBLIND_CHAOS_SEEDS=<n> runs n seeds per mix
// in one process (gtest_discover_tests enumerates at build time, so the env
// knob cannot add ctest entries — CI invokes the binary directly instead).
// DBLIND_CHAOS_MIXES=<substr> restricts the sweep to mixes whose name
// contains the substring; tools/ci.sh's `churn` job uses it to run the four
// reconfiguration mixes at a deeper seed count than the all-mix sweep.
// DBLIND_CHAOS_SEED_BASE=<s> shifts the first seed (default 100) so a
// failure deep into a wide sweep can be re-run in isolation.
TEST(ChaosSweep, EnvConfiguredSweep) {
  const char* env = std::getenv("DBLIND_CHAOS_SEEDS");
  int seeds = env ? std::atoi(env) : 0;
  if (seeds <= 0) GTEST_SKIP() << "set DBLIND_CHAOS_SEEDS=<n> for the wide sweep";
  const char* filter = std::getenv("DBLIND_CHAOS_MIXES");
  const char* base_env = std::getenv("DBLIND_CHAOS_SEED_BASE");
  const int base = base_env ? std::atoi(base_env) : 100;
  int matched = 0;
  for (int mix = 0; mix < kMixCount; ++mix) {
    if (filter != nullptr && std::string(kMixes[mix].name).find(filter) == std::string::npos)
      continue;
    ++matched;
    for (int seed = 0; seed < seeds; ++seed) {
      run_chaos(kMixes[mix], static_cast<std::uint64_t>(base + seed));
      if (::testing::Test::HasFailure())
        FAIL() << "violation at mix=" << kMixes[mix].name << " seed=" << (base + seed);
    }
  }
  EXPECT_GT(matched, 0) << "DBLIND_CHAOS_MIXES='" << (filter ? filter : "")
                        << "' matched no fault mix";
}

// The regression the whole retransmission layer exists for: with the layer
// OFF, a fixed seed at 25% loss starves the protocol of a liveness-critical
// message and the event queue drains with no result anywhere — the
// fire-once protocol deadlocks. The SAME seed with retransmission ON
// completes. (Deterministic: both runs are pure functions of the seed.)
TEST(ChaosRegression, DeadlocksWithoutRetransmission) {
  Mix lossy{.name = "deadlock", .drop_percent = 25, .liveness_expected = false};
  bool without = run_chaos(lossy, 424242, /*retransmit=*/false);
  EXPECT_FALSE(without) << "expected the fire-once protocol to deadlock under 25% loss";
  lossy.liveness_expected = true;
  bool with = run_chaos(lossy, 424242, /*retransmit=*/true);
  EXPECT_TRUE(with);
}

const Mix& mix_named(std::string_view name) {
  for (const Mix& mix : kMixes) {
    if (mix.name == name) return mix;
  }
  throw std::logic_error("no such fault mix");
}

// churn-leave seeds whose retiring rank 5 lost both the round start and the
// apply (with every apply resend, which the senders drop at their installs)
// yet received 2f+1 echoes: nothing stamped with epoch 0 reaches it after the
// install, so no kWrongEpoch ever prompts a pull. The echo quorum's fetch
// step must still bring it to the new epoch, retired.
TEST(ChaosRegression, ChurnLeaveSeed253RetireeFetchesInstall) {
  EXPECT_TRUE(run_chaos(mix_named("churn-leave"), 253));
}

TEST(ChaosRegression, ChurnLeaveSeed392RetireeFetchesInstall) {
  EXPECT_TRUE(run_chaos(mix_named("churn-leave"), 392));
}

// The Byzantine coordinator (node 4) stalls on transfer 2 and records the
// done message only after every honest B server already holds the result,
// the moment run_to_completion stops. T10 sees that stall resolve only
// because the settle before the trace check covers Byzantine roster members
// too.
TEST(ChaosRegression, ByzantineLossySeed245ByzantineStallResolves) {
  EXPECT_TRUE(run_chaos(mix_named("byzantine-lossy"), 245));
}

// B rank 2 (node 5) is isolated from 100 to 500 ms under a 300 ms watchdog
// deadline. Its last progress is at 8 ms and its own 400 ms backup start
// counts as progress again, so the "watchdog barked" check needs the stall
// reported at its 308 ms expiry. A sweep on a fixed deadline/2 period fires
// at 300 and 450 ms, on either side of it, and reports none.
TEST(ChaosRegression, CorruptPartitionSeed112WatchdogBarksInPartition) {
  EXPECT_TRUE(run_chaos(mix_named("corrupt-partition"), 112));
}

// The adopted standby (node 8) stalls on transfer 2 after the mid-transfer
// install. While its re-shared key is still pending, run_to_completion does
// not wait for it, and it records the done message after the rest of the
// roster. The settle must cover it before T10 is checked, not after.
TEST(ChaosRegression, ChurnMidTransferSeed246StallResolves) {
  EXPECT_TRUE(run_chaos(mix_named("churn-mid-transfer"), 246));
}

// B rank 4 crashes as the reshare round starts and restarts 900 ms later. The
// settle used to skip it (crashed nodes are not checked) and, once it only
// waited for the restart, stopped at 1,156.7 ms — before the laggard's own
// install at 1,165.0 ms. The settle must wait for the restarted rank to
// reach the installed epoch with its share complete.
TEST(ChaosRegression, ChurnCrashSeed138LaggardRejoins) {
  EXPECT_TRUE(run_chaos(mix_named("churn-crash-during-reshare"), 138));
}

// Crash-recovery in isolation: the designated B coordinator dies mid-protocol
// and comes back; its durable state (registered transfers, done messages)
// must let it finish — recovered via its own result pull if the done message
// passed it by while it was down.
TEST(ChaosRecovery, RestartedCoordinatorCatchesUp) {
  Mix mix{.name = "restart-only", .crash_restart_b1 = true};
  EXPECT_TRUE(run_chaos(mix, 7));
}

}  // namespace
}  // namespace dblind::core

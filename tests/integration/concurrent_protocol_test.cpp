// Concurrent multi-transfer equivalence panel (PR 8 acceptance criterion).
//
// With per-instance keyed contribution streams and a fixed-delay network,
// the bytes of every transfer's result are a pure function of (seed,
// transfer id, contributor quorum): they must not depend on HOW MANY
// transfers were in flight around it, nor on where the proofs were checked.
// The panel runs N open-loop transfers through the concurrent engine
// (unlimited slots, worker pool + cross-transfer batch drain) and through a
// strictly sequential baseline (max_inflight_transfers = 1, inline batch
// verification) and demands byte-identical per-transfer ciphertexts on every
// honest B server — across >= 4 seeds and with a Byzantine contributor whose
// inconsistent contribution must be rejected identically in both schedules.
//
// The VerifyPool arrival-order regression rides along: tagged multi-transfer
// jobs that finish out of order must still be *applied* in submission order
// (the determinism contract the cross-transfer drain builds on), with the
// per-tag inflight accounting balanced. Run under TSan by the tsan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "core/system.hpp"
#include "core/verify_pool.hpp"
#include "obs/trace.hpp"

namespace dblind::core {
namespace {

using mpz::Bigint;
using Behavior = ProtocolServer::Behavior;

constexpr std::size_t kTransfers = 6;

struct RunOutcome {
  bool completed = false;
  // Per transfer: the result ciphertext held by each honest B rank.
  std::map<TransferId, std::vector<elgamal::Ciphertext>> results;
  int attack_successes = 0;
  std::uint64_t max_inflight_seen = 0;  // from engine_admit trace events
};

RunOutcome run_once(std::uint64_t seed, bool byzantine, std::size_t max_inflight,
                    std::size_t workers) {
  obs::MemoryTraceRecorder trace;
  SystemOptions o;
  o.seed = 47000 + seed;
  o.a = {4, 1};
  o.b = {4, 1};
  // Fixed delay: message latencies carry no randomness, so the contributor
  // quorum of each instance is interleaving-independent (FIFO simulator).
  o.delay_min = 2'000;
  o.delay_max = 2'000;
  o.protocol.max_inflight_transfers = max_inflight;
  o.protocol.verify_workers = workers;
  o.protocol.trace = &trace;
  if (byzantine) {
    o.b_behaviors.assign(4, Behavior::kHonest);
    o.b_behaviors[2] = Behavior::kInconsistentContribution;
  }
  System sys(std::move(o));

  std::vector<TransferId> transfers;
  for (std::size_t i = 0; i < kTransfers; ++i) {
    Bigint m = sys.config().params.encode_message(Bigint(1000 + 17 * seed + i));
    // Arrivals 3ms apart with ~2ms per hop: every transfer overlaps several
    // neighbours unless the engine serializes them.
    transfers.push_back(sys.add_transfer_arriving(m, 1'000 + 3'000 * i));
  }

  RunOutcome out;
  out.completed = sys.run_to_completion();
  for (TransferId t : transfers) {
    std::vector<elgamal::Ciphertext> row;
    for (ServerRank r = 1; r <= 4; ++r) {
      if (byzantine && r == 3) continue;  // the Byzantine rank's view is unconstrained
      auto res = sys.result(t, r);
      if (res) {
        EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t))
            << "seed=" << seed << " transfer=" << t << " rank=" << r;
        row.push_back(*res);
      }
    }
    // Completion requires every honest roster member to hold the transfer.
    EXPECT_EQ(row.size(), byzantine ? 3u : 4u) << "seed=" << seed << " t=" << t;
    out.results.emplace(t, std::move(row));
  }
  for (ServerRank r = 1; r <= 4; ++r) {
    out.attack_successes += sys.a_server(r).attack_successes();
    out.attack_successes += sys.b_server(r).attack_successes();
  }
  for (const obs::TraceEvent& e : trace.events()) {
    if (e.kind == obs::EventKind::kEngineAdmit && e.count > out.max_inflight_seen)
      out.max_inflight_seen = e.count;
  }
  return out;
}

class ConcurrentEquivalence : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ConcurrentEquivalence, InterleavedMatchesSequentialByteForByte) {
  const auto [seed, byzantine] = GetParam();

  // Concurrent: unlimited admission, worker pool + cross-transfer batch drain.
  RunOutcome conc = run_once(seed, byzantine, /*max_inflight=*/0, /*workers=*/2);
  // Sequential baseline: one transfer at a time, inline batch verification.
  RunOutcome seq = run_once(seed, byzantine, /*max_inflight=*/1, /*workers=*/0);

  ASSERT_TRUE(conc.completed) << "seed=" << seed;
  ASSERT_TRUE(seq.completed) << "seed=" << seed;
  EXPECT_EQ(conc.attack_successes, 0);
  EXPECT_EQ(seq.attack_successes, 0);

  // The runs must have actually differed in schedule: several transfers in
  // flight concurrently vs. never more than one.
  EXPECT_GE(conc.max_inflight_seen, 2u) << "seed=" << seed;
  EXPECT_LE(seq.max_inflight_seen, 1u) << "seed=" << seed;

  // Byte-for-byte identical per-transfer results, transfer by transfer.
  ASSERT_EQ(conc.results.size(), seq.results.size());
  for (const auto& [t, row] : conc.results) {
    auto it = seq.results.find(t);
    ASSERT_NE(it, seq.results.end()) << "transfer " << t;
    EXPECT_EQ(row, it->second) << "seed=" << seed << " transfer=" << t
                               << " byzantine=" << byzantine;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConcurrentEquivalence,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return std::string(std::get<1>(info.param) ? "byzantine" : "honest") + "_seed" +
             std::to_string(std::get<0>(info.param));
    });

// Intermediate concurrency levels agree too: a capped engine (2 slots) with
// inline verification lands on the same bytes as the sequential baseline.
TEST(ConcurrentEquivalence, CappedEngineAgreesWithExtremes) {
  RunOutcome capped = run_once(11, /*byzantine=*/false, /*max_inflight=*/2, /*workers=*/0);
  RunOutcome seq = run_once(11, /*byzantine=*/false, /*max_inflight=*/1, /*workers=*/0);
  ASSERT_TRUE(capped.completed);
  ASSERT_TRUE(seq.completed);
  EXPECT_EQ(capped.max_inflight_seen, 2u);
  EXPECT_EQ(capped.results, seq.results);
}

// --- VerifyPool arrival-order regression -------------------------------------------

// Multi-transfer jobs drain concurrently and finish out of order; the caller
// contract (wait per-job futures in submission order) must still apply
// results in strict arrival order, and the per-tag accounting must balance.
TEST(VerifyPoolConcurrent, ArrivalOrderApplicationAcrossTags) {
  constexpr std::size_t kJobs = 24;
  VerifyPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);

  std::vector<std::future<void>> done;
  std::vector<int> applied;
  std::atomic<std::uint32_t> completion_stamp{0};
  std::vector<std::uint32_t> completed_at(kJobs);

  for (std::size_t i = 0; i < kJobs; ++i) {
    auto task = std::make_shared<std::packaged_task<void()>>([i, &completed_at,
                                                              &completion_stamp] {
      // Within each 3-worker window the earlier-submitted job sleeps longer,
      // so completions invert submission order — the worst case for ordered
      // application.
      std::this_thread::sleep_for(std::chrono::microseconds(100 * (3 - i % 3)));
      completed_at[i] = completion_stamp.fetch_add(1) + 1;
    });
    done.push_back(task->get_future());
    const std::uint64_t transfer_tag = 1 + i % 4;  // 4 interleaved transfers
    pool.submit([task] { (*task)(); }, transfer_tag);
  }
  // Apply strictly in submission order, exactly like the server's drain.
  for (std::size_t i = 0; i < kJobs; ++i) {
    done[i].wait();
    applied.push_back(static_cast<int>(i));
  }
  for (std::size_t i = 0; i < kJobs; ++i) EXPECT_EQ(applied[i], static_cast<int>(i));
  // Sanity: completion really was out of order somewhere (an inversion
  // exists), or the ordered-application property was tested vacuously.
  bool inverted = false;
  for (std::size_t i = 0; i + 1 < kJobs; ++i)
    inverted = inverted || completed_at[i] > completed_at[i + 1];
  EXPECT_TRUE(inverted);
  // All tags drain: accounting balances even though completion raced. The
  // future is satisfied inside the job, just before the worker's bookkeeping
  // step, so give the counters a bounded moment to settle.
  for (int spin = 0; pool.pending() != 0 && spin < 10'000; ++spin)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  for (std::uint64_t tag = 1; tag <= 4; ++tag) EXPECT_EQ(pool.inflight(tag), 0u);
  EXPECT_EQ(pool.pending(), 0u);
}

// inflight(tag) tracks submitted-but-unfinished jobs per tag while a slow job
// blocks its transfer; other tags drain independently.
TEST(VerifyPoolConcurrent, PerTagInflightAccounting) {
  VerifyPool pool(1);  // single worker: deterministic start order
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  pool.submit([gate] { gate.wait(); }, /*tag=*/7);
  pool.submit([] {}, /*tag=*/9);
  // The tag-7 job is running (or queued); tag 9 waits behind it.
  EXPECT_EQ(pool.inflight(7), 1u);
  EXPECT_EQ(pool.inflight(9), 1u);
  EXPECT_EQ(pool.pending(), 2u);
  release.set_value();
  // Destructor drains: both tags reach zero before the pool dies; reaching
  // here without deadlock is the assertion.
}

}  // namespace
}  // namespace dblind::core

// TransferEngine scheduler semantics: FIFO admission under a finite cap, the
// no-starvation property under adversarial arrival orders, epoch-abort
// priority preservation, and thread-safety of the internally locked engine
// (the concurrent sections are the TSan targets).
#include "core/transfer_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>
#include <vector>

namespace dblind::core {
namespace {

using Admission = TransferEngine::Admission;

TEST(TransferEngine, UnlimitedCapAdmitsImmediately) {
  TransferEngine eng(0);
  for (TransferId t = 1; t <= 32; ++t) {
    auto r = eng.request_start(t);
    EXPECT_EQ(r.decision, Admission::kAdmitted);
    ASSERT_EQ(r.admitted.size(), 1u);
    EXPECT_EQ(r.admitted[0], t);
  }
  EXPECT_EQ(eng.inflight(), 32u);
  EXPECT_EQ(eng.queued(), 0u);
}

TEST(TransferEngine, CapQueuesAndAdmitsFifo) {
  TransferEngine eng(2);
  EXPECT_EQ(eng.request_start(1).decision, Admission::kAdmitted);
  EXPECT_EQ(eng.request_start(2).decision, Admission::kAdmitted);
  EXPECT_EQ(eng.request_start(3).decision, Admission::kQueued);
  EXPECT_EQ(eng.request_start(4).decision, Admission::kQueued);
  EXPECT_EQ(eng.inflight(), 2u);
  EXPECT_EQ(eng.queued(), 2u);
  EXPECT_EQ(eng.phase(3), TransferPhase::kQueued);

  // Completions admit strictly in queue order.
  auto a = eng.complete(1);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0], 3u);
  a = eng.complete(2);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0], 4u);
  EXPECT_EQ(eng.phase(1), TransferPhase::kDone);
  EXPECT_EQ(eng.phase(4), TransferPhase::kActive);
}

TEST(TransferEngine, DuplicateAndDoneDecisions) {
  TransferEngine eng(1);
  EXPECT_EQ(eng.request_start(7).decision, Admission::kAdmitted);
  // A backup-coordinator timer re-fires: duplicate request, no double slot.
  EXPECT_EQ(eng.request_start(7).decision, Admission::kAlreadyActive);
  EXPECT_EQ(eng.inflight(), 1u);
  auto a = eng.complete(7);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(eng.request_start(7).decision, Admission::kDone);
  EXPECT_EQ(eng.inflight(), 0u);
}

TEST(TransferEngine, CompleteOnQueuedRemovesFromQueue) {
  TransferEngine eng(1);
  (void)eng.request_start(1);
  (void)eng.request_start(2);  // queued
  EXPECT_EQ(eng.queued(), 1u);
  // A result learned via a pull completes the queued transfer: it must not
  // be admitted later.
  auto a = eng.complete(2);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(eng.queued(), 0u);
  EXPECT_EQ(eng.phase(2), TransferPhase::kDone);
  a = eng.complete(1);
  EXPECT_TRUE(a.empty());
}

TEST(TransferEngine, CompleteUnknownTransferIsSafe) {
  TransferEngine eng(2);
  // Results can arrive for transfers the engine never admitted (result pulls
  // on a restarted server).
  auto a = eng.complete(99);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(eng.phase(99), TransferPhase::kDone);
  EXPECT_EQ(eng.request_start(99).decision, Admission::kDone);
}

TEST(TransferEngine, AbortInflightDemotesToQueueHead) {
  TransferEngine eng(2);
  (void)eng.request_start(10);
  (void)eng.request_start(11);
  (void)eng.request_start(12);  // queued
  (void)eng.request_start(13);  // queued

  auto aborted = eng.abort_inflight();
  std::sort(aborted.begin(), aborted.end());
  EXPECT_EQ(aborted, (std::vector<TransferId>{10, 11}));
  EXPECT_EQ(eng.inflight(), 0u);
  // Demoted actives keep their priority: they re-admit BEFORE the transfers
  // that were still queued at the abort.
  EXPECT_EQ(eng.queued(), 4u);
  auto readmitted = eng.fill_slots();
  std::sort(readmitted.begin(), readmitted.end());
  EXPECT_EQ(readmitted, (std::vector<TransferId>{10, 11}));
  EXPECT_EQ(eng.phase(12), TransferPhase::kQueued);
}

TEST(TransferEngine, AbortLeavesQueuedAndDoneUntouched) {
  TransferEngine eng(1);
  (void)eng.request_start(1);
  (void)eng.request_start(2);  // queued
  (void)eng.complete(3);       // done (learned via pull)
  auto aborted = eng.abort_inflight();
  EXPECT_EQ(aborted, (std::vector<TransferId>{1}));
  EXPECT_EQ(eng.phase(2), TransferPhase::kQueued);
  EXPECT_EQ(eng.phase(3), TransferPhase::kDone);
}

TEST(TransferEngine, ResetClearsSchedulingState) {
  TransferEngine eng(1);
  (void)eng.request_start(1);
  (void)eng.request_start(2);
  eng.reset();
  EXPECT_EQ(eng.inflight(), 0u);
  EXPECT_EQ(eng.queued(), 0u);
  EXPECT_EQ(eng.phase(1), TransferPhase::kRegistered);
  // Re-fed after a crash: everything admits again from scratch.
  EXPECT_EQ(eng.request_start(2).decision, Admission::kAdmitted);
}

// No-starvation property: under ANY arrival order and ANY interleaving of
// completions, the sub-sequence of admissions that came from the queue equals
// the queue-entry order, and every transfer is eventually admitted exactly
// once. FIFO admission is the guarantee the scheduler documents; this drives
// it with adversarial (seeded-random) schedules.
TEST(TransferEngine, NoStarvationUnderAdversarialArrivalOrders) {
  for (std::uint64_t seed : {1ull, 7ull, 1337ull, 99991ull}) {
    std::mt19937_64 rng(seed);
    const std::size_t cap = 1 + rng() % 3;  // 1..3 slots
    const std::size_t n = 40;
    TransferEngine eng(cap);

    std::vector<TransferId> arrivals(n);
    for (std::size_t i = 0; i < n; ++i) arrivals[i] = i + 1;
    std::shuffle(arrivals.begin(), arrivals.end(), rng);

    std::vector<TransferId> queue_order;   // order transfers entered the queue
    std::vector<TransferId> queue_admits;  // admissions that came FROM the queue
    std::vector<TransferId> active;        // currently admitted, not completed
    std::size_t next_arrival = 0;
    std::size_t admitted_count = 0;

    while (admitted_count < n || !active.empty()) {
      const bool can_arrive = next_arrival < arrivals.size();
      const bool do_arrive = can_arrive && (active.empty() || rng() % 2 == 0);
      if (do_arrive) {
        TransferId t = arrivals[next_arrival++];
        auto r = eng.request_start(t);
        if (r.decision == TransferEngine::Admission::kQueued) queue_order.push_back(t);
        for (TransferId a : r.admitted) {
          if (a != t) queue_admits.push_back(a);  // admitted via a freed slot
          active.push_back(a);
          ++admitted_count;
        }
      } else {
        // Complete a random active transfer (adversarial completion order).
        std::size_t i = rng() % active.size();
        TransferId done = active[i];
        active.erase(active.begin() + i);
        for (TransferId a : eng.complete(done)) {
          queue_admits.push_back(a);
          active.push_back(a);
          ++admitted_count;
        }
      }
    }

    EXPECT_EQ(admitted_count, n) << "seed " << seed;
    EXPECT_EQ(eng.inflight(), 0u);
    EXPECT_EQ(eng.queued(), 0u);
    // Every transfer that ever waited was admitted in exactly its wait order.
    EXPECT_EQ(queue_admits, queue_order) << "seed " << seed;
    EXPECT_EQ(eng.admitted_total(), n) << "seed " << seed;
  }
}

// Concurrent hammering from several threads: decisions stay consistent (no
// transfer admitted twice, slot accounting balanced). Run under TSan by the
// tsan CI job.
TEST(TransferEngine, ConcurrentRequestsAreConsistent) {
  TransferEngine eng(4);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 64;
  std::vector<std::vector<TransferId>> admitted(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&eng, &admitted, w] {
      std::vector<TransferId> todo;
      for (std::size_t i = 0; i < kPerThread; ++i)
        todo.push_back(static_cast<TransferId>(w * kPerThread + i + 1));
      std::size_t next = 0;
      std::vector<TransferId> mine;
      while (next < todo.size() || !mine.empty()) {
        if (next < todo.size()) {
          for (TransferId a : eng.request_start(todo[next++]).admitted) {
            admitted[w].push_back(a);
            mine.push_back(a);
          }
        }
        if (!mine.empty()) {
          TransferId done = mine.back();
          mine.pop_back();
          for (TransferId a : eng.complete(done)) {
            admitted[w].push_back(a);
            mine.push_back(a);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Drain anything still queued (a slot freed by thread X may have admitted
  // work that thread X then completed; stragglers stay queued).
  for (TransferId a : eng.fill_slots()) admitted[0].push_back(a);
  std::vector<TransferId> all;
  for (auto& v : admitted) all.insert(all.end(), v.begin(), v.end());
  while (eng.inflight() > 0) {
    // Complete whatever is active so queued transfers drain.
    bool progressed = false;
    for (TransferId t : all) {
      if (eng.phase(t) == TransferPhase::kActive) {
        for (TransferId a : eng.complete(t)) all.push_back(a);
        progressed = true;
      }
    }
    ASSERT_TRUE(progressed);
  }
  std::sort(all.begin(), all.end());
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end())
      << "a transfer was admitted twice";
  EXPECT_EQ(all.size(), kThreads * kPerThread);
  EXPECT_EQ(eng.admitted_total(), kThreads * kPerThread);
}

}  // namespace
}  // namespace dblind::core

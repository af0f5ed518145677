// Semantics of the annotated synchronization primitives (core/sync.hpp).
//
// The Clang thread-safety *analysis* is exercised by the
// static_analysis.thread_safety gate (tools/run_thread_safety.sh); these
// tests pin the runtime behavior the annotations describe: Mutex mutual
// exclusion, MutexLock RAII pairing, try_lock contention semantics, and
// CondVar wakeups/timeouts. Run under the tsan preset they are the stress
// coverage for the wrappers themselves. Shared state lives in small
// annotated structs (GUARDED_BY applies to members, not locals).
#include "core/sync.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <thread>
#include <vector>

namespace dblind {
namespace {

TEST(Sync, MutexProvidesMutualExclusion) {
  struct Shared {
    Mutex mu;
    std::uint64_t counter GUARDED_BY(mu) = 0;
  } s;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(s.mu);
        ++s.counter;  // non-atomic on purpose: lost updates would show here
      }
    });
  }
  for (auto& th : threads) th.join();
  MutexLock lock(s.mu);
  EXPECT_EQ(s.counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Sync, MutexLockReleasesOnScopeExit) {
  Mutex mu;
  {
    MutexLock lock(mu);
    // Held: a second acquisition attempt must fail.
    std::thread probe([&] { EXPECT_FALSE(mu.try_lock()); });
    probe.join();
  }
  // Released: now it must succeed.
  std::thread probe([&] {
    ASSERT_TRUE(mu.try_lock());
    mu.unlock();
  });
  probe.join();
}

TEST(Sync, TryLockDoesNotBlock) {
  Mutex mu;
  mu.lock();
  auto t0 = std::chrono::steady_clock::now();
  std::thread probe([&] { EXPECT_FALSE(mu.try_lock()); });
  probe.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  mu.unlock();
}

TEST(Sync, CondVarWakesWaiter) {
  struct Shared {
    Mutex mu;
    CondVar cv;
    bool ready GUARDED_BY(mu) = false;
  } s;
  bool observed = false;
  std::thread waiter([&] {
    MutexLock lock(s.mu);
    while (!s.ready) s.cv.wait(s.mu);
    observed = s.ready;
  });
  {
    MutexLock lock(s.mu);
    s.ready = true;
  }
  s.cv.notify_one();
  waiter.join();
  EXPECT_TRUE(observed);
}

TEST(Sync, CondVarWaitUntilTimesOut) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  auto status =
      cv.wait_until(mu, std::chrono::steady_clock::now() + std::chrono::milliseconds(10));
  EXPECT_EQ(status, std::cv_status::timeout);
}

TEST(Sync, CondVarWaitForTimesOut) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  EXPECT_EQ(cv.wait_for(mu, std::chrono::milliseconds(10)), std::cv_status::timeout);
}

// Producer/consumer handshake over an annotated queue: the exact shape
// ThreadedBus slots use (explicit while-loop waits, no predicate lambdas —
// those defeat the Clang analysis).
TEST(Sync, ProducerConsumerQueue) {
  struct Shared {
    Mutex mu;
    CondVar cv;
    std::deque<int> queue GUARDED_BY(mu);
    bool done GUARDED_BY(mu) = false;
  } s;
  constexpr int kItems = 10000;
  std::uint64_t consumed = 0;

  std::thread consumer([&] {
    for (;;) {
      MutexLock lock(s.mu);
      while (s.queue.empty() && !s.done) s.cv.wait(s.mu);
      if (s.queue.empty() && s.done) return;
      s.queue.pop_front();
      ++consumed;
    }
  });
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      {
        MutexLock lock(s.mu);
        s.queue.push_back(i);
      }
      s.cv.notify_one();
    }
    {
      MutexLock lock(s.mu);
      s.done = true;
    }
    s.cv.notify_all();
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(consumed, static_cast<std::uint64_t>(kItems));
}

// notify_all wakes every waiter exactly once through a state transition.
TEST(Sync, NotifyAllWakesAllWaiters) {
  struct Shared {
    Mutex mu;
    CondVar cv;
    bool go GUARDED_BY(mu) = false;
  } s;
  std::atomic<int> awake{0};
  constexpr int kWaiters = 6;
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      MutexLock lock(s.mu);
      while (!s.go) s.cv.wait(s.mu);
      awake.fetch_add(1, std::memory_order_relaxed);
    });
  }
  {
    MutexLock lock(s.mu);
    s.go = true;
  }
  s.cv.notify_all();
  for (auto& th : waiters) th.join();
  EXPECT_EQ(awake.load(std::memory_order_relaxed), kWaiters);
}

}  // namespace
}  // namespace dblind

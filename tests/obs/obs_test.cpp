// Unit tests for the observability layer (PR 4): metrics registry
// semantics, Prometheus text format, JSONL trace serialization, and the
// determinism guarantee (same seed => byte-identical trace).
//
// The concurrency tests double as the TSan coverage for lock-free metric
// updates: run under the tsan preset they hammer one Counter/Histogram cell
// from many threads, which is exactly what handler threads do in a
// ThreadedBus deployment.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/system.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace dblind::obs {
namespace {

TEST(Metrics, CounterGaugeHistogramSemantics) {
  MetricsRegistry reg;
  Counter c = reg.counter("c_total");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge g = reg.gauge("g");
  g.set(7);
  g.set(3);
  EXPECT_EQ(g.value(), 3u);

  Histogram h = reg.histogram("h_us", {}, {10, 100});
  h.observe(5);
  h.observe(50);
  h.observe(500);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.total(), 555u);
  auto samples = reg.histogram_samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].buckets, (std::vector<std::uint64_t>{1, 1, 1}));
}

TEST(Metrics, SameNameAndLabelsShareOneCell) {
  MetricsRegistry reg;
  // Label order must not matter: the registry canonicalizes by sorting.
  Counter a = reg.counter("x_total", {{"node", "3"}, {"type", "commit"}});
  Counter b = reg.counter("x_total", {{"type", "commit"}, {"node", "3"}});
  a.inc();
  b.inc();
  EXPECT_EQ(a.value(), 2u);
  EXPECT_EQ(reg.scalar_samples().size(), 1u);

  Counter other = reg.counter("x_total", {{"node", "4"}, {"type", "commit"}});
  other.inc(10);
  EXPECT_EQ(other.value(), 10u);
  EXPECT_EQ(reg.scalar_samples().size(), 2u);
}

TEST(Metrics, DefaultHandlesDiscardWithoutARegistry) {
  // The branch-free hot path: handles not resolved against a registry write
  // into the process-wide discard cells. No crash, no registry required.
  Counter c;
  Gauge g;
  Histogram h;
  c.inc(5);
  g.set(9);
  h.observe(123);
  EXPECT_GE(h.count(), 1u);  // shared discard cell: only monotonicity holds
}

TEST(Metrics, AttachCounterExposesExternalCell) {
  std::atomic<std::uint64_t> cell{17};
  MetricsRegistry reg;
  reg.attach_counter("ext_total", {{"node", "1"}}, &cell);
  cell.fetch_add(3);
  auto samples = reg.scalar_samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "ext_total");
  EXPECT_EQ(samples[0].value, 20u);
  // A writable handle for an attached series must not scribble on the
  // externally owned cell — it degrades to the discard cell.
  Counter c = reg.counter("ext_total", {{"node", "1"}});
  c.inc(1000);
  EXPECT_EQ(cell.load(), 20u);
}

TEST(Metrics, LabelTextCanonicalForm) {
  EXPECT_EQ(label_text({}), "");
  EXPECT_EQ(label_text({{"node", "3"}, {"type", "commit"}}),
            "{node=\"3\",type=\"commit\"}");
  EXPECT_EQ(label_text({{"k", "a\"b\\c"}}), "{k=\"a\\\"b\\\\c\"}");
}

TEST(Metrics, PrometheusTextFormat) {
  MetricsRegistry reg;
  reg.counter("a_total", {{"node", "1"}}).inc(2);
  reg.counter("a_total", {{"node", "2"}}).inc(5);
  reg.gauge("depth").set(4);
  Histogram h = reg.histogram("lat_us", {{"node", "1"}}, {10, 100});
  h.observe(7);
  h.observe(70);
  h.observe(700);

  std::string text = reg.prometheus_text();
  EXPECT_EQ(text,
            "# TYPE a_total counter\n"
            "a_total{node=\"1\"} 2\n"
            "a_total{node=\"2\"} 5\n"
            "# TYPE depth gauge\n"
            "depth 4\n"
            "# TYPE lat_us histogram\n"
            "lat_us_bucket{node=\"1\",le=\"10\"} 1\n"
            "lat_us_bucket{node=\"1\",le=\"100\"} 2\n"
            "lat_us_bucket{node=\"1\",le=\"+Inf\"} 3\n"
            "lat_us_sum{node=\"1\"} 777\n"
            "lat_us_count{node=\"1\"} 3\n");
}

TEST(Metrics, ScopedCounterDeltaAttributesTheDelta) {
  MetricsRegistry reg;
  Counter dst = reg.counter("phase_muls_total");
  std::atomic<std::uint64_t> src{100};
  {
    ScopedCounterDelta d(&src, dst);
    src.fetch_add(25);
  }
  EXPECT_EQ(dst.value(), 25u);
  {
    ScopedCounterDelta d(nullptr, dst);  // null source: no-op, no crash
  }
  EXPECT_EQ(dst.value(), 25u);
}

TEST(Metrics, ConcurrentUpdatesFromManyThreads) {
  MetricsRegistry reg;
  Counter c = reg.counter("hammer_total");
  Histogram h = reg.histogram("hammer_us", {}, {8, 64});
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        c.inc();
        h.observe(static_cast<std::uint64_t>((t * kIters + i) % 100));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Trace, JsonlFieldOrderPerKind) {
  TraceEvent e;
  e.ts = 120;
  e.node = 5;
  e.kind = EventKind::kMsgSend;
  e.peer = 2;
  e.count = 96;
  EXPECT_EQ(to_jsonl(e), "{\"ts\":120,\"node\":5,\"kind\":\"msg_send\","
                         "\"peer\":2,\"bytes\":96}");

  TraceEvent ep;
  ep.ts = 7;
  ep.node = 4;
  ep.kind = EventKind::kEpochStart;
  ep.has_instance = true;
  ep.transfer = 1;
  ep.coordinator = 2;
  ep.epoch = 3;
  EXPECT_EQ(to_jsonl(ep), "{\"ts\":7,\"node\":4,\"kind\":\"epoch_start\","
                          "\"transfer\":1,\"coord\":2,\"epoch\":3}");

  TraceEvent v;
  v.ts = 9;
  v.node = 6;
  v.kind = EventKind::kVerifyFail;
  v.has_instance = true;
  v.transfer = 1;
  v.coordinator = 1;
  v.epoch = 1;
  v.subject = 4;
  v.peer = 3;
  EXPECT_EQ(to_jsonl(v), "{\"ts\":9,\"node\":6,\"kind\":\"verify_fail\","
                         "\"transfer\":1,\"coord\":1,\"epoch\":1,"
                         "\"subject\":4,\"peer\":3}");

  TraceEvent r;
  r.ts = 80;
  r.node = 4;
  r.kind = EventKind::kRetransmit;
  r.transfer = 1;  // bare transfer without an instance
  r.peer = 3;
  r.count = 4;
  r.attempt = 1;
  r.cap = 12;
  EXPECT_EQ(to_jsonl(r), "{\"ts\":80,\"node\":4,\"kind\":\"retransmit\","
                         "\"transfer\":1,\"key\":3,\"frames\":4,"
                         "\"attempt\":1,\"cap\":12}");

  // Schema v2 (PR 9): the meta header leads with the version so offline
  // tools can reject mismatched traces before reading a single event.
  RunMeta m{42, 4, 1, 4, 1, 12};
  EXPECT_EQ(to_jsonl(m), "{\"kind\":\"meta\",\"v\":2,\"run_seed\":42,\"a_n\":4,"
                         "\"a_f\":1,\"b_n\":4,\"b_f\":1,"
                         "\"retransmit_cap\":12}");
  EXPECT_EQ(m.version, kTraceSchemaVersion);
}

// Schema v2 span fields: serialized right after "kind", and ONLY when
// nonzero — unit-style events built without a transport keep their exact v1
// rendering (the pinned strings above), while transport-minted events carry
// the causal link.
TEST(Trace, SpanAndParentSerializeOnlyWhenNonzero) {
  TraceEvent e;
  e.ts = 120;
  e.node = 5;
  e.kind = EventKind::kMsgSend;
  e.peer = 2;
  e.count = 96;
  e.span = 17;
  e.parent = 9;
  EXPECT_EQ(to_jsonl(e), "{\"ts\":120,\"node\":5,\"kind\":\"msg_send\","
                         "\"span\":17,\"parent\":9,\"peer\":2,\"bytes\":96}");
  e.parent = 0;  // root span: parent omitted
  EXPECT_EQ(to_jsonl(e), "{\"ts\":120,\"node\":5,\"kind\":\"msg_send\","
                         "\"span\":17,\"peer\":2,\"bytes\":96}");
}

// Watchdog events: kStall carries the one-shot state dump (outstanding
// resends) plus the stalled transfer's latest span as `parent`;
// kStallResolved carries the stalled duration.
TEST(Trace, StallEventSerialization) {
  TraceEvent s;
  s.ts = 400000;
  s.node = 6;
  s.kind = EventKind::kStall;
  s.transfer = 3;
  s.attempt = 4;  // outstanding resend entries
  s.span = 91;
  s.parent = 88;  // the transfer's latest span
  EXPECT_EQ(to_jsonl(s), "{\"ts\":400000,\"node\":6,\"kind\":\"stall\","
                         "\"span\":91,\"parent\":88,\"transfer\":3,"
                         "\"resends\":4}");

  TraceEvent r;
  r.ts = 650000;
  r.node = 6;
  r.kind = EventKind::kStallResolved;
  r.transfer = 3;
  r.count = 250000;  // time spent stalled
  r.span = 120;
  r.parent = 119;
  EXPECT_EQ(to_jsonl(r), "{\"ts\":650000,\"node\":6,\"kind\":\"stall_resolved\","
                         "\"span\":120,\"parent\":119,\"transfer\":3,"
                         "\"stalled_us\":250000}");
}

TEST(Trace, MemoryRecorderCountsAndMeta) {
  MemoryTraceRecorder rec;
  rec.run_meta(RunMeta{9, 4, 1, 4, 1, 12});
  TraceEvent e;
  e.kind = EventKind::kVerifyPass;
  rec.record(e);
  rec.record(e);
  e.kind = EventKind::kVerifyFail;
  rec.record(e);
  EXPECT_EQ(rec.meta().run_seed, 9u);
  EXPECT_EQ(rec.count_of(EventKind::kVerifyPass), 2u);
  EXPECT_EQ(rec.count_of(EventKind::kVerifyFail), 1u);
  EXPECT_EQ(rec.events().size(), 3u);
}

// The determinism guarantee the trace layer documents: two runs with the
// same seed produce byte-identical JSONL (timestamps are virtual, and the
// recorder hooks draw no randomness of their own).
TEST(Trace, SameSeedProducesByteIdenticalJsonl) {
  auto run_once = [] {
    std::ostringstream out;
    JsonlTraceRecorder rec(out);
    core::SystemOptions o;
    o.a = {4, 1};
    o.b = {4, 1};
    o.seed = 31337;
    o.protocol.trace = &rec;
    core::System sys(std::move(o));
    sys.add_transfer(sys.config().params.encode_message(mpz::Bigint(77)));
    EXPECT_TRUE(sys.run_to_completion());
    return out.str();
  };
  std::string first = run_once();
  std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // The meta header is the first line, before any event.
  EXPECT_EQ(first.rfind("{\"kind\":\"meta\"", 0), 0u);
  // A completed honest run records done at every B server.
  std::size_t dones = 0;
  for (std::size_t pos = first.find("\"done_recorded\"");
       pos != std::string::npos; pos = first.find("\"done_recorded\"", pos + 1)) {
    ++dones;
  }
  EXPECT_EQ(dones, 4u);
}

// Malformed-line rejection lives in tools/trace_check.py (covered by ctest
// entry obs.trace_check_selftest); what the C++ side owns is that every
// emitted line is one well-formed JSON object — spot-check the invariant
// the parser relies on: one '{' prefix, one '}' suffix, no embedded newline.
TEST(Trace, EveryJsonlLineIsOneObject) {
  std::ostringstream out;
  JsonlTraceRecorder rec(out);
  core::SystemOptions o;
  o.a = {4, 1};
  o.b = {4, 1};
  o.seed = 5;
  o.protocol.trace = &rec;
  core::System sys(std::move(o));
  sys.add_transfer(sys.config().params.encode_message(mpz::Bigint(8)));
  EXPECT_TRUE(sys.run_to_completion());

  std::istringstream lines(out.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << "line " << n;
    EXPECT_EQ(line.back(), '}') << "line " << n;
  }
  EXPECT_GT(n, 1u);
}

// Registration racing scrapes (PR 6): the registry mutex (a dblind::Mutex,
// checked by the static_analysis.thread_safety gate) guards the name->cell
// maps; updates through returned handles are lock-free atomics. Hammering
// registration of colliding names against prometheus_text/scalar_samples
// readers is the TSan proof for that split.
TEST(Metrics, ConcurrentRegistrationAndScrape) {
  MetricsRegistry reg;
  constexpr int kThreads = 6;
  constexpr int kIters = 300;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 2);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // Colliding and distinct names: same-name registration must converge
        // on one cell while new names grow the map under the lock.
        Counter c = reg.counter("race_total", {{"lane", std::to_string(i % 4)}});
        c.inc();
        Gauge g = reg.gauge("race_gauge_" + std::to_string(t));
        g.set(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        (void)reg.prometheus_text();
        (void)reg.scalar_samples();
      }
    });
  }
  for (auto& th : threads) th.join();
  std::uint64_t total = 0;
  for (const auto& s : reg.scalar_samples()) {
    if (s.name.rfind("race_total", 0) == 0) total += s.value;
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kIters);
}

// MemoryTraceRecorder is shared by every node thread in a ThreadedBus run;
// concurrent record() against meta()/events() snapshots must never tear
// (its mutex is part of the annotated-capability rollout).
TEST(Trace, ConcurrentRecordAndSnapshot) {
  MemoryTraceRecorder rec;
  RunMeta meta;
  meta.run_seed = 42;
  rec.run_meta(meta);
  constexpr int kThreads = 4;
  constexpr int kEvents = 2000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kEvents; ++i) {
        TraceEvent e;
        e.ts = static_cast<std::uint64_t>(i);
        e.node = static_cast<std::uint32_t>(t);
        e.kind = EventKind::kMsgSend;
        rec.record(e);
      }
    });
  }
  std::thread reader([&] {
    for (int i = 0; i < 200; ++i) {
      auto snap = rec.events();
      EXPECT_LE(snap.size(), static_cast<std::size_t>(kThreads) * kEvents);
      (void)rec.meta();
    }
  });
  for (auto& th : writers) th.join();
  reader.join();
  EXPECT_EQ(rec.events().size(), static_cast<std::size_t>(kThreads) * kEvents);
}

// --- stall watchdog (obs/watchdog.hpp) --------------------------------------

TEST(Watchdog, DisabledWatchdogIsInert) {
  Watchdog w(0);
  EXPECT_FALSE(w.enabled());
  w.arm(1, 0);
  EXPECT_FALSE(w.progress(1, 10, 5).has_value());
  EXPECT_TRUE(w.expired(1'000'000).empty());
  EXPECT_FALSE(w.next_expiry().has_value());
}

TEST(Watchdog, StallFlipsOncePerEpisodeAndResolvesOnProgress) {
  Watchdog w(100);
  w.arm(7, 0);
  EXPECT_TRUE(w.next_expiry().has_value());
  EXPECT_TRUE(w.expired(99).empty());  // not idle long enough

  auto stalls = w.expired(100);
  ASSERT_EQ(stalls.size(), 1u);
  EXPECT_EQ(stalls[0].transfer, 7u);
  EXPECT_EQ(stalls[0].last_span, 0u);  // no activity recorded yet
  EXPECT_EQ(w.stalled_count(), 1u);
  // Second sweep: the same episode is never re-reported.
  EXPECT_TRUE(w.expired(500).empty());
  EXPECT_FALSE(w.next_expiry().has_value());  // everything stalled: sweeps are pointless

  // Progress resolves the stall and reports how long it lasted.
  auto res = w.progress(7, 260, /*span=*/42);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->transfer, 7u);
  EXPECT_EQ(res->stalled_us, 160u);
  EXPECT_EQ(w.stalled_count(), 0u);

  // A fresh episode can then start, carrying the latest span.
  auto again = w.expired(360);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].last_span, 42u);
}

TEST(Watchdog, ProgressImplicitlyArmsAndKeepsLastNonzeroSpan) {
  Watchdog w(100);
  EXPECT_FALSE(w.progress(3, 10, 5).has_value());  // implicit arm, no stall
  EXPECT_FALSE(w.progress(3, 20, 0).has_value());  // span 0 keeps span 5
  auto stalls = w.expired(120);
  ASSERT_EQ(stalls.size(), 1u);
  EXPECT_EQ(stalls[0].last_span, 5u);
}

TEST(Watchdog, CompleteStopsTrackingAndResolvesAPendingStall) {
  Watchdog w(100);
  w.arm(1, 0);
  w.arm(2, 0);
  // Completing a never-stalled transfer reports nothing.
  EXPECT_FALSE(w.complete(1, 50).has_value());
  ASSERT_EQ(w.expired(100).size(), 1u);  // only transfer 2 remains
  // Completing a stalled transfer resolves it (the crash-recovery path:
  // a kDoneRecorded is the resolution when no kStallResolved was possible).
  auto res = w.complete(2, 130);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->stalled_us, 30u);
  EXPECT_FALSE(w.next_expiry().has_value());
  EXPECT_TRUE(w.expired(10'000).empty());
}

// The sweep timer is armed for next_expiry(): the earliest last_activity +
// deadline over entries that are not already stalled, so a stall surfaces
// exactly one deadline after the last progress.
TEST(Watchdog, NextExpiryIsEarliestUnstalledDeadline) {
  Watchdog off(0);
  off.arm(1, 0);
  EXPECT_FALSE(off.next_expiry().has_value());

  Watchdog w(300);
  EXPECT_FALSE(w.next_expiry().has_value());  // nothing tracked
  w.arm(1, 100);
  w.arm(2, 40);
  EXPECT_EQ(w.next_expiry(), 340u);
  // Progress pushes transfer 2's deadline past transfer 1's.
  EXPECT_FALSE(w.progress(2, 250, 7).has_value());
  EXPECT_EQ(w.next_expiry(), 400u);
  // At exactly that instant transfer 1 stalls; the next expiry is then
  // transfer 2's, and a stalled entry never holds the timer.
  auto stalls = w.expired(400);
  ASSERT_EQ(stalls.size(), 1u);
  EXPECT_EQ(stalls[0].transfer, 1u);
  EXPECT_EQ(w.next_expiry(), 550u);
  ASSERT_EQ(w.expired(550).size(), 1u);
  EXPECT_FALSE(w.next_expiry().has_value());  // everything stalled
  // Resolving a stall re-arms from the resolving progress.
  ASSERT_TRUE(w.progress(1, 900, 8).has_value());
  EXPECT_EQ(w.next_expiry(), 1'200u);
  // Completion stops tracking.
  EXPECT_FALSE(w.complete(1, 950).has_value());
  EXPECT_FALSE(w.next_expiry().has_value());
}

// --- label-cardinality guard ------------------------------------------------

TEST(Metrics, CardinalityGuardDropsPastTheCapAndCountsDrops) {
  MetricsRegistry reg;
  reg.set_max_series_per_family(2);
  Counter a = reg.counter("fam_total", {{"k", "a"}});
  Counter b = reg.counter("fam_total", {{"k", "b"}});
  // Third label set: refused — the handle discards, the drop is counted and
  // the drop counter self-registers as a visible series.
  Counter c = reg.counter("fam_total", {{"k", "c"}});
  a.inc();
  b.inc();
  c.inc(100);
  EXPECT_EQ(reg.dropped_labels(), 1u);
  std::uint64_t fam_sum = 0;
  bool saw_drop_series = false;
  for (const auto& s : reg.scalar_samples()) {
    if (s.name == "fam_total") fam_sum += s.value;
    if (s.name == MetricsRegistry::kDroppedLabelsMetric) {
      saw_drop_series = true;
      EXPECT_EQ(s.value, 1u);
    }
  }
  EXPECT_EQ(fam_sum, 2u);  // the refused series never lands in the family
  EXPECT_TRUE(saw_drop_series);

  // Re-registering a KNOWN label set is not a new series: never refused.
  Counter a2 = reg.counter("fam_total", {{"k", "a"}});
  a2.inc();
  EXPECT_EQ(a.value(), 2u);
  EXPECT_EQ(reg.dropped_labels(), 1u);

  // Other families have their own budget; histograms share the guard.
  (void)reg.counter("other_total", {{"k", "x"}});
  EXPECT_EQ(reg.dropped_labels(), 1u);
  (void)reg.histogram("h_us", {{"k", "1"}}, {10});
  (void)reg.histogram("h_us", {{"k", "2"}}, {10});
  Histogram dropped = reg.histogram("h_us", {{"k", "3"}}, {10});
  dropped.observe(5);  // discard histogram: no crash, not exposed
  EXPECT_EQ(reg.dropped_labels(), 2u);
  EXPECT_EQ(reg.histogram_samples().size(), 2u);
}

TEST(Metrics, CardinalityGuardDefaultAdmitsProtocolScaleFanout) {
  MetricsRegistry reg;
  // The per-node × per-message-type fan-out the servers register is well
  // under the default cap; nothing may be dropped at protocol scale.
  for (int node = 0; node < 16; ++node) {
    for (int type = 0; type < 32; ++type) {
      reg.counter("rx_total", {{"node", std::to_string(node)},
                               {"type", std::to_string(type)}});
    }
  }
  EXPECT_EQ(reg.dropped_labels(), 0u);
}

// --- exact exposition under concurrent observation (PR 9 satellite) ---------
// Prometheus histogram exposition must be internally consistent even while
// writers hammer the cell: cumulative buckets monotone, +Inf bucket == the
// _count line of the SAME scrape, and _sum at least the value implied by
// completed observations. Run under the tsan preset this is the data-race
// proof for scrape-vs-observe; the structural checks below catch torn
// exposition logic on any preset.
TEST(Metrics, HistogramExpositionConsistentMidUpdate) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("mid_us", {}, {10, 100, 1000});
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      std::uint64_t v = static_cast<std::uint64_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        h.observe(v % 2000);
        v += 7;
      }
    });
  }
  for (int scrape = 0; scrape < 200; ++scrape) {
    auto samples = reg.histogram_samples();
    ASSERT_EQ(samples.size(), 1u);
    const auto& s = samples[0];
    // Cumulative form must be monotone; the raw per-bucket counts are
    // non-negative so this reduces to checking the running sum fits count's
    // eventual value. Mid-update, bucket increments may be ahead of or
    // behind the count cell by in-flight observations — bound, don't pin.
    std::uint64_t cumulative = 0;
    for (std::uint64_t b : s.buckets) cumulative += b;
    // Every completed observation put exactly one increment in exactly one
    // bucket; in-flight ones may have bumped a bucket but not count yet
    // (or vice versa: count is bumped last, so count <= sum(buckets) + 4).
    EXPECT_LE(s.count, cumulative + writers.size());
    EXPECT_LE(cumulative, s.count + writers.size());
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : writers) th.join();
  // Quiescent: the invariants become exact, including in the text dump.
  auto samples = reg.histogram_samples();
  std::uint64_t cumulative = 0;
  for (std::uint64_t b : samples[0].buckets) cumulative += b;
  EXPECT_EQ(cumulative, samples[0].count);
  std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("mid_us_bucket{le=\"+Inf\"} " +
                      std::to_string(samples[0].count)),
            std::string::npos);
  EXPECT_NE(text.find("mid_us_count " + std::to_string(samples[0].count)),
            std::string::npos);
}

// --- span DAG on a live run (PR 9 tentpole) ---------------------------------
// Every traced protocol run must yield a causal forest: each nonzero parent
// id names a span that was emitted earlier in the stream (spans are minted
// at record time, so causes always precede effects).
TEST(Trace, SpansFormACausalForest) {
  std::ostringstream out;
  JsonlTraceRecorder rec(out);
  core::SystemOptions o;
  o.a = {4, 1};
  o.b = {4, 1};
  o.seed = 1234;
  o.protocol.trace = &rec;
  core::System sys(std::move(o));
  sys.add_transfer(sys.config().params.encode_message(mpz::Bigint(5)));
  sys.add_transfer(sys.config().params.encode_message(mpz::Bigint(6)));
  EXPECT_TRUE(sys.run_to_completion());

  auto parse_u64 = [](const std::string& line, const std::string& key) {
    std::uint64_t v = 0;
    std::size_t pos = line.find("\"" + key + "\":");
    if (pos == std::string::npos) return v;
    pos += key.size() + 3;
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
      v = v * 10 + static_cast<std::uint64_t>(line[pos++] - '0');
    }
    return v;
  };
  std::istringstream lines(out.str());
  std::string line;
  std::set<std::uint64_t> seen;
  std::size_t linked = 0;
  while (std::getline(lines, line)) {
    std::uint64_t parent = parse_u64(line, "parent");
    if (parent != 0) {
      ++linked;
      EXPECT_TRUE(seen.contains(parent)) << "orphan parent in: " << line;
    }
    std::uint64_t span = parse_u64(line, "span");
    if (span != 0) {
      EXPECT_TRUE(seen.insert(span).second) << "duplicate span in: " << line;
    }
  }
  EXPECT_GT(seen.size(), 0u);
  EXPECT_GT(linked, 0u);  // the DAG is actually linked, not all roots
}

}  // namespace
}  // namespace dblind::obs

// Metrics registry: named counters, gauges and histograms for the Fig. 4
// pipeline, with a Prometheus-style text dump.
//
// Design constraints (see docs/OBSERVABILITY.md):
//   * Zero dependencies: standard library only.
//   * Branch-free hot path when no registry is installed. Counter, Gauge
//     and Histogram are thin handles over an atomic cell; a
//     default-constructed handle points at a process-wide discard cell, so
//     an update is always a single unconditional relaxed atomic op — never
//     an "is a registry installed?" branch. This is what keeps default
//     builds byte-identical in cost to the seed (asserted by the
//     obs-overhead section of bench_fig4_full).
//   * Thread safe: registration takes a mutex; updates are lock-free and
//     safe from concurrent handler threads (net::ThreadedBus; TSan-covered).
//   * No metric value, label or name may carry cryptographic material;
//     lint_crypto.py's trace-hygiene rule enforces this for src/obs/ and
//     for every emit_*/record_* call site.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/sync.hpp"

namespace dblind::obs {

namespace detail {

// Process-wide discard cell backing default-constructed scalar handles.
std::atomic<std::uint64_t>& discard_cell();

// Backing storage for one histogram time series. `bounds` are inclusive
// upper bucket bounds in ascending order; `buckets` has one extra slot for
// the implicit +Inf bucket. There is no separate count cell: the count is the
// bucket sum, read in the same pass as the buckets, so an exposition taken
// mid-update still has _count equal to the le="+Inf" bucket.
struct HistogramCell {
  std::vector<std::uint64_t> bounds;
  std::vector<std::atomic<std::uint64_t>> buckets;
  std::atomic<std::uint64_t> total{0};

  explicit HistogramCell(std::vector<std::uint64_t> b)
      : bounds(std::move(b)), buckets(bounds.size() + 1) {}
};

// Process-wide discard cell backing default-constructed Histogram handles
// (empty bounds: one +Inf bucket, so observe() stays branch-light).
HistogramCell& discard_histogram();

}  // namespace detail

// Monotonically increasing counter handle. Default-constructed handles
// discard updates (into the process-wide cell) without branching.
class Counter {
 public:
  Counter() : cell_(&detail::discard_cell()) {}
  explicit Counter(std::atomic<std::uint64_t>* cell) : cell_(cell) {}

  void inc(std::uint64_t by = 1) const {
    cell_->fetch_add(by, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return cell_->load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t>* cell_;
};

// Last-value gauge handle (same storage model as Counter).
class Gauge {
 public:
  Gauge() : cell_(&detail::discard_cell()) {}
  explicit Gauge(std::atomic<std::uint64_t>* cell) : cell_(cell) {}

  void set(std::uint64_t v) const {
    cell_->store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return cell_->load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t>* cell_;
};

// Histogram handle over fixed integer bucket bounds.
class Histogram {
 public:
  Histogram() : cell_(&detail::discard_histogram()) {}
  explicit Histogram(detail::HistogramCell* cell) : cell_(cell) {}

  void observe(std::uint64_t v) const {
    std::size_t i = 0;
    const std::size_t n = cell_->bounds.size();
    while (i < n && v > cell_->bounds[i]) ++i;
    cell_->buckets[i].fetch_add(1, std::memory_order_relaxed);
    cell_->total.fetch_add(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const auto& b : cell_->buckets) n += b.load(std::memory_order_relaxed);
    return n;
  }
  [[nodiscard]] std::uint64_t total() const {
    return cell_->total.load(std::memory_order_relaxed);
  }

 private:
  detail::HistogramCell* cell_;
};

// Label set attached to one time series, e.g. {{"node", "3"}, {"type",
// "commit"}}. Kept sorted by the registry for a canonical dump order.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

// Owner of all time series for one run. Handles returned by
// counter()/gauge()/histogram() stay valid for the registry's lifetime;
// repeated calls with the same (name, labels) return a handle to the same
// cell, which is what makes metric resolution idempotent across server
// crash/restore cycles.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- label-cardinality guard ----------------------------------------------
  // Upper bound on DISTINCT label sets per metric family (family = metric
  // name). A buggy or adversarial label source (say, a transfer id leaking
  // into a label) would otherwise grow the registry — and every scrape —
  // without bound. Registration past the cap hands back a discard handle and
  // increments `dblind_metrics_dropped_labels_total`, which self-registers on
  // first drop so the loss is visible in every exposition. The default is
  // far above the per-node×per-type fan-out the protocol registers.
  static constexpr std::size_t kDefaultMaxSeriesPerFamily = 1024;
  inline static const std::string kDroppedLabelsMetric =
      "dblind_metrics_dropped_labels_total";
  // 0 = unlimited. Takes effect for future registrations only.
  void set_max_series_per_family(std::size_t cap) EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t dropped_labels() const {
    return dropped_labels_.load(std::memory_order_relaxed);
  }

  Counter counter(const std::string& name, const LabelSet& labels = {}) EXCLUDES(mu_);
  Gauge gauge(const std::string& name, const LabelSet& labels = {}) EXCLUDES(mu_);
  Histogram histogram(const std::string& name, const LabelSet& labels,
                      std::vector<std::uint64_t> bounds) EXCLUDES(mu_);

  // Expose an externally owned cell (e.g. ProtocolServer's retransmit
  // counter or MontgomeryCtx's mul counter) as a read-only time series.
  // The cell must outlive the registry. Idempotent per (name, labels).
  void attach_counter(const std::string& name, const LabelSet& labels,
                      const std::atomic<std::uint64_t>* cell) EXCLUDES(mu_);

  struct ScalarSample {
    std::string name;
    LabelSet labels;
    std::uint64_t value = 0;
    bool is_gauge = false;
  };
  struct HistogramSample {
    std::string name;
    LabelSet labels;
    std::vector<std::uint64_t> bounds;
    std::vector<std::uint64_t> buckets;
    std::uint64_t total = 0;
    std::uint64_t count = 0;
  };

  // Point-in-time snapshots, sorted by (name, labels). Used by the bench
  // harness to extract per-phase breakdowns without parsing text.
  [[nodiscard]] std::vector<ScalarSample> scalar_samples() const EXCLUDES(mu_);
  [[nodiscard]] std::vector<HistogramSample> histogram_samples() const EXCLUDES(mu_);

  // Prometheus text exposition format (sorted, deterministic for a
  // deterministic run under the Simulator).
  [[nodiscard]] std::string prometheus_text() const EXCLUDES(mu_);

 private:
  struct ScalarSeries {
    LabelSet labels;
    std::unique_ptr<std::atomic<std::uint64_t>> owned;
    const std::atomic<std::uint64_t>* cell = nullptr;  // owned.get() or attached
    bool is_gauge = false;
  };
  struct HistogramSeries {
    LabelSet labels;
    std::unique_ptr<detail::HistogramCell> cell;
  };

  using SeriesKey = std::pair<std::string, std::string>;  // (name, label text)

  std::atomic<std::uint64_t>* scalar_cell(const std::string& name,
                                          const LabelSet& labels,
                                          bool is_gauge) EXCLUDES(mu_);
  // Charges one new series to `name`'s family; false (and a drop count) past
  // the cap. The drop counter itself registers outside the cap.
  bool admit_series(const std::string& name) REQUIRES(mu_);

  // mu_ guards series *registration* (the maps). The cells themselves are
  // atomics updated lock-free through handles — see docs/STATIC_ANALYSIS.md
  // for the guarded-vs-atomic policy.
  mutable Mutex mu_;
  std::map<SeriesKey, ScalarSeries> scalars_ GUARDED_BY(mu_);
  std::map<SeriesKey, HistogramSeries> histograms_ GUARDED_BY(mu_);
  // Cardinality guard state. dropped_labels_ is atomic (exposed as an
  // attached series, read lock-free by scrapes); the bookkeeping maps live
  // under mu_ with the registration path they protect.
  std::size_t max_series_per_family_ GUARDED_BY(mu_) = kDefaultMaxSeriesPerFamily;
  std::map<std::string, std::size_t> family_sizes_ GUARDED_BY(mu_);
  bool drop_series_registered_ GUARDED_BY(mu_) = false;
  std::atomic<std::uint64_t> dropped_labels_{0};
};

// Canonical `{k="v",...}` rendering of a label set (empty string for no
// labels); exposed for tests and for the registry's internal keying.
std::string label_text(const LabelSet& labels);

// Samples a source cell at construction and adds the delta to `dst` at
// destruction. Used to attribute group-op counts to a protocol phase:
//   { ScopedCounterDelta d(group.group_op_cell(), per_phase_counter); ... }
class ScopedCounterDelta {
 public:
  ScopedCounterDelta(const std::atomic<std::uint64_t>* src, Counter dst)
      : src_(src), dst_(dst),
        begin_(src != nullptr ? src->load(std::memory_order_relaxed) : 0) {}
  ScopedCounterDelta(const ScopedCounterDelta&) = delete;
  ScopedCounterDelta& operator=(const ScopedCounterDelta&) = delete;
  ~ScopedCounterDelta() {
    if (src_ != nullptr) {
      dst_.inc(src_->load(std::memory_order_relaxed) - begin_);
    }
  }

 private:
  const std::atomic<std::uint64_t>* src_;
  Counter dst_;
  std::uint64_t begin_;
};

}  // namespace dblind::obs

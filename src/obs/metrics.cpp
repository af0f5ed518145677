#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>

namespace dblind::obs {

namespace detail {

std::atomic<std::uint64_t>& discard_cell() {
  static std::atomic<std::uint64_t> cell{0};
  return cell;
}

HistogramCell& discard_histogram() {
  static HistogramCell cell{{}};
  return cell;
}

}  // namespace detail

namespace {

void append_escaped(std::string& out, const std::string& v) {
  for (char c : v) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
}

}  // namespace

std::string label_text(const LabelSet& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += k;
    out += "=\"";
    append_escaped(out, v);
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

void MetricsRegistry::set_max_series_per_family(std::size_t cap) {
  MutexLock lock(mu_);
  max_series_per_family_ = cap;
}

bool MetricsRegistry::admit_series(const std::string& name) {
  std::size_t& n = family_sizes_[name];
  if (max_series_per_family_ == 0 || n < max_series_per_family_) {
    ++n;
    return true;
  }
  dropped_labels_.fetch_add(1, std::memory_order_relaxed);
  if (!drop_series_registered_) {
    // Self-register the drop counter (as an attached read-only series, so
    // writable handles for its name degrade to the discard cell) the first
    // time a label set is refused — every later scrape shows the loss.
    drop_series_registered_ = true;
    ScalarSeries s;
    s.cell = &dropped_labels_;
    scalars_.emplace(SeriesKey{kDroppedLabelsMetric, ""}, std::move(s));
    ++family_sizes_[kDroppedLabelsMetric];
  }
  return false;
}

std::atomic<std::uint64_t>* MetricsRegistry::scalar_cell(
    const std::string& name, const LabelSet& labels, bool is_gauge) {
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  SeriesKey key{name, label_text(sorted)};
  MutexLock lock(mu_);
  auto it = scalars_.find(key);
  if (it == scalars_.end()) {
    if (!admit_series(name)) return &detail::discard_cell();
    ScalarSeries s;
    s.labels = std::move(sorted);
    s.owned = std::make_unique<std::atomic<std::uint64_t>>(0);
    s.cell = s.owned.get();
    s.is_gauge = is_gauge;
    it = scalars_.emplace(std::move(key), std::move(s)).first;
  }
  // An attached series has no owned cell and cannot back a writable handle;
  // hand out the discard cell so the caller's updates stay harmless.
  if (it->second.owned == nullptr) return &detail::discard_cell();
  return it->second.owned.get();
}

Counter MetricsRegistry::counter(const std::string& name,
                                 const LabelSet& labels) {
  return Counter(scalar_cell(name, labels, /*is_gauge=*/false));
}

Gauge MetricsRegistry::gauge(const std::string& name, const LabelSet& labels) {
  return Gauge(scalar_cell(name, labels, /*is_gauge=*/true));
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     const LabelSet& labels,
                                     std::vector<std::uint64_t> bounds) {
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  SeriesKey key{name, label_text(sorted)};
  MutexLock lock(mu_);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    if (!admit_series(name)) return Histogram(&detail::discard_histogram());
    HistogramSeries h;
    h.labels = std::move(sorted);
    h.cell = std::make_unique<detail::HistogramCell>(std::move(bounds));
    it = histograms_.emplace(std::move(key), std::move(h)).first;
  }
  return Histogram(it->second.cell.get());
}

void MetricsRegistry::attach_counter(const std::string& name,
                                     const LabelSet& labels,
                                     const std::atomic<std::uint64_t>* cell) {
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  SeriesKey key{name, label_text(sorted)};
  MutexLock lock(mu_);
  auto it = scalars_.find(key);
  if (it != scalars_.end()) {
    it->second.owned.reset();
    it->second.cell = cell;
    return;
  }
  if (!admit_series(name)) return;  // past the cap: counted, not exposed
  ScalarSeries s;
  s.labels = std::move(sorted);
  s.cell = cell;
  scalars_.emplace(std::move(key), std::move(s));
}

std::vector<MetricsRegistry::ScalarSample> MetricsRegistry::scalar_samples()
    const {
  MutexLock lock(mu_);
  std::vector<ScalarSample> out;
  out.reserve(scalars_.size());
  for (const auto& [key, s] : scalars_) {
    out.push_back({key.first, s.labels,
                   s.cell->load(std::memory_order_relaxed), s.is_gauge});
  }
  return out;
}

std::vector<MetricsRegistry::HistogramSample>
MetricsRegistry::histogram_samples() const {
  MutexLock lock(mu_);
  std::vector<HistogramSample> out;
  out.reserve(histograms_.size());
  for (const auto& [key, h] : histograms_) {
    HistogramSample s;
    s.name = key.first;
    s.labels = h.labels;
    s.bounds = h.cell->bounds;
    s.buckets.reserve(h.cell->buckets.size());
    for (const auto& b : h.cell->buckets) {
      s.buckets.push_back(b.load(std::memory_order_relaxed));
      s.count += s.buckets.back();
    }
    s.total = h.cell->total.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

std::string MetricsRegistry::prometheus_text() const {
  // std::map iteration gives (name, labels) sorted order, so the dump is
  // deterministic for a deterministic run.
  std::ostringstream out;
  MutexLock lock(mu_);
  std::string last_name;
  for (const auto& [key, s] : scalars_) {
    if (key.first != last_name) {
      out << "# TYPE " << key.first << (s.is_gauge ? " gauge" : " counter")
          << "\n";
      last_name = key.first;
    }
    out << key.first << key.second << " "
        << s.cell->load(std::memory_order_relaxed) << "\n";
  }
  last_name.clear();
  for (const auto& [key, h] : histograms_) {
    if (key.first != last_name) {
      out << "# TYPE " << key.first << " histogram\n";
      last_name = key.first;
    }
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.cell->buckets.size(); ++i) {
      cumulative += h.cell->buckets[i].load(std::memory_order_relaxed);
      LabelSet with_le = h.labels;
      with_le.emplace_back("le", i < h.cell->bounds.size()
                                     ? std::to_string(h.cell->bounds[i])
                                     : "+Inf");
      out << key.first << "_bucket" << label_text(with_le) << " " << cumulative
          << "\n";
    }
    out << key.first << "_sum" << key.second << " "
        << h.cell->total.load(std::memory_order_relaxed) << "\n";
    out << key.first << "_count" << key.second << " " << cumulative << "\n";
  }
  return out.str();
}

}  // namespace dblind::obs

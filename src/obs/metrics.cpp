#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace mpsched::obs {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty())
    throw std::invalid_argument("Histogram: bucket bounds must be non-empty");
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    if (!(bounds_[i - 1] < bounds_[i]))
      throw std::invalid_argument("Histogram: bucket bounds must be strictly increasing");
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
}

std::size_t Histogram::bucket_index(double value) const {
  // First bucket whose upper bound admits the value; past the last bound
  // lands in the overflow bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  return static_cast<std::size_t>(it - bounds_.begin());
}

double Histogram::percentile(double p) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the target sample (1-based, rounded up): the classic
  // nearest-rank definition, then linear interpolation across the width
  // of the containing bucket.
  const double rank = std::max(1.0, p / 100.0 * static_cast<double>(total));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    const std::uint64_t in_bucket = bucket(i);
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      if (i == bounds_.size()) return bounds_.back();  // overflow: clamp
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = bounds_[i];
      const double into = (rank - static_cast<double>(cumulative)) /
                          static_cast<double>(in_bucket);
      return lo + (hi - lo) * into;
    }
    cumulative += in_bucket;
  }
  return bounds_.back();
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

std::vector<double> Registry::default_latency_ms_buckets() {
  return {0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000, 10000};
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upper_bounds));
  return *slot;
}

Json Registry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Json doc = Json::object();
  Json counters = Json::object();
  for (const auto& [name, counter] : counters_)
    counters.set(name, Json(static_cast<std::int64_t>(counter->value())));
  doc.set("counters", std::move(counters));
  Json gauges = Json::object();
  for (const auto& [name, gauge] : gauges_)
    gauges.set(name, Json(gauge->value()));
  doc.set("gauges", std::move(gauges));
  Json histograms = Json::object();
  for (const auto& [name, histogram] : histograms_) {
    Json h = Json::object();
    h.set("count", Json(static_cast<std::int64_t>(histogram->count())));
    h.set("sum", Json(histogram->sum()));
    h.set("p50", Json(histogram->percentile(50)));
    h.set("p90", Json(histogram->percentile(90)));
    h.set("p99", Json(histogram->percentile(99)));
    Json buckets = Json::array();
    for (std::size_t i = 0; i <= histogram->bounds().size(); ++i) {
      Json b = Json::object();
      if (i < histogram->bounds().size())
        b.set("le", Json(histogram->bounds()[i]));
      else
        b.set("le", Json("+Inf"));
      b.set("count", Json(static_cast<std::int64_t>(histogram->bucket(i))));
      buckets.push_back(std::move(b));
    }
    h.set("buckets", std::move(buckets));
    histograms.set(name, std::move(h));
  }
  doc.set("histograms", std::move(histograms));
  return doc;
}

namespace {

std::string prometheus_name(const std::string& name) {
  std::string out = "mpsched_";
  for (const char c : name) out.push_back(c == '.' ? '_' : c);
  return out;
}

std::string format_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%g", v);
  return buffer;
}

}  // namespace

std::string Registry::to_prometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string page;
  for (const auto& [name, counter] : counters_) {
    const std::string metric = prometheus_name(name);
    page += "# TYPE " + metric + " counter\n";
    page += metric + " " + std::to_string(counter->value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string metric = prometheus_name(name);
    page += "# TYPE " + metric + " gauge\n";
    page += metric + " " + std::to_string(gauge->value()) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string metric = prometheus_name(name);
    page += "# TYPE " + metric + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i <= histogram->bounds().size(); ++i) {
      cumulative += histogram->bucket(i);
      const std::string le = i < histogram->bounds().size()
                                 ? format_double(histogram->bounds()[i])
                                 : std::string("+Inf");
      page += metric + "_bucket{le=\"" + le + "\"} " + std::to_string(cumulative) + "\n";
    }
    page += metric + "_sum " + format_double(histogram->sum()) + "\n";
    page += metric + "_count " + std::to_string(histogram->count()) + "\n";
  }
  return page;
}

}  // namespace mpsched::obs

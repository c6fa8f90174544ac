// Process-wide, lock-cheap metrics registry: named counters, gauges, and
// fixed-bucket latency histograms with percentile extraction, exported as
// a Prometheus-style text page and as a JSON document.
//
// Hot-path contract: every record call is one relaxed atomic load (the
// runtime enable flag) plus a branch; when recording is on, a handful of
// relaxed atomic increments. No locks, no allocation. Instrument lookup
// (`Registry::counter()` etc.) takes a mutex once — call sites cache the
// returned reference in a function-local static:
//
//   static obs::Counter& hits = obs::Registry::global().counter("cache.mem.hits");
//   hits.add();
//
// The registry is the one place the engine, cache, queue and server count
// their events: Engine::stats() and the serve `stats` op read it (see
// engine/engine.hpp), so `stats` and `metrics` report the same numbers,
// and set_metrics_enabled(false) pauses both.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/json.hpp"

namespace mpsched::obs {

namespace detail {
inline std::atomic<bool> g_metrics_enabled{true};

/// Relaxed add for pre-C++20-fetch_add-on-double toolchains.
inline void atomic_add(std::atomic<double>& target, double delta) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Runtime master switch for metric recording (export always works).
/// Defaults to on; the disabled path costs one relaxed load + branch.
/// While off, nothing is counted, so Engine::stats() stands still too.
inline bool metrics_enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
inline void set_metrics_enabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (metrics_enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time signed level (queue depth, active sessions).
class Gauge {
 public:
  void set(std::int64_t v) {
    if (metrics_enabled()) value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) {
    if (metrics_enabled()) value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Raises the level to `v` if it is below (a high-water mark).
  void set_max(std::int64_t v) {
    if (!metrics_enabled()) return;
    std::int64_t seen = value_.load(std::memory_order_relaxed);
    while (seen < v &&
           !value_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram: strictly increasing upper bounds plus an
/// implicit +Inf overflow bucket. Percentiles interpolate linearly inside
/// the containing bucket (the overflow bucket clamps to the last bound),
/// which is exact enough for latency monitoring and needs no sample
/// retention.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing; throws
  /// std::invalid_argument otherwise.
  explicit Histogram(std::vector<double> upper_bounds);

  void record(double value) { record(value, 1); }
  /// `count` records of one value at the cost of one: the bucket and the
  /// count grow by `count`, the sum by value × count.
  void record(double value, std::uint64_t count) {
    if (!metrics_enabled()) return;
    buckets_[bucket_index(value)].fetch_add(count, std::memory_order_relaxed);
    count_.fetch_add(count, std::memory_order_relaxed);
    detail::atomic_add(sum_, value * static_cast<double>(count));
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket `i`; `i == bounds().size()` is the overflow bucket.
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// p in [0, 100]. Returns 0 on an empty histogram.
  double percentile(double p) const;
  void reset();

 private:
  std::size_t bucket_index(double value) const;

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Name -> instrument registry. One process-wide instance behind
/// `global()`; instruments live for the life of the process, so the
/// references handed out stay valid forever.
class Registry {
 public:
  static Registry& global();

  /// Default latency bucket ladder in milliseconds: 0.05 .. 10000, a
  /// roughly-logarithmic 14-step ladder that covers a cache probe up to
  /// a multi-second dispatch.
  static std::vector<double> default_latency_ms_buckets();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// First registration fixes the bucket bounds; later lookups with the
  /// same name ignore `upper_bounds`.
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds = default_latency_ms_buckets());

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,p50,
  /// p90,p99,buckets:[{le,count}...]}}} — keys name-ordered.
  Json to_json() const;
  /// Prometheus text exposition: metric names are `mpsched_` + the
  /// registered name with dots replaced by underscores.
  std::string to_prometheus() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace mpsched::obs

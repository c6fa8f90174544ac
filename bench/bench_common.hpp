// Shared helpers for the experiment harnesses: uniform headers, the
// paper-vs-measured match column, and the machine-readable perf
// trajectory (bench::JsonReport / the reporting Gate below).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

#include "io/json.hpp"

namespace mpsched::bench {

inline void banner(const std::string& experiment, const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("==============================================================\n");
}

/// "exact" when equal, "+d"/"-d" deltas otherwise.
inline std::string match(long long paper, long long measured) {
  if (paper == measured) return "exact";
  const long long d = measured - paper;
  std::string delta = std::to_string(d);
  if (d > 0) delta.insert(delta.begin(), '+');
  return delta;
}

inline std::string match(double paper, double measured, double tol = 1e-9) {
  if (paper - measured <= tol && measured - paper <= tol) return "exact";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f", measured - paper);
  return buf;
}

/// Machine-readable bench emission: every harness writes one
/// BENCH_<name>.json next to its stdout table so perf wins and
/// regressions leave a committed trajectory between PRs (the committed
/// baselines live in bench/baselines/; tools/bench_report diffs and
/// gates a fresh run against them).
///
/// Cell schema (mpsched.bench/v1):
///   workload  which input produced the value (defaults to the report name)
///   metric    stable identifier of the measured quantity
///   value     the measured number (int cells stay ints)
///   min/max   optional gate bounds; both present and equal = pinned
///             exact, only min = lower-bounded (e.g. a speedup ratio),
///             absent = report-only (e.g. wall times, machine-dependent)
class JsonReport {
 public:
  JsonReport() = default;
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  bool enabled() const { return !name_.empty(); }

  void cell(const std::string& workload, const std::string& metric, Json value,
            std::optional<double> min = std::nullopt,
            std::optional<double> max = std::nullopt) {
    if (!enabled()) return;
    Json c = Json::object();
    c.set("workload", workload.empty() ? Json(name_) : Json(workload));
    c.set("metric", metric);
    c.set("value", std::move(value));
    if (min) c.set("min", *min);
    if (max) c.set("max", *max);
    cells_.push_back(std::move(c));
  }

  /// Writes BENCH_<name>.json into $MPSCHED_BENCH_JSON_DIR (or the
  /// current directory when unset). Returns false on IO failure — the
  /// harness prints a warning but keeps its own verdict authoritative.
  bool write() const {
    if (!enabled()) return true;
    Json doc = Json::object();
    doc.set("schema", "mpsched.bench/v1");
    doc.set("report", name_);
    Json cells = Json::array();
    for (const Json& c : cells_) cells.push_back(c);
    doc.set("cells", std::move(cells));
    std::string dir = ".";
    if (const char* env = std::getenv("MPSCHED_BENCH_JSON_DIR"); env && *env) dir = env;
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    try {
      save_json(doc, path);
    } catch (const std::exception& e) {
      std::printf("WARNING: could not write %s: %s\n", path.c_str(), e.what());
      return false;
    }
    std::printf("wrote %s (%zu cells)\n", path.c_str(), cells_.size());
    return true;
  }

 private:
  std::string name_;
  std::vector<Json> cells_;
};

/// Hard-assertion collector: turns a harness's paper-vs-measured "match"
/// columns into a regression gate. Every check() is an assertion; finish()
/// prints a verdict and yields main()'s exit status, so the `bench-smoke`
/// ctest label fails the moment a reproduced value drifts.
///
/// Constructed with a report name, the gate doubles as the JSON emitter:
/// every assertion also records a bounded cell, info() records
/// report-only cells (timings), and finish() writes BENCH_<name>.json —
/// so "every published value is gated" and "every gated value is in the
/// trajectory" are the same statement.
class Gate {
 public:
  Gate() = default;
  explicit Gate(std::string report_name) : report_(std::move(report_name)) {}

  /// Workload label attached to subsequently recorded cells.
  void workload(std::string w) { workload_ = std::move(w); }

  void check(bool ok, const std::string& what) {
    note(ok, what);
    report_.cell(workload_, what, ok ? 1 : 0, 1.0, 1.0);
  }

  /// Equality assertion with a formatted paper-vs-measured message.
  void check_eq(long long paper, long long measured, const std::string& what) {
    note(paper == measured, what + ": paper=" + std::to_string(paper) +
                                " measured=" + std::to_string(measured));
    report_.cell(workload_, what, static_cast<std::int64_t>(measured),
                 static_cast<double>(paper), static_cast<double>(paper));
  }

  /// Lower-bound assertion (e.g. a pinned minimum speedup ratio).
  void check_min(double bound, double measured, const std::string& what) {
    char buf[64];
    std::snprintf(buf, sizeof buf, ": bound>=%g measured=%g", bound, measured);
    note(measured >= bound, what + buf);
    report_.cell(workload_, what, measured, bound, std::nullopt);
  }

  /// Upper-bound assertion (e.g. a pinned maximum allocation count).
  void check_max(double bound, double measured, const std::string& what) {
    char buf[64];
    std::snprintf(buf, sizeof buf, ": bound<=%g measured=%g", bound, measured);
    note(measured <= bound, what + buf);
    report_.cell(workload_, what, measured, std::nullopt, bound);
  }

  /// Report-only cell: recorded in the JSON trajectory, never asserted
  /// (wall times and other machine-dependent measurements).
  void info(const std::string& metric, double value) {
    report_.cell(workload_, metric, value);
  }
  void info(const std::string& metric, std::int64_t value) {
    report_.cell(workload_, metric, value);
  }

  int failures() const { return failures_; }

  /// Prints the verdict (and writes the JSON report); returns the
  /// process exit code.
  int finish(const std::string& experiment) const {
    report_.write();
    if (failures_ == 0) {
      std::printf("\n[PASS] %s — all %d assertions hold\n", experiment.c_str(), checks_);
      return 0;
    }
    std::printf("\n[FAIL] %s — %d of %d assertions failed\n", experiment.c_str(), failures_,
                checks_);
    return 1;
  }

 private:
  void note(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) {
      ++failures_;
      std::printf("ASSERTION FAILED: %s\n", what.c_str());
    }
  }

  int checks_ = 0;
  int failures_ = 0;
  std::string workload_;
  JsonReport report_;
};

}  // namespace mpsched::bench

// Structured tracing: scoped spans with thread id + steady-clock
// timestamps, collected into a bounded per-process ring buffer
// (drop-oldest) and exported as Chrome `trace_event` JSON — the output
// loads directly in chrome://tracing and Perfetto.
//
// Tracing is off by default; `Span` costs one relaxed atomic load and a
// branch while disabled. Enable with set_tracing_enabled(true) (the
// tools' --trace-out flag does this), run the workload, then
// write_trace(path).
//
// Two recording shapes:
//  * `Span` — RAII, for work framed on the current thread. Spans on one
//    thread nest strictly (constructor/destructor order), which is what
//    the trace-event B/E phase pairs require.
//  * `record_span(...)` — retroactive, for intervals that did NOT run on
//    the calling thread's stack (queue wait time, measured elsewhere and
//    recorded at flush). These may overlap arbitrarily, so the exporter
//    lays them out on synthetic non-overlapping "track" tids instead of
//    the recording thread's tid.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "io/json.hpp"

namespace mpsched::obs {

namespace detail {
inline std::atomic<bool> g_tracing_enabled{false};
}  // namespace detail

inline bool tracing_enabled() {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}
void set_tracing_enabled(bool on);

/// Nanoseconds on the steady clock since the process trace epoch (the
/// first call in the process). Monotonic, never negative.
std::int64_t trace_now_ns();

/// A steady-clock time point on the trace_now_ns() scale, clamped to >= 0
/// for points that predate the epoch. For retroactive spans whose
/// endpoints were captured as time_points (e.g. queue admission stamps):
/// converting the stamp directly preserves nanosecond precision, where a
/// round-trip through a fractional-milliseconds double does not.
std::int64_t trace_ns_of(std::chrono::steady_clock::time_point tp);

/// Records a completed interval that did not run on this thread's stack
/// (e.g. queue wait). The exporter assigns these to synthetic track tids
/// so overlapping intervals never share a track. No-op while tracing is
/// disabled. `name` must be a string literal (stored by pointer).
void record_span(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                 std::string arg = {});

/// RAII span on the current thread. If tracing is disabled at
/// construction nothing is recorded, even if enabled before destruction.
class Span {
 public:
  explicit Span(const char* name, std::string arg = {})
      : name_(name), arg_(std::move(arg)) {
    if (tracing_enabled()) start_ns_ = trace_now_ns();
  }
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::string arg_;
  std::int64_t start_ns_ = -1;
};

/// Ring-buffer capacity in spans (default 65536). Shrinking discards the
/// oldest spans; the capacity floor is 1.
void set_trace_capacity(std::size_t spans);
/// Spans currently held (≤ capacity).
std::size_t trace_span_count();
/// Spans overwritten because the ring was full.
std::uint64_t trace_dropped();
/// Empties the ring and zeroes the dropped counter.
void clear_trace();

/// {"traceEvents":[...],"displayTimeUnit":"ms"} — B/E phase pairs, ts in
/// fractional microseconds, sorted so ts is non-decreasing and every
/// track's B/E events nest. Thread spans keep their recording thread's
/// tid; retroactive spans get synthetic track tids (and a metadata name).
Json trace_to_json();
/// Serializes trace_to_json() to `path`; false on IO failure.
bool write_trace(const std::string& path);

}  // namespace mpsched::obs

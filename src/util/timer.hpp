// Monotonic wall-clock stopwatch used by benchmark harnesses, and the
// calling thread's CPU clock.
#pragma once

#include <time.h>

#include <chrono>

namespace mpsched {

class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  double millis() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// CPU time the calling thread has used, in milliseconds
/// (CLOCK_THREAD_CPUTIME_ID). Unlike wall time it does not grow while the
/// thread waits for a core, so differences measure work, not contention.
inline double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

}  // namespace mpsched

// Observability overhead — the cost of the src/obs layer on the same
// 8-job demo corpus bench_engine_batch runs.
//
// Cold pass: three configurations of one cold-cache engine dispatch:
//   metrics off   runtime kill switch (set_metrics_enabled(false)): every
//                 instrument collapses to one relaxed load + branch
//   metrics on    the shipping default: counters/gauges/histograms live
//   + tracing     metrics plus span capture into the ring buffer
//
// Gate: metrics-enabled CPU time stays within 5% of metrics-disabled CPU
// time (the acceptance criterion for keeping the layer compiled in by
// default). A dispatch's cost is the process CPU time its run_batch uses
// (CLOCK_PROCESS_CPUTIME_ID: the dispatching thread and every pool worker
// it wakes). The metrics hot path is lock-free, so whatever it costs is
// CPU work, while wall time also grows whenever another process takes the
// cores — on a shared host that noise exceeded the 5% bound by itself.
// Wall times are still reported, ungated. A single dispatch takes a few
// ms, so one sample of a configuration is a fixed number of cold
// dispatches (well over 50 ms of work) valued at their median, a pass
// takes one sample of every configuration with the three interleaved
// dispatch by dispatch in an order that rotates every round, and each
// configuration takes its best sample over N passes.
//
// Warm pass: metrics off and on, on one engine warmed with the corpus.
// Every dispatch is then all-hit and runs entirely on the calling thread
// (no pool worker wakes), so that thread's CPU time
// (CLOCK_THREAD_CPUTIME_ID) is the whole dispatch. The cold pass's process
// CPU also counts the pool's parallel enumeration, which dilutes a cost on
// the serial path (instrument calls, the queue, the probe); here nothing
// dilutes it. Gate: metrics-on within 15% of metrics-off, each the best of
// N per-pass medians of interleaved single dispatches.
#include <time.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"
#include "workloads/corpus.hpp"

using namespace mpsched;

namespace {

/// Cold dispatches per sample: the demo corpus takes ~5 ms per dispatch on
/// a 4-vCPU VM, so one configuration's sample spans ~120 ms of dispatches.
constexpr int kDispatchesPerSample = 24;

/// Warm dispatches of each configuration per pass: one takes ~10 µs in
/// Release, so a pass is a few ms of interleaved dispatches.
constexpr int kWarmDispatchesPerPass = 200;

/// CPU time on `clock`, in milliseconds: CLOCK_PROCESS_CPUTIME_ID for every
/// thread of this process, CLOCK_THREAD_CPUTIME_ID for the calling thread.
double cpu_ms(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

struct DispatchCost {
  double cpu_ms = 0.0;
  double wall_ms = 0.0;
};

/// One full cold dispatch: fresh engine (shared pool, empty cache) so
/// every dispatch pays the same enumeration work. Both clocks span the
/// run_batch alone, not the engine's construction or teardown.
DispatchCost cold_dispatch(const std::vector<engine::Job>& jobs) {
  engine::Engine eng;
  const double cpu_start = cpu_ms(CLOCK_PROCESS_CPUTIME_ID);
  const double wall_ms = eng.run_batch(jobs).wall_ms;
  return {cpu_ms(CLOCK_PROCESS_CPUTIME_ID) - cpu_start, wall_ms};
}

double median(std::vector<double> values) {
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

}  // namespace

int main() {
  bench::banner("Observability overhead — 8-job demo corpus",
                "metrics off vs. on vs. on+tracing, process CPU time of 24 cold dispatches "
                "per sample; metrics off vs. on, thread CPU time of warm dispatches");

  std::vector<engine::Job> jobs;
  for (const std::string& spec : workloads::demo_corpus_specs())
    jobs.push_back(engine::Job::from_workload(spec));

  bench::Gate gate("obs_overhead");

  // Warm-up: pool spin-up and page faults hit no contestant.
  cold_dispatch(jobs);

  struct Config {
    bool metrics;
    bool tracing;
  };
  constexpr Config kConfigs[] = {{false, false}, {true, false}, {true, true}};
  constexpr int kPasses = 6;
  double best_cpu_ms[3] = {}, best_wall_ms[3] = {};
  for (int pass = 0; pass < kPasses; ++pass) {
    std::vector<double> cpu_ms[3], wall_ms[3];
    for (int round = 0; round < kDispatchesPerSample; ++round) {
      for (int k = 0; k < 3; ++k) {
        const int c = (pass + round + k) % 3;
        obs::set_metrics_enabled(kConfigs[c].metrics);
        obs::set_tracing_enabled(kConfigs[c].tracing);
        const DispatchCost cost = cold_dispatch(jobs);
        cpu_ms[c].push_back(cost.cpu_ms);
        wall_ms[c].push_back(cost.wall_ms);
      }
    }
    for (int c = 0; c < 3; ++c) {
      const double cpu = median(cpu_ms[c]), wall = median(wall_ms[c]);
      best_cpu_ms[c] = pass == 0 ? cpu : std::min(best_cpu_ms[c], cpu);
      best_wall_ms[c] = pass == 0 ? wall : std::min(best_wall_ms[c], wall);
    }
  }
  obs::set_tracing_enabled(false);
  obs::clear_trace();

  // Warm pass: metrics off (c = 0) and on (c = 1), alternating which runs
  // first every round.
  engine::Engine warm;
  warm.run_batch(jobs);
  double best_warm_us[2] = {};
  for (int pass = 0; pass < kPasses; ++pass) {
    std::vector<double> thread_us[2];
    for (int round = 0; round < kWarmDispatchesPerPass; ++round) {
      for (int k = 0; k < 2; ++k) {
        const int c = (pass + round + k) % 2;
        obs::set_metrics_enabled(c == 1);
        const double start = cpu_ms(CLOCK_THREAD_CPUTIME_ID);
        warm.run_batch(jobs);
        thread_us[c].push_back((cpu_ms(CLOCK_THREAD_CPUTIME_ID) - start) * 1e3);
      }
    }
    for (int c = 0; c < 2; ++c) {
      const double us = median(thread_us[c]);
      best_warm_us[c] = pass == 0 ? us : std::min(best_warm_us[c], us);
    }
  }
  obs::set_metrics_enabled(true);
  const double off_ms = best_cpu_ms[0], on_ms = best_cpu_ms[1];

  TextTable table({"configuration", "cpu ms", "vs. metrics off", "wall ms"});
  const char* const names[] = {"metrics off", "metrics on", "metrics + tracing"};
  for (int c = 0; c < 3; ++c) {
    char cpu[32], delta[32], wall[32];
    std::snprintf(cpu, sizeof cpu, "%.2f", best_cpu_ms[c]);
    std::snprintf(delta, sizeof delta, "%+.1f%%",
                  off_ms > 0 ? 100.0 * (best_cpu_ms[c] - off_ms) / off_ms : 0.0);
    std::snprintf(wall, sizeof wall, "%.2f", best_wall_ms[c]);
    table.add(names[c], cpu, delta, wall);
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("warm dispatch, calling thread CPU: metrics off %.2f us, metrics on %.2f us "
              "(%+.1f%%)\n",
              best_warm_us[0], best_warm_us[1],
              best_warm_us[0] > 0 ? 100.0 * (best_warm_us[1] - best_warm_us[0]) / best_warm_us[0]
                                  : 0.0);

  gate.info("metrics off ms", best_wall_ms[0]);
  gate.info("metrics on ms", best_wall_ms[1]);
  gate.info("metrics+tracing ms", best_wall_ms[2]);
  gate.info("metrics off cpu ms", best_cpu_ms[0]);
  gate.info("metrics on cpu ms", best_cpu_ms[1]);
  gate.info("metrics+tracing cpu ms", best_cpu_ms[2]);
  gate.check(on_ms <= off_ms * 1.05,
             "metrics-enabled overhead is at most 5% of the dark run");
  gate.info("warm metrics off thread cpu us", best_warm_us[0]);
  gate.info("warm metrics on thread cpu us", best_warm_us[1]);
  gate.check(best_warm_us[1] <= best_warm_us[0] * 1.15,
             "warm metrics-enabled overhead is at most 15% of the dark run");

  return gate.finish("observability overhead");
}

// Performance scaling (google-benchmark): the computational kernels —
// antichain enumeration (sequential vs shared-pool parallel), transitive
// closure, pattern selection end-to-end, and the multi-pattern scheduler —
// across graph sizes.
//
// main() additionally pins the enumeration kernel's speedup over the
// reference (copy-a-bitset-per-node) enumerator, single shard, with
// byte-identical analysis output: ≥2× on the Fig. 5 span workload and ≥4×
// on fir(20) at the engine defaults — and writes the BENCH_perf_scaling.json
// trajectory cells for them.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_common.hpp"
#include "antichain/analytic.hpp"
#include "antichain/enumerate.hpp"
#include "core/mp_schedule.hpp"
#include "core/select.hpp"
#include "graph/closure.hpp"
#include "pattern/random.hpp"
#include "util/timer.hpp"
#include "workloads/corpus.hpp"
#include "workloads/dft.hpp"
#include "workloads/paper_graphs.hpp"
#include "workloads/random_dag.hpp"

namespace {

using namespace mpsched;

Dfg sized_dag(std::int64_t nodes_hint) {
  workloads::LayeredDagOptions options;
  options.layers = static_cast<std::size_t>(std::max<std::int64_t>(3, nodes_hint / 8));
  options.min_width = 6;
  options.max_width = 10;
  options.edge_probability = 0.3;
  return workloads::random_layered_dag(12345, options);
}

void BM_TransitiveClosure(benchmark::State& state) {
  const Dfg g = sized_dag(state.range(0));
  for (auto _ : state) {
    Reachability reach(g);
    benchmark::DoNotOptimize(reach.comparable_pair_count());
  }
  state.SetLabel(std::to_string(g.node_count()) + " nodes");
}
BENCHMARK(BM_TransitiveClosure)->Arg(64)->Arg(128)->Arg(256);

void BM_AntichainEnumeration(benchmark::State& state) {
  const Dfg g = sized_dag(state.range(0));
  const Levels lv = compute_levels(g);
  const Reachability reach(g);
  EnumerateOptions options;
  options.max_size = 5;
  options.span_limit = 1;  // library default
  options.parallel = state.range(1) != 0;
  std::uint64_t total = 0;
  for (auto _ : state) {
    const AntichainAnalysis analysis = enumerate_antichains(g, lv, reach, options);
    total = analysis.total;
    benchmark::DoNotOptimize(analysis.per_pattern.size());
  }
  state.SetLabel(std::to_string(g.node_count()) + " nodes, " + std::to_string(total) +
                 " antichains, " + (options.parallel ? "parallel" : "serial"));
  state.SetItemsProcessed(static_cast<std::int64_t>(total) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AntichainEnumeration)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Unit(benchmark::kMillisecond);

void BM_PatternSelection(benchmark::State& state) {
  const Dfg g = sized_dag(state.range(0));
  SelectOptions options;
  options.pattern_count = 4;
  options.capacity = 5;
  for (auto _ : state) {
    const SelectionResult sel = select_patterns(g, options);
    benchmark::DoNotOptimize(sel.patterns.size());
  }
  state.SetLabel(std::to_string(g.node_count()) + " nodes");
  state.SetComplexityN(static_cast<std::int64_t>(g.node_count()));
}
BENCHMARK(BM_PatternSelection)->Arg(48)->Arg(96)->Arg(192)->Unit(benchmark::kMillisecond);

void BM_MultiPatternSchedule(benchmark::State& state) {
  const Dfg g = sized_dag(state.range(0));
  SelectOptions so;
  so.pattern_count = 4;
  so.capacity = 5;
  const SelectionResult sel = select_patterns(g, so);
  for (auto _ : state) {
    const MpScheduleResult r = multi_pattern_schedule(g, sel.patterns);
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetLabel(std::to_string(g.node_count()) + " nodes");
}
BENCHMARK(BM_MultiPatternSchedule)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_AnalyticGeneration(benchmark::State& state) {
  const Dfg g = workloads::radix2_fft(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const AntichainAnalysis analysis = analytic_level_analysis(g, 5);
    benchmark::DoNotOptimize(analysis.per_pattern.size());
  }
  state.SetLabel("fft" + std::to_string(state.range(0)) + ": " +
                 std::to_string(g.node_count()) + " nodes");
}
BENCHMARK(BM_AnalyticGeneration)->Arg(16)->Arg(64)->Arg(256);

void BM_ScheduleFft(benchmark::State& state) {
  const Dfg g = workloads::radix2_fft(static_cast<std::size_t>(state.range(0)));
  SelectOptions so;
  so.pattern_count = 4;
  so.capacity = 5;
  // Enumerative generation is intractable on wide FFTs; scheduler scaling
  // is what this benchmark measures, so use the analytic generator.
  so.generation = PatternGeneration::LevelAnalytic;
  const SelectionResult sel = select_patterns(g, so);
  for (auto _ : state) {
    const MpScheduleResult r = multi_pattern_schedule(g, sel.patterns);
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetLabel("fft" + std::to_string(state.range(0)) + ": " +
                 std::to_string(g.node_count()) + " nodes");
}
BENCHMARK(BM_ScheduleFft)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

/// True when the two analyses are field-by-field identical (the same
/// contract test_util's expect_analysis_identical asserts in gtest).
bool analyses_identical(const AntichainAnalysis& a, const AntichainAnalysis& b) {
  if (a.total != b.total || a.count_by_size_span != b.count_by_size_span ||
      a.per_pattern.size() != b.per_pattern.size())
    return false;
  for (std::size_t i = 0; i < a.per_pattern.size(); ++i) {
    const PatternAntichains& x = a.per_pattern[i];
    const PatternAntichains& y = b.per_pattern[i];
    if (!(x.pattern == y.pattern) || x.antichain_count != y.antichain_count ||
        x.node_frequency != y.node_frequency || x.members != y.members)
      return false;
  }
  return true;
}

/// Best-of-reps wall time of `fn`, with enough inner iterations per rep to
/// dominate clock noise. Minimum (not mean) so co-scheduled load only ever
/// inflates, never deflates, a measurement.
template <typename Fn>
double best_seconds(Fn&& fn, int iterations, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    mpsched::Timer timer;
    for (int i = 0; i < iterations; ++i) fn();
    best = std::min(best, timer.seconds() / iterations);
  }
  return best;
}

/// One pinned kernel-vs-reference cell, single shard (parallel off):
/// byte-identity with member lists and without them (the configuration
/// timed below, where the leaf level counts word-parallel; member lists
/// take its per-leaf path), the antichain population, and a best-of-5
/// speedup of at least `min_speedup`.
void pin_speedup(bench::Gate& gate, const Dfg& g, EnumerateOptions options,
                 const std::string& population_metric, long long population,
                 double min_speedup) {
  const Levels lv = compute_levels(g);
  const Reachability reach(g);
  options.parallel = false;

  // Byte-identity first: the representation change must be invisible in
  // the analysis (member lists included).
  {
    EnumerateOptions with_members = options;
    with_members.collect_members = true;
    const AntichainAnalysis ref = enumerate_antichains_reference(g, lv, reach, with_members);
    const AntichainAnalysis arena = enumerate_antichains(g, lv, reach, with_members);
    gate.check(analyses_identical(ref, arena),
               "arena enumerator byte-identical to reference (collect_members)");
    gate.check_eq(population, static_cast<long long>(arena.total), population_metric);
  }
  gate.check(analyses_identical(enumerate_antichains_reference(g, lv, reach, options),
                                enumerate_antichains(g, lv, reach, options)),
             "arena enumerator byte-identical to reference (members off)");

  // Calibrate the inner iteration count off the reference walk so one rep
  // lasts ~50ms on any build type (Release and ASan/Debug legs both time
  // meaningfully), then take best-of-5 for both kernels.
  mpsched::Timer calibrate;
  (void)enumerate_antichains_reference(g, lv, reach, options);
  const double once = std::max(calibrate.seconds(), 1e-6);
  const int iterations = std::clamp(static_cast<int>(0.05 / once), 1, 200);

  const double ref_s = best_seconds(
      [&] { benchmark::DoNotOptimize(enumerate_antichains_reference(g, lv, reach, options)); },
      iterations, 5);
  const double arena_s = best_seconds(
      [&] { benchmark::DoNotOptimize(enumerate_antichains(g, lv, reach, options)); },
      iterations, 5);
  const double speedup = ref_s / arena_s;

  std::printf("\n%s, single shard: reference %.3f ms, kernel %.3f ms, speedup %.2fx\n",
              population_metric.c_str(), ref_s * 1e3, arena_s * 1e3, speedup);
  gate.info("reference enumerate ms", ref_s * 1e3);
  gate.info("arena enumerate ms", arena_s * 1e3);
  gate.check_min(min_speedup, speedup, "single-shard enumeration speedup (arena vs reference)");
}

/// The pinned kernel-vs-reference enumeration gates. The Fig. 5 span
/// workload (3DFT, max_size 4 — the population Theorem 1 is checked over)
/// is leaf-light; fir(20) at the engine defaults (C=5, span limit 1) is
/// leaf-heavy; fft(16) at C=3, span 1 (188 nodes, three mask words, 97%
/// leaves, ~37 per prefix) is where the word-parallel leaf level shows.
int run_enumeration_speedup_gate() {
  bench::Gate gate("perf_scaling");

  gate.workload("fig5-span-3dft");
  EnumerateOptions fig5;
  fig5.max_size = 4;
  pin_speedup(gate, workloads::paper_3dft(), fig5, "fig5 span workload antichain population",
              3808, 2.0);

  gate.workload("fir20-engine-defaults");
  EnumerateOptions defaults;
  defaults.max_size = 5;
  defaults.span_limit = 1;
  pin_speedup(gate, workloads::make_workload("fir(20)"), defaults,
              "fir(20) antichain population", 113244, 4.0);

  gate.workload("fft16-c3-span1");
  EnumerateOptions fft16;
  fft16.max_size = 3;
  fft16.span_limit = 1;
  pin_speedup(gate, workloads::make_workload("fft(16)"), fft16,
              "fft(16) antichain population", 460938, 12.0);

  return gate.finish("perf scaling (enumerator identity + pinned speedups)");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_enumeration_speedup_gate();
}

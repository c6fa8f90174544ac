// Cross-module integration properties: the full selection → scheduling →
// allocation → execution chain over a workload matrix, and the paper's
// headline claims as assertions (selected patterns beat random ones on
// average; more patterns never hurt much).
#include <gtest/gtest.h>

#include "core/mp_schedule.hpp"
#include "core/select.hpp"
#include "graph/levels.hpp"
#include "montium/execute.hpp"
#include "test_util.hpp"
#include "workloads/dft.hpp"
#include "workloads/kernels.hpp"
#include "workloads/paper_graphs.hpp"

namespace mpsched {
namespace {

struct WorkloadCase {
  std::string name;
  Dfg dfg;
};

std::vector<WorkloadCase> workload_matrix() {
  std::vector<WorkloadCase> cases;
  cases.push_back({"paper3dft", workloads::paper_3dft()});
  cases.push_back({"w3dft", workloads::winograd_dft3()});
  cases.push_back({"w5dft", workloads::winograd_dft5()});
  cases.push_back({"fft8", workloads::radix2_fft(8)});
  cases.push_back({"fir12", workloads::fir_filter(12)});
  cases.push_back({"dct8", workloads::dct8()});
  cases.push_back({"iir3", workloads::iir_biquad_cascade(3)});
  cases.push_back({"matmul3", workloads::matmul(3)});
  return cases;
}

TEST(IntegrationTest, FullChainSucceedsOnWorkloadMatrix) {
  engine::Engine eng;
  for (const auto& wc : workload_matrix()) {
    for (const std::size_t pdef : {2u, 4u}) {
      const test::Checked c = test::run_checked(eng, test::flow_job(wc.dfg, pdef));
      ASSERT_TRUE(c.ok()) << wc.name << " Pdef=" << pdef << ": " << c.why();
      EXPECT_EQ(c.check.execution.operations, wc.dfg.node_count()) << wc.name;
      const Levels lv = compute_levels(wc.dfg);
      EXPECT_GE(c.result.cycles, static_cast<std::size_t>(lv.critical_path_length()))
          << wc.name;
    }
  }
}

// The paper's Table 7 headline: selected patterns lead to schedules at
// least as good as random ones on average. Near-serial workloads (e.g.
// the IIR cascade) leave little room for selection, so individual
// workloads get one cycle of slack and the aggregate must win strictly.
TEST(IntegrationTest, SelectedPatternsBeatRandomOnAverage) {
  double total_selected = 0;
  double total_random = 0;
  for (const auto& wc : workload_matrix()) {
    for (const std::size_t pdef : {2u, 3u}) {
      SelectOptions so;
      so.pattern_count = pdef;
      so.capacity = 5;
      const SelectionResult sel = select_patterns(wc.dfg, so);
      const MpScheduleResult selected = multi_pattern_schedule(wc.dfg, sel.patterns);
      ASSERT_TRUE(selected.success) << wc.name;

      Rng rng(4242);
      double random_total = 0;
      const int trials = 10;
      for (int t = 0; t < trials; ++t) {
        const PatternSet random_set = test::random_patterns(wc.dfg, rng, pdef);
        const MpScheduleResult r = multi_pattern_schedule(wc.dfg, random_set);
        ASSERT_TRUE(r.success) << wc.name;
        random_total += static_cast<double>(r.cycles);
      }
      const double random_avg = random_total / trials;
      EXPECT_LE(static_cast<double>(selected.cycles), random_avg + 1.0)
          << wc.name << " Pdef=" << pdef;
      total_selected += static_cast<double>(selected.cycles);
      total_random += random_avg;
    }
  }
  EXPECT_LT(total_selected, total_random);
}

// Paper observation 1: "As more patterns are allowed the number of needed
// clock cycles gets smaller" — allow slack of one cycle for heuristic noise.
TEST(IntegrationTest, MorePatternsNeverHurtMuch) {
  for (const auto& wc : workload_matrix()) {
    std::size_t previous = wc.dfg.node_count() + 1;  // any schedule beats this
    for (std::size_t pdef = 1; pdef <= 5; ++pdef) {
      SelectOptions so;
      so.pattern_count = pdef;
      so.capacity = 5;
      const SelectionResult sel = select_patterns(wc.dfg, so);
      const MpScheduleResult r = multi_pattern_schedule(wc.dfg, sel.patterns);
      ASSERT_TRUE(r.success) << wc.name;
      EXPECT_LE(r.cycles, previous + 1) << wc.name << " Pdef=" << pdef;
      previous = std::min(previous, r.cycles);
    }
  }
}

// Equivalent DFGs loaded through IO behave identically end to end: two
// engines, each solving from scratch.
TEST(IntegrationTest, ScheduleLengthsAreReproducible) {
  const engine::Job job = test::flow_job(workloads::winograd_dft5(), 3);
  engine::Engine first, second;
  const test::Checked r1 = test::run_checked(first, job);
  const test::Checked r2 = test::run_checked(second, job);
  ASSERT_TRUE(r1.ok() && r2.ok()) << r1.why() << r2.why();
  EXPECT_EQ(r1.result.cycles, r2.result.cycles);
  EXPECT_EQ(r1.check.allocation.reconfigurations, r2.check.allocation.reconfigurations);
  EXPECT_EQ(r1.check.execution.energy, r2.check.execution.energy);
}

// Montium hard limit: selections with Pdef up to 32 all fit the store.
TEST(IntegrationTest, SelectionRespectsConfigStore) {
  const Dfg g = workloads::radix2_fft(16);
  SelectOptions so;
  so.pattern_count = 8;
  so.capacity = 5;
  // Wide FFT levels make enumerative generation expensive; this is the
  // analytic generator's home turf.
  so.generation = PatternGeneration::LevelAnalytic;
  const SelectionResult sel = select_patterns(g, so);
  TileConfig tile;
  EXPECT_TRUE(validate_for_tile(sel.patterns, tile).ok);
}

class RandomChainIntegrationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomChainIntegrationTest, CompileRandomGraphs) {
  engine::Engine eng;
  const test::Checked c =
      test::run_checked(eng, test::flow_job(test::random_dag(GetParam()), 3));
  ASSERT_TRUE(c.ok()) << c.why();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChainIntegrationTest,
                         ::testing::Values(1001, 2002, 3003, 4004));

}  // namespace
}  // namespace mpsched

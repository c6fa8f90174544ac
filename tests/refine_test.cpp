// Pattern-set refinement and the exhaustive selection oracle.
#include <gtest/gtest.h>

#include <string>

#include "antichain/enumerate.hpp"
#include "core/exhaustive.hpp"
#include "core/refine.hpp"
#include "core/select.hpp"
#include "pattern/parse.hpp"
#include "test_util.hpp"
#include "workloads/dft.hpp"
#include "workloads/paper_graphs.hpp"

namespace mpsched {
namespace {

TEST(RefineTest, NeverWorseThanInitial) {
  const Dfg g = workloads::paper_3dft();
  for (std::size_t pdef = 1; pdef <= 4; ++pdef) {
    SelectOptions so;
    so.pattern_count = pdef;
    so.capacity = 5;
    const RefineResult r = select_and_refine(g, so);
    EXPECT_LE(r.refined_cycles, r.initial_cycles) << "Pdef=" << pdef;
    EXPECT_GE(r.evaluations, 1u);
    const MpScheduleResult check = multi_pattern_schedule(g, r.patterns);
    ASSERT_TRUE(check.success);
    EXPECT_EQ(check.cycles, r.refined_cycles);
  }
}

TEST(RefineTest, ImprovesDeliberatelyBadStart) {
  const Dfg g = workloads::paper_3dft();
  // A wasteful but covering start: heavy on subtractions the graph barely
  // needs (it has only 4 'b' nodes).
  const PatternSet bad = parse_pattern_set(g, "bbbbc bbbba");
  EnumerateOptions eo;
  eo.max_size = 5;
  eo.span_limit = 1;
  const AntichainAnalysis analysis = enumerate_antichains(g, eo);
  const RefineResult r = refine_pattern_set(g, analysis, bad);
  EXPECT_LT(r.refined_cycles, r.initial_cycles);
  EXPECT_GT(r.swaps_accepted, 0u);
}

TEST(RefineTest, CoverageInvariantMaintained) {
  const Dfg g = workloads::winograd_dft5();
  SelectOptions so;
  so.pattern_count = 3;
  so.capacity = 5;
  const RefineResult r = select_and_refine(g, so);
  EXPECT_TRUE(r.patterns.covers({0, 1, 2}));
}

TEST(RefineTest, EmptyInitialThrows) {
  const Dfg g = workloads::paper_3dft();
  const AntichainAnalysis analysis = enumerate_antichains(g, {});
  EXPECT_THROW(refine_pattern_set(g, analysis, PatternSet{}), std::invalid_argument);
}

TEST(ExhaustiveTest, FindsKnownOptimumOnSmallExample) {
  const Dfg g = workloads::small_example();
  ExhaustiveOptions o;
  o.capacity = 2;
  o.pattern_count = 2;
  const ExhaustiveResult r = exhaustive_pattern_search(g, o);
  // {aa},{bb} schedules a1,a3 | a2 | b4,b5 → 3 cycles; nothing beats the
  // critical path of 3.
  EXPECT_EQ(r.cycles, 3u);
  EXPECT_GT(r.sets_evaluated, 0u);
}

TEST(ExhaustiveTest, HeuristicSelectionMatchesOracleOn3Dft) {
  const Dfg g = workloads::paper_3dft();
  for (const std::size_t pdef : {1u, 2u}) {
    ExhaustiveOptions o;
    o.capacity = 5;
    o.pattern_count = pdef;
    const ExhaustiveResult oracle = exhaustive_pattern_search(g, o);

    SelectOptions so;
    so.pattern_count = pdef;
    so.capacity = 5;
    const SelectionResult sel = select_patterns(g, so);
    const MpScheduleResult heuristic = multi_pattern_schedule(g, sel.patterns);
    ASSERT_TRUE(heuristic.success);

    EXPECT_LE(oracle.cycles, heuristic.cycles) << "Pdef=" << pdef;
    // The paper's Table 7 values (8 and 7) should be at or near the best
    // any pattern choice can achieve.
    EXPECT_GE(heuristic.cycles, oracle.cycles);
    EXPECT_LE(heuristic.cycles - oracle.cycles, 1u) << "Pdef=" << pdef;
  }
}

TEST(ExhaustiveTest, RefinementNarrowsTheOracleGap) {
  const Dfg g = workloads::paper_3dft();
  ExhaustiveOptions o;
  o.capacity = 5;
  o.pattern_count = 2;
  const ExhaustiveResult oracle = exhaustive_pattern_search(g, o);

  SelectOptions so;
  so.pattern_count = 2;
  so.capacity = 5;
  RefineOptions ro;
  ro.candidate_pool = 128;
  ro.max_sweeps = 8;
  const RefineResult refined = select_and_refine(g, so, ro);
  // Single-swap local search can stop one cycle short of the global
  // optimum (reaching it can require replacing both patterns at once),
  // but never more on this graph.
  EXPECT_GE(refined.refined_cycles, oracle.cycles);
  EXPECT_LE(refined.refined_cycles, oracle.cycles + 1);
}

TEST(ExhaustiveTest, GuardTripsOnHugeSearch) {
  const Dfg g = workloads::paper_3dft();
  ExhaustiveOptions o;
  o.capacity = 5;
  o.pattern_count = 4;
  o.max_combinations = 10;
  EXPECT_THROW(exhaustive_pattern_search(g, o), std::runtime_error);
}

TEST(ExhaustiveTest, GuardCountsExactlyBeforeBuildingTheUniverse) {
  // Five one-node colors at C = 40: a universe of C(44, 40) = 135,751
  // patterns, whose 4-subsets number C(135751, 4) ≈ 1.4e19. That count
  // fits in 64 bits, but only when each step divides before multiplying.
  Dfg g("five_colors");
  for (const char* color : {"a", "b", "c", "d", "e"}) g.add_node(color);
  ExhaustiveOptions o;
  o.capacity = 40;
  o.pattern_count = 4;
  const std::string sets = test::thrown_message([&] { exhaustive_pattern_search(g, o); });
  EXPECT_NE(sets.find("would evaluate 14149520177771237875 pattern sets (limit 2000000)"),
            std::string::npos)
      << sets;

  // The universe is counted against the same limit: C(9, 5) = 126 patterns.
  o.capacity = 5;
  o.pattern_count = 1;
  o.max_combinations = 125;
  const std::string patterns = test::thrown_message([&] { exhaustive_pattern_search(g, o); });
  EXPECT_NE(patterns.find("would build 126 patterns (limit 125)"), std::string::npos)
      << patterns;
}

TEST(ExhaustiveTest, CapacityIsBoundedLikeTheEnumeration) {
  const Dfg g = workloads::small_example();
  ExhaustiveOptions o;
  o.capacity = kMaxAntichainSize + 1;
  EXPECT_THROW(exhaustive_pattern_search(g, o), std::invalid_argument);
}

TEST(ExhaustiveTest, CoverageImpossibleThrows) {
  const Dfg g = workloads::paper_3dft();  // 3 colors
  ExhaustiveOptions o;
  o.capacity = 1;  // single-slot patterns
  o.pattern_count = 2;  // 2 slots < 3 colors
  EXPECT_THROW(exhaustive_pattern_search(g, o), std::runtime_error);
}

}  // namespace
}  // namespace mpsched

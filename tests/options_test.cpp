// Coverage for option knobs and guards not exercised elsewhere: priority
// parameter overrides, the max_cycles guard, table alignment, and
// selection detail recording.
#include <gtest/gtest.h>

#include "core/mp_schedule.hpp"
#include "core/select.hpp"
#include "pattern/parse.hpp"
#include "workloads/paper_graphs.hpp"

namespace mpsched {
namespace {

TEST(OptionsTest, PriorityParamsOverrideIsUsed) {
  const Dfg g = workloads::paper_3dft();
  const PatternSet patterns = parse_pattern_set(g, "aabcc aaacc");
  MpScheduleOptions options;
  options.priority_params = {.s = 1000, .t = 50};
  const MpScheduleResult r = multi_pattern_schedule(g, patterns, options);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.priority_params.s, 1000);
  EXPECT_EQ(r.priority_params.t, 50);
  EXPECT_TRUE(validate_schedule(g, r.schedule, patterns).ok);
}

TEST(OptionsTest, AutoDerivedParamsAreReported) {
  const Dfg g = workloads::paper_3dft();
  const PatternSet patterns = parse_pattern_set(g, "aabcc aaacc");
  const MpScheduleResult r = multi_pattern_schedule(g, patterns);
  ASSERT_TRUE(r.success);
  // On the reconstruction: max #all_succ = 7 → t = 8;
  // max(t·direct + all) = b6: 8·4 + 6 = 38 → s = 39.
  EXPECT_EQ(r.priority_params.t, 8);
  EXPECT_EQ(r.priority_params.s, 39);
}

TEST(OptionsTest, DegeneratePriorityParamsStillScheduleValidly) {
  // s=t=1 violates Inequality 5 (criteria interfere) but the scheduler
  // must still produce a *valid* schedule, just possibly a longer one.
  const Dfg g = workloads::paper_3dft();
  const PatternSet patterns = parse_pattern_set(g, "aabcc aaacc");
  MpScheduleOptions options;
  options.priority_params = {.s = 1, .t = 1};
  const MpScheduleResult r = multi_pattern_schedule(g, patterns, options);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(validate_schedule(g, r.schedule, patterns).ok);
  EXPECT_GE(r.cycles, 7u);  // can't beat the well-prioritized run
}

TEST(OptionsTest, MaxCyclesGuardTrips) {
  const Dfg g = workloads::paper_3dft();
  const PatternSet patterns = parse_pattern_set(g, "aabcc aaacc");
  MpScheduleOptions options;
  options.max_cycles = 3;  // the schedule needs 7
  EXPECT_THROW(multi_pattern_schedule(g, patterns, options), std::runtime_error);
}

TEST(OptionsTest, SelectionRecordsDetailOnlyWhenAsked) {
  const Dfg g = workloads::small_example();
  SelectOptions base;
  base.pattern_count = 2;
  base.capacity = 2;
  base.span_limit = std::nullopt;
  const SelectionResult quiet = select_patterns(g, base);
  for (const auto& step : quiet.steps) EXPECT_TRUE(step.candidates.empty());
  base.record_details = true;
  const SelectionResult detailed = select_patterns(g, base);
  EXPECT_FALSE(detailed.steps.front().candidates.empty());
}

}  // namespace
}  // namespace mpsched

// Schedule container + validation + induced patterns.
#include <gtest/gtest.h>

#include "pattern/parse.hpp"
#include "sched/schedule.hpp"
#include "workloads/paper_graphs.hpp"

namespace mpsched {
namespace {

Dfg tiny() {
  Dfg g;
  const ColorId a = g.intern_color("a");
  const ColorId b = g.intern_color("b");
  const NodeId x = g.add_node(a, "x");
  const NodeId y = g.add_node(b, "y");
  const NodeId z = g.add_node(a, "z");
  g.add_edge(x, y);
  g.add_edge(y, z);
  return g;
}

TEST(ScheduleTest, PlaceAndQuery) {
  Schedule s(3);
  EXPECT_FALSE(s.is_scheduled(0));
  s.place(0, 2);
  EXPECT_TRUE(s.is_scheduled(0));
  EXPECT_EQ(s.cycle_of(0), 2);
  EXPECT_EQ(s.cycle_count(), 3u);
}

TEST(ScheduleTest, CyclesGroupsAscending) {
  Schedule s(4);
  s.place(3, 0);
  s.place(1, 0);
  s.place(0, 1);
  s.place(2, 1);
  const auto groups = s.cycles();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(groups[1], (std::vector<NodeId>{0, 2}));
}

TEST(ScheduleTest, InvalidPlacementsThrow) {
  Schedule s(2);
  EXPECT_THROW(s.place(5, 0), std::invalid_argument);
  EXPECT_THROW(s.place(0, -1), std::invalid_argument);
}

TEST(ScheduleTest, CyclePatternBookkeeping) {
  Schedule s(2);
  EXPECT_FALSE(s.cycle_pattern(0).has_value());
  s.set_cycle_pattern(0, 1);
  EXPECT_EQ(s.cycle_pattern(0), std::optional<std::size_t>(1));
  EXPECT_FALSE(s.cycle_pattern(7).has_value());
}

TEST(ValidateTest, DetectsUnscheduledNode) {
  const Dfg g = tiny();
  Schedule s(3);
  s.place(0, 0);
  s.place(1, 1);
  const ScheduleValidation v = validate_dependencies(g, s);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.summary().find("unscheduled"), std::string::npos);
}

TEST(ValidateTest, DetectsDependencyViolation) {
  const Dfg g = tiny();
  Schedule s(3);
  s.place(0, 1);
  s.place(1, 1);  // same cycle as its predecessor
  s.place(2, 2);
  const ScheduleValidation v = validate_dependencies(g, s);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.summary().find("dependency"), std::string::npos);
}

TEST(ValidateTest, SizeMismatchFails) {
  const Dfg g = tiny();
  Schedule s(1);
  EXPECT_FALSE(validate_dependencies(g, s).ok);
}

TEST(ValidateTest, AcceptsValidScheduleAgainstPatterns) {
  const Dfg g = tiny();
  PatternSet set;
  set.insert(Pattern({ColorId{0}}));              // "a"
  set.insert(Pattern({ColorId{1}}));              // "b"
  Schedule s(3);
  s.place(0, 0);
  s.place(1, 1);
  s.place(2, 2);
  const ScheduleValidation v = validate_schedule(g, s, set);
  EXPECT_TRUE(v.ok) << v.summary();
}

TEST(ValidateTest, RejectsCycleNotFittingAnyPattern) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  g.add_node(a, "x");
  g.add_node(a, "y");
  PatternSet set;
  set.insert(Pattern({a}));  // one 'a' slot only
  Schedule s(2);
  s.place(0, 0);
  s.place(1, 0);  // two 'a' ops in one cycle
  const ScheduleValidation v = validate_schedule(g, s, set);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.summary().find("fits no pattern"), std::string::npos);
}

TEST(ValidateTest, RecordedPatternIsChecked) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  const ColorId b = g.intern_color("b");
  g.add_node(a, "x");
  PatternSet set;
  set.insert(Pattern({b}));
  set.insert(Pattern({a}));
  Schedule s(1);
  s.place(0, 0);
  s.set_cycle_pattern(0, 0);  // claims the 'b' pattern, but usage is 'a'
  EXPECT_FALSE(validate_schedule(g, s, set).ok);
  s.set_cycle_pattern(0, 1);
  EXPECT_TRUE(validate_schedule(g, s, set).ok);
}

TEST(InducedPatternTest, MatchesCycleColors) {
  const Dfg g = tiny();
  Schedule s(3);
  s.place(0, 0);
  s.place(1, 1);
  s.place(2, 2);
  const PatternSet induced = induced_patterns(g, s);
  EXPECT_EQ(induced.size(), 2u);  // {a} and {b} (cycle 2 repeats {a})
  EXPECT_TRUE(induced.contains(Pattern({ColorId{0}})));
  EXPECT_TRUE(induced.contains(Pattern({ColorId{1}})));
}

}  // namespace
}  // namespace mpsched

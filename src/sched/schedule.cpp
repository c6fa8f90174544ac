#include "sched/schedule.hpp"

#include <algorithm>
#include <sstream>

namespace mpsched {

std::size_t Schedule::cycle_count() const {
  int max_cycle = -1;
  for (const int c : cycle_of_) max_cycle = std::max(max_cycle, c);
  return static_cast<std::size_t>(max_cycle + 1);
}

std::vector<std::vector<NodeId>> Schedule::cycles() const {
  std::vector<std::vector<NodeId>> out(cycle_count());
  for (NodeId n = 0; n < cycle_of_.size(); ++n)
    if (cycle_of_[n] != kUnscheduled) out[static_cast<std::size_t>(cycle_of_[n])].push_back(n);
  return out;
}

void Schedule::set_cycle_pattern(int cycle, std::size_t pattern_index) {
  MPSCHED_REQUIRE(cycle >= 0, "cycle must be non-negative");
  const auto c = static_cast<std::size_t>(cycle);
  if (pattern_of_cycle_.size() <= c) pattern_of_cycle_.resize(c + 1);
  pattern_of_cycle_[c] = pattern_index;
}

std::optional<std::size_t> Schedule::cycle_pattern(int cycle) const {
  MPSCHED_REQUIRE(cycle >= 0, "cycle must be non-negative");
  const auto c = static_cast<std::size_t>(cycle);
  if (c >= pattern_of_cycle_.size()) return std::nullopt;
  return pattern_of_cycle_[c];
}

std::string ScheduleValidation::summary() const {
  if (ok) return "valid";
  std::ostringstream os;
  os << errors.size() << " violation(s):";
  for (const auto& e : errors) os << "\n  - " << e;
  return os.str();
}

ScheduleValidation validate_dependencies(const Dfg& dfg, const Schedule& schedule) {
  ScheduleValidation v;
  if (schedule.node_count() != dfg.node_count()) {
    v.fail("schedule sized for " + std::to_string(schedule.node_count()) + " nodes, graph has " +
           std::to_string(dfg.node_count()));
    return v;
  }
  for (NodeId n = 0; n < dfg.node_count(); ++n) {
    if (!schedule.is_scheduled(n)) {
      v.fail("node '" + dfg.node_name(n) + "' is unscheduled");
      continue;
    }
    for (const NodeId p : dfg.preds(n)) {
      if (schedule.is_scheduled(p) && schedule.cycle_of(p) >= schedule.cycle_of(n)) {
        v.fail("dependency violated: '" + dfg.node_name(p) + "' (cycle " +
               std::to_string(schedule.cycle_of(p)) + ") must precede '" + dfg.node_name(n) +
               "' (cycle " + std::to_string(schedule.cycle_of(n)) + ")");
      }
    }
  }
  return v;
}

Pattern induced_pattern(const Dfg& dfg, const std::vector<NodeId>& cycle_nodes) {
  std::vector<ColorId> colors;
  colors.reserve(cycle_nodes.size());
  for (const NodeId n : cycle_nodes) colors.push_back(dfg.color(n));
  return Pattern(std::move(colors));
}

PatternSet induced_patterns(const Dfg& dfg, const Schedule& schedule) {
  PatternSet set;
  for (const auto& cycle_nodes : schedule.cycles())
    if (!cycle_nodes.empty()) set.insert(induced_pattern(dfg, cycle_nodes));
  return set;
}

ScheduleValidation validate_schedule(const Dfg& dfg, const Schedule& schedule,
                                     const PatternSet& set) {
  ScheduleValidation v = validate_dependencies(dfg, schedule);
  if (!v.ok) return v;

  const auto cycles = schedule.cycles();
  for (std::size_t c = 0; c < cycles.size(); ++c) {
    if (cycles[c].empty()) continue;
    const Pattern used = induced_pattern(dfg, cycles[c]);
    // If the scheduler recorded which pattern it chose, check that one;
    // otherwise any member of the set may justify the cycle.
    if (const auto idx = schedule.cycle_pattern(static_cast<int>(c)); idx.has_value()) {
      if (*idx >= set.size()) {
        v.fail("cycle " + std::to_string(c) + " references pattern #" + std::to_string(*idx) +
               " outside the set");
      } else if (!used.is_subpattern_of(set[*idx])) {
        v.fail("cycle " + std::to_string(c) + " uses " + used.to_string(dfg) +
               " which does not fit recorded pattern " + set[*idx].to_string(dfg));
      }
      continue;
    }
    const bool fits_any = std::any_of(set.begin(), set.end(), [&used](const Pattern& p) {
      return used.is_subpattern_of(p);
    });
    if (!fits_any) {
      v.fail("cycle " + std::to_string(c) + " uses " + used.to_string(dfg) +
             " which fits no pattern in the set {" + set.to_string(dfg) + "}");
    }
  }
  return v;
}

}  // namespace mpsched

// Schedule — an assignment of DFG nodes to clock cycles, plus optional
// per-cycle pattern bookkeeping, with validation against the scheduling
// constraints of paper §4:
//   (1) dependencies: every node runs strictly after all its predecessors,
//   (2) resources: the operations of one cycle fit the pattern chosen for
//       that cycle (per-color slot counts),
//   (3) completeness: every node is placed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/dfg.hpp"
#include "pattern/pattern_set.hpp"

namespace mpsched {

class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(std::size_t n_nodes) : cycle_of_(n_nodes, kUnscheduled) {}

  static constexpr int kUnscheduled = -1;

  std::size_t node_count() const noexcept { return cycle_of_.size(); }

  /// Places node `n` in `cycle` (0-based). Re-placing is allowed (the
  /// force-directed scheduler moves nodes around).
  void place(NodeId n, int cycle) {
    MPSCHED_REQUIRE(n < cycle_of_.size(), "node out of range");
    MPSCHED_REQUIRE(cycle >= 0, "cycle must be non-negative");
    cycle_of_[n] = cycle;
  }

  int cycle_of(NodeId n) const {
    MPSCHED_ASSERT(n < cycle_of_.size());
    return cycle_of_[n];
  }

  bool is_scheduled(NodeId n) const { return cycle_of(n) != kUnscheduled; }

  /// Number of cycles = 1 + the largest used cycle index (0 when empty).
  std::size_t cycle_count() const;

  /// Nodes grouped by cycle, each group in ascending node id.
  std::vector<std::vector<NodeId>> cycles() const;

  /// Records which pattern (index into the run's PatternSet) cycle `c` used.
  void set_cycle_pattern(int cycle, std::size_t pattern_index);
  std::optional<std::size_t> cycle_pattern(int cycle) const;

 private:
  std::vector<int> cycle_of_;
  std::vector<std::optional<std::size_t>> pattern_of_cycle_;
};

struct ScheduleValidation {
  bool ok = true;
  std::vector<std::string> errors;

  void fail(std::string msg) {
    ok = false;
    errors.push_back(std::move(msg));
  }
  std::string summary() const;
};

/// Checks dependency + completeness constraints only (no resource model).
ScheduleValidation validate_dependencies(const Dfg& dfg, const Schedule& schedule);

/// Full validation against a pattern set: dependencies, completeness, and
/// for every cycle the color usage must fit at least one pattern of `set`
/// (or the recorded cycle pattern when present).
ScheduleValidation validate_schedule(const Dfg& dfg, const Schedule& schedule,
                                     const PatternSet& set);

/// The pattern actually induced by one cycle of a schedule: the multiset
/// of colors executing in that cycle.
Pattern induced_pattern(const Dfg& dfg, const std::vector<NodeId>& cycle_nodes);

/// All distinct patterns a schedule uses, in first-use order. Baselines
/// that ignore the pattern-count restriction are measured by how many
/// distinct patterns they would burn on the Montium's 32-entry store.
PatternSet induced_patterns(const Dfg& dfg, const Schedule& schedule);

}  // namespace mpsched

#include "montium/allocate.hpp"

#include "util/hungarian.hpp"

namespace mpsched {

namespace {
/// Sentinel function id for "ALU not configured / idle so far".
constexpr int kNoFunction = -1;
}  // namespace

Allocation allocate_alus(const Dfg& dfg, const Schedule& schedule, const TileConfig& tile) {
  const auto cycles = schedule.cycles();
  Allocation alloc;
  alloc.alu_of.assign(cycles.size(), std::vector<NodeId>(tile.alu_count, kInvalidNode));
  alloc.per_alu_changes.assign(tile.alu_count, 0);

  // Current function (color) each ALU holds; idle ALUs keep theirs.
  std::vector<int> alu_function(tile.alu_count, kNoFunction);

  for (std::size_t c = 0; c < cycles.size(); ++c) {
    const std::vector<NodeId>& ops = cycles[c];
    MPSCHED_CHECK(ops.size() <= tile.alu_count,
                  "cycle " + std::to_string(c) + " holds " + std::to_string(ops.size()) +
                      " operations but the tile has " + std::to_string(tile.alu_count) +
                      " ALUs");

    // Square cost matrix: rows = ops then idle padding, cols = ALUs.
    // Real op: 0 if the ALU already holds its function, else 1.
    // Idle row: 0 everywhere (an idle ALU changes nothing).
    const std::size_t n = tile.alu_count;
    std::vector<std::vector<long long>> cost(n, std::vector<long long>(n, 0));
    for (std::size_t r = 0; r < ops.size(); ++r) {
      const int fn = static_cast<int>(dfg.color(ops[r]));
      for (std::size_t a = 0; a < n; ++a) cost[r][a] = (alu_function[a] == fn) ? 0 : 1;
    }

    const AssignmentResult assignment = solve_assignment(cost);
    for (std::size_t r = 0; r < ops.size(); ++r) {
      const std::size_t a = assignment.assignment[r];
      alloc.alu_of[c][a] = ops[r];
      const int fn = static_cast<int>(dfg.color(ops[r]));
      if (alu_function[a] != fn) {
        alu_function[a] = fn;
        ++alloc.per_alu_changes[a];
        ++alloc.reconfigurations;
      }
    }
  }
  return alloc;
}

}  // namespace mpsched

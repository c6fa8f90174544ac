// Allocation phase (paper §1: the compiler flow's last phase): bind every
// scheduled operation to a concrete ALU.
//
// Correctness only requires that the operations of one cycle occupy
// distinct ALUs. Quality, however, is about *reconfigurations*: an ALU
// that performs the same function in consecutive cycles needs no new
// configuration, so we minimize function changes. Per cycle this is a
// min-cost assignment between operations (plus idle padding) and ALUs,
// where keeping an ALU's previous function costs 0 and switching costs 1;
// solved exactly with the Hungarian algorithm (C×C, tiny).
#pragma once

#include <cstddef>
#include <vector>

#include "graph/dfg.hpp"
#include "montium/tile.hpp"
#include "sched/schedule.hpp"

namespace mpsched {

struct Allocation {
  /// alu_of[cycle][alu] = node executing there, or kInvalidNode (idle).
  std::vector<std::vector<NodeId>> alu_of;
  /// Total ALU function changes across consecutive cycles (first-cycle
  /// configurations included — coming from an unconfigured state).
  std::size_t reconfigurations = 0;
  /// Function changes per ALU.
  std::vector<std::size_t> per_alu_changes;
};

/// Binds a complete, dependency-valid schedule to ALUs. Throws if any
/// cycle holds more operations than the tile has ALUs.
Allocation allocate_alus(const Dfg& dfg, const Schedule& schedule, const TileConfig& tile);

}  // namespace mpsched

// check_result — the one from-scratch check of an engine result against
// the paper's scheduling constraints (§4) and the Montium tile (§1).
//
// Nothing from the engine run is trusted but the JobResult itself: the
// job's transform stack is re-applied to `job.dfg`, the schedule is
// rebuilt from `node_cycles`, and the reported pattern strings are parsed
// against that effective graph. The §4 part — dependencies, completeness,
// every cycle fitting a reported pattern, and `cycles` matching the
// schedule — decides `error`. The tile part then runs the result the way
// the Montium compiler flow's last phase would: each cycle is tagged with
// the first reported pattern that covers it (the configuration-store
// entry it occupies), and the pattern set, ALU allocation and execution
// are checked on a tile with `job.select.capacity` ALUs.
//
// Lives in its own translation unit, so binaries that never check a
// result (mpsched_batch, mpsched_serve) do not link it.
#pragma once

#include <string>

#include "engine/job.hpp"
#include "graph/dfg.hpp"
#include "montium/allocate.hpp"
#include "montium/execute.hpp"

namespace mpsched::engine {

struct ResultCheck {
  /// Empty when the job succeeded and its result is a valid §4 schedule
  /// of the effective graph; otherwise the first failure found (a failed
  /// job, a short `node_cycles`, a dependency, coverage or `cycles`
  /// violation). `allocation` and `execution` are only filled when this
  /// is empty.
  std::string error;
  /// The graph the result indexes: `job.dfg` after `job.transforms`.
  Dfg dfg;
  /// The schedule bound to the tile's ALUs; empty when the tile rejected
  /// the pattern set or a cycle before allocation.
  Allocation allocation;
  /// The tile's verdict. A result that does not fit the tile (a pattern
  /// wider than the ALUs, more patterns than store entries) reads
  /// `ok == false` with the tile's reason here, not in `error`.
  ExecutionStats execution;
};

/// Checks `result` as the outcome of `job`.
ResultCheck check_result(const Job& job, const JobResult& result);

}  // namespace mpsched::engine

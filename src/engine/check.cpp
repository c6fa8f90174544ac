#include "engine/check.hpp"

#include "graph/transform.hpp"
#include "montium/tile.hpp"
#include "pattern/parse.hpp"
#include "sched/schedule.hpp"

namespace mpsched::engine {

ResultCheck check_result(const Job& job, const JobResult& result) {
  ResultCheck check;
  if (!result.success) {
    check.error = "job failed: " + result.error;
    return check;
  }

  // --- §4: dependencies, completeness, pattern fit, schedule length -----
  Schedule schedule;
  PatternSet patterns;
  try {
    check.dfg = apply_transforms(job.transforms, job.dfg);
    const Dfg& dfg = check.dfg;
    if (result.node_cycles.size() != dfg.node_count()) {
      check.error = "node_cycles holds " + std::to_string(result.node_cycles.size()) +
                    " entries; the effective graph has " +
                    std::to_string(dfg.node_count()) + " nodes";
      return check;
    }
    schedule = Schedule(dfg.node_count());
    for (NodeId n = 0; n < dfg.node_count(); ++n)
      if (result.node_cycles[n] >= 0) schedule.place(n, result.node_cycles[n]);
    for (const std::string& p : result.patterns) patterns.insert(parse_pattern(dfg, p));
  } catch (const std::exception& e) {
    check.error = e.what();
    return check;
  }
  const ScheduleValidation v = validate_schedule(check.dfg, schedule, patterns);
  if (!v.ok) {
    check.error = v.summary();
    return check;
  }
  if (schedule.cycle_count() != result.cycles) {
    check.error = "cycles reads " + std::to_string(result.cycles) + "; node_cycles span " +
                  std::to_string(schedule.cycle_count());
    return check;
  }

  // --- Montium tile: store entries, ALU allocation, execution -----------
  const auto cycles = schedule.cycles();
  for (std::size_t c = 0; c < cycles.size(); ++c) {
    const Pattern used = induced_pattern(check.dfg, cycles[c]);
    for (std::size_t i = 0; i < patterns.size(); ++i)
      if (used.is_subpattern_of(patterns[i])) {
        schedule.set_cycle_pattern(static_cast<int>(c), i);
        break;
      }
  }
  TileConfig tile;
  tile.alu_count = job.select.capacity;
  if (const TileValidation tv = validate_for_tile(patterns, tile); !tv.ok) {
    check.execution.error = tv.error;
    return check;
  }
  try {
    check.allocation = allocate_alus(check.dfg, schedule, tile);
  } catch (const std::exception& e) {
    check.execution.error = e.what();
    return check;
  }
  check.execution = execute_on_tile(check.dfg, schedule, check.allocation, tile, &patterns);
  return check;
}

}  // namespace mpsched::engine

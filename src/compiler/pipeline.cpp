#include "compiler/pipeline.hpp"

#include <sstream>

#include "graph/transform.hpp"

namespace mpsched {

CompileReport compile(const Dfg& input, const CompileOptions& options) {
  CompileReport report;

  // --- Phases 1-2: Transformation + Clustering (validate; registry passes)
  try {
    input.validate();
    report.scheduled_dfg = TransformPipeline::from_specs(options.transforms).apply(input);
  } catch (const std::exception& e) {
    report.error = std::string("transformation phase: ") + e.what();
    return report;
  }
  report.nodes = input.node_count();
  const Dfg& dfg = report.scheduled_dfg;

  // --- Phase 3a: Pattern selection --------------------------------------
  if (options.fixed_patterns.has_value()) {
    report.patterns = *options.fixed_patterns;
  } else {
    SelectOptions sel = options.select;
    sel.pattern_count = options.pattern_count;
    sel.capacity = options.tile.alu_count;
    sel.span_limit = options.span_limit;
    report.selection = select_patterns(dfg, sel);
    report.patterns = report.selection.patterns;
  }

  const TileValidation tv = validate_for_tile(report.patterns, options.tile);
  if (!tv.ok) {
    report.error = "scheduling phase: " + tv.error;
    return report;
  }

  // --- Phase 3b: Multi-pattern scheduling --------------------------------
  report.schedule = multi_pattern_schedule(dfg, report.patterns, options.schedule);
  if (!report.schedule.success) {
    report.error = "scheduling phase: " + report.schedule.error;
    return report;
  }

  // --- Phase 4: Allocation + execution on the tile model ----------------
  try {
    report.allocation = allocate_alus(dfg, report.schedule.schedule, options.tile);
  } catch (const std::exception& e) {
    report.error = std::string("allocation phase: ") + e.what();
    return report;
  }
  report.execution = execute_on_tile(dfg, report.schedule.schedule, report.allocation,
                                     options.tile, &report.patterns);
  if (!report.execution.ok) {
    report.error = "execution check: " + report.execution.error;
    return report;
  }

  report.success = true;
  return report;
}

std::string CompileReport::to_string(const Dfg& dfg) const {
  std::ostringstream os;
  os << "compile '" << dfg.name() << "': ";
  if (!success) {
    os << "FAILED — " << error << '\n';
    return os.str();
  }
  os << "OK\n";
  os << "  transformation: " << nodes << " operations in, " << scheduled_dfg.node_count()
     << " after rewrites\n";
  os << "  scheduling:     patterns {" << patterns.to_string(scheduled_dfg) << "} -> "
     << schedule.cycles << " cycles\n";
  os << "  allocation:     " << allocation.reconfigurations << " ALU reconfigurations\n";
  os << "  execution:      " << execution.to_string() << '\n';
  return os.str();
}

}  // namespace mpsched

// The Montium compiler flow the paper situates itself in (§1):
//   Transformation → Clustering → Scheduling → Allocation
//
// This module wires the library's pieces into that end-to-end pipeline:
//   * Transformation + Clustering — graph validation, then the registry
//     passes (graph/transform.hpp) named in CompileOptions::transforms, as
//     a Job names them: `cse` and `rebalance_reductions` are the
//     transformation rewrites, `mac_fusion` clusters a multiply and its
//     add into one ALU operation. With none, the graph is scheduled as
//     given (the paper's ALU-level DFGs are one cluster per operation),
//   * Scheduling — pattern selection (paper §5) followed by multi-pattern
//     list scheduling (paper §4),
//   * Allocation — ALU binding minimizing reconfigurations + execution on
//     the tile model, which re-verifies every hardware constraint.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/mp_schedule.hpp"
#include "core/select.hpp"
#include "montium/execute.hpp"
#include "montium/tile.hpp"

namespace mpsched {

struct CompileOptions {
  TileConfig tile{};
  std::size_t pattern_count = 4;          ///< Pdef
  std::optional<int> span_limit;          ///< antichain span cap (nullopt = off)
  SelectOptions select{};                 ///< ε, α, size bonus, ...
  MpScheduleOptions schedule{};           ///< F-rule, tie-breaks, trace
  /// Use a caller-provided pattern set instead of running selection.
  std::optional<PatternSet> fixed_patterns;
  /// Transformation and clustering passes (graph/transform.hpp registry
  /// names, as in Job::transforms), applied in order. Empty by default:
  /// reproductions schedule the graph as given.
  std::vector<std::string> transforms;
};

struct CompileReport {
  bool success = false;
  std::string error;

  // Phase artifacts. `scheduled_dfg` is the graph the later phases
  // operated on: the input after `transforms` (sharing the input's storage
  // when none ran). Patterns, schedule and allocation index it.
  Dfg scheduled_dfg;
  std::size_t nodes = 0;  ///< operations in the input graph
  SelectionResult selection;     ///< empty when fixed_patterns was given
  PatternSet patterns;           ///< the set actually scheduled with
  MpScheduleResult schedule;
  Allocation allocation;
  ExecutionStats execution;

  std::string to_string(const Dfg& dfg) const;
};

/// Runs the full flow on a DFG.
CompileReport compile(const Dfg& dfg, const CompileOptions& options = {});

}  // namespace mpsched

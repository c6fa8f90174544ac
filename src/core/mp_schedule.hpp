// Multi-pattern list scheduling (paper §4, Fig. 3).
//
// Given Pdef patterns, assign every DFG node to a clock cycle so that
// (1) dependencies hold, (2) each cycle's resource usage fits one of the
// given patterns, (3) the cycle count is minimized (heuristically).
//
// Per cycle the algorithm:
//   * sorts the candidate list CL by node priority f(n) (Eq. 4),
//   * for every pattern p computes the selected set S(p, CL): walk CL in
//     priority order, admitting a node when a slot of its color is free,
//   * scores each pattern with F1 = |S| (Eq. 6) or F2 = Σ f(n) (Eq. 7),
//   * schedules the S of the best pattern, then refreshes CL with newly
//     ready successors.
//
// Tie-breaking (nodes of equal f, patterns of equal F) is configurable;
// the default TieBreak::Stable keeps candidate insertion order (FIFO) and
// prefers the lowest pattern index, which reproduces the paper's Table 2
// trace exactly on the reconstructed 3DFT graph.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/node_priority.hpp"
#include "pattern/pattern_set.hpp"
#include "sched/schedule.hpp"
#include "util/rng.hpp"

namespace mpsched {

/// Pattern priority rule: F1 counts covered nodes (Eq. 6), F2 sums their
/// node priorities (Eq. 7). The paper recommends F2.
enum class PatternRule { F1CoverCount, F2PrioritySum };

/// Node-level tie-breaking among equal f(n).
enum class TieBreak {
  Stable,     ///< FIFO candidate order (paper-faithful; deterministic)
  NodeIdAsc,  ///< lowest node id first
  NodeIdDesc, ///< highest node id first
  Random,     ///< seeded shuffle among ties
};

struct MpScheduleOptions {
  PatternRule rule = PatternRule::F2PrioritySum;
  TieBreak tie_break = TieBreak::Stable;
  /// Seed for TieBreak::Random and for random pattern-F tie resolution.
  std::uint64_t seed = 1;
  /// Break pattern-F ties randomly instead of lowest-index-first (the
  /// paper notes F1 ties were broken "at random"; default is deterministic).
  bool random_pattern_ties = false;
  /// Record the full per-cycle trace (Table 2 reproduction). Costs memory
  /// proportional to cycles × patterns × candidates.
  bool record_trace = false;
  /// Override node priority parameters s,t (0/0 = auto-derive).
  NodePriorityParams priority_params{};
  /// Abort guard for malformed inputs.
  std::size_t max_cycles = 1'000'000;

  /// Member-wise (part of the engine's solved-result key).
  bool operator==(const MpScheduleOptions&) const = default;
};

/// One cycle of the recorded trace.
struct MpTraceStep {
  int cycle = 0;  ///< 1-based, matching Table 2
  std::vector<NodeId> candidates;                  ///< CL in priority order
  std::vector<std::vector<NodeId>> selected;       ///< S(p_i, CL) per pattern
  std::vector<std::int64_t> pattern_score;         ///< F per pattern
  std::size_t chosen_pattern = 0;                  ///< index into the set
};

struct MpScheduleResult {
  bool success = false;
  std::string error;                    ///< set when !success
  Schedule schedule;
  std::size_t cycles = 0;
  std::vector<MpTraceStep> trace;       ///< only when record_trace
  NodePriorityParams priority_params;   ///< the s,t actually used

  /// Formats the trace like the paper's Table 2.
  std::string trace_table(const Dfg& dfg, const PatternSet& patterns) const;
};

/// Runs the scheduler. Fails (success=false) when the pattern union does
/// not cover every color appearing in the graph — such inputs can never
/// schedule completely.
MpScheduleResult multi_pattern_schedule(const Dfg& dfg, const PatternSet& patterns,
                                        const MpScheduleOptions& options = {});

}  // namespace mpsched

// Pattern-set refinement — the paper's future work made concrete (§7:
// "further improvement ... by just modifying the priority function"; we go
// one step further and close the loop with the scheduler).
//
// The greedy selection of §5.2 optimizes a *proxy* (antichain coverage);
// the quantity that matters is the multi-pattern schedule length. This
// local search starts from the greedy set and tries swaps: replace one
// selected pattern with a candidate from the generation pool, keep the
// swap when the actual schedule shortens (ties broken toward richer color
// coverage). Coverage of all DFG colors is maintained as a hard
// constraint, so every intermediate set stays schedulable.
#pragma once

#include <cstdint>

#include "antichain/enumerate.hpp"
#include "core/mp_schedule.hpp"
#include "core/select.hpp"

namespace mpsched {

struct RefineOptions {
  /// Candidate pool: the top-k patterns by antichain count (plus the
  /// greedy set itself). Keeps each sweep cheap on big pattern spaces.
  std::size_t candidate_pool = 32;
  /// Full sweeps over (slot × candidate) pairs without improvement before
  /// stopping.
  std::size_t max_sweeps = 4;
  /// Scheduler settings used for evaluation.
  MpScheduleOptions schedule{};

  /// Member-wise (part of the engine's solved-result key).
  bool operator==(const RefineOptions&) const = default;
};

struct RefineResult {
  PatternSet patterns;          ///< refined set
  std::size_t initial_cycles = 0;
  std::size_t refined_cycles = 0;
  std::size_t swaps_accepted = 0;
  std::size_t evaluations = 0;  ///< scheduler invocations spent
};

/// Refines `initial` (typically SelectionResult::patterns) against the
/// candidate pool drawn from `analysis`. The result is never worse than
/// the initial set (measured by schedule length).
RefineResult refine_pattern_set(const Dfg& dfg, const AntichainAnalysis& analysis,
                                const PatternSet& initial,
                                const RefineOptions& options = {});

/// Convenience: greedy selection followed by refinement.
RefineResult select_and_refine(const Dfg& dfg, const SelectOptions& select_options,
                               const RefineOptions& refine_options = {});

}  // namespace mpsched

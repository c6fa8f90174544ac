// Pattern selection — the paper's contribution (§5.2, Figs. 6 & 7).
//
// Chooses Pdef patterns for the multi-pattern scheduler:
//   1. Enumerate the DFG's antichains (size ≤ C, span-limited) and classify
//      them by pattern; per pattern p̄ record node frequencies h(p̄, n).
//   2. Greedily pick patterns by the balance-aware priority (Eq. 8):
//
//          f(p̄j) = Σ_n  h(p̄j, n) / ( Σ_{p̄i ∈ Ps} h(p̄i, n) + ε )  +  α·|p̄j|²
//
//      The denominator discounts nodes that already-selected patterns can
//      cover many ways, balancing flexibility across all nodes; the α·|p̄|²
//      term prefers larger patterns (more parallelism per cycle).
//   3. The *color number condition* (Ineq. 9) zeroes the priority of any
//      candidate that would leave more uncovered colors than the remaining
//      picks can absorb; if every candidate is zeroed, a pattern is
//      fabricated from uncovered colors (Fig. 7 line 3), guaranteeing the
//      final set covers every color — a hard requirement for the scheduler
//      to terminate.
//   4. After each pick, all subpatterns of the chosen pattern are deleted:
//      the chosen pattern can serve wherever a subpattern could.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "antichain/enumerate.hpp"
#include "pattern/pattern_set.hpp"

namespace mpsched {

/// Ablation knob for the α·|p̄|² size bonus of Eq. 8.
enum class SizeBonus { Quadratic, Linear, None };

/// How candidate patterns and their statistics are produced (§5.1).
enum class PatternGeneration {
  /// The paper's method: enumerate every antichain of size ≤ C within the
  /// span limit. Exact, but combinatorial on wide graphs.
  SpanLimitedEnumeration,
  /// Scalability extension (antichain/analytic.hpp): closed-form counting
  /// over same-ASAP-level sets. Milliseconds on graphs where enumeration
  /// takes hours; ignores cross-level antichains.
  LevelAnalytic,
};

struct SelectOptions {
  std::size_t pattern_count = 4;   ///< Pdef
  std::size_t capacity = 5;        ///< C (Montium: 5 ALUs)
  double epsilon = 0.5;            ///< ε of Eq. 8 (paper: 0.5)
  double alpha = 20.0;             ///< α of Eq. 8 (paper: 20)
  SizeBonus size_bonus = SizeBonus::Quadratic;
  /// Span limit handed to the antichain enumerator; nullopt = unlimited.
  /// Default 1: Theorem 1 shows span-S antichains force S extra cycles, and
  /// the span-limit ablation (bench_ablation_span_limit) finds 1 the best
  /// value on both DFT workloads — with it, the selected-pattern column of
  /// the paper's Table 7 reproduces exactly for the 3DFT graph.
  std::optional<int> span_limit = 1;
  /// Candidate-pattern generation strategy.
  PatternGeneration generation = PatternGeneration::SpanLimitedEnumeration;
  /// Record per-iteration candidate priorities (Fig. 4 walkthrough /
  /// debugging; memory grows with candidate count × Pdef).
  bool record_details = false;

  /// Member-wise, so a field added later joins the engine's solved-result
  /// key (engine/analysis_cache.hpp) without anyone listing it there.
  bool operator==(const SelectOptions&) const = default;
};

/// One candidate's evaluation within a selection iteration.
struct CandidatePriority {
  Pattern pattern;
  double priority = 0.0;
  bool passes_color_condition = true;
};

/// One iteration of the greedy loop.
struct SelectionStep {
  Pattern chosen;
  double priority = 0.0;
  bool fabricated = false;  ///< true when made from uncovered colors
  std::size_t subpatterns_deleted = 0;
  std::vector<CandidatePriority> candidates;  ///< only when record_details
};

struct SelectionResult {
  PatternSet patterns;               ///< the Pdef selected patterns, in pick order
  std::vector<SelectionStep> steps;  ///< one per pick
  std::uint64_t antichains_enumerated = 0;
  std::size_t candidate_patterns = 0;  ///< distinct patterns found in the DFG

  std::string to_string(const Dfg& dfg) const;
};

/// The candidate patterns and their statistics (§5.1) that `options`
/// asks for: the span-limited antichain enumeration (EnumerateOptions'
/// defaults otherwise) or the level-analytic counts.
AntichainAnalysis generate_candidates(const Dfg& dfg, const SelectOptions& options);

/// Runs selection end-to-end (generate_candidates + greedy picks).
SelectionResult select_patterns(const Dfg& dfg, const SelectOptions& options = {});

/// Variant reusing a precomputed antichain analysis (the ablation benches
/// sweep ε/α without re-enumerating).
SelectionResult select_patterns(const Dfg& dfg, const AntichainAnalysis& analysis,
                                const SelectOptions& options = {});

}  // namespace mpsched

#include "core/refine.hpp"

#include <algorithm>

namespace mpsched {

namespace {

std::size_t evaluate(const Dfg& dfg, const PatternSet& set, const MpScheduleOptions& options,
                     std::size_t* evaluations) {
  ++*evaluations;
  const MpScheduleResult r = multi_pattern_schedule(dfg, set, options);
  // Non-covering sets are filtered before evaluation; treat failure as +inf.
  return r.success ? r.cycles : SIZE_MAX;
}

}  // namespace

RefineResult refine_pattern_set(const Dfg& dfg, const AntichainAnalysis& analysis,
                                const PatternSet& initial, const RefineOptions& options) {
  MPSCHED_REQUIRE(!initial.empty(), "initial pattern set must be non-empty");

  const std::vector<ColorId> colors = dfg.used_colors();

  RefineResult result;
  result.patterns = initial;
  result.initial_cycles =
      evaluate(dfg, result.patterns, options.schedule, &result.evaluations);
  result.refined_cycles = result.initial_cycles;

  // Candidate pool: top patterns by antichain count.
  std::vector<const PatternAntichains*> ranked;
  ranked.reserve(analysis.per_pattern.size());
  for (const auto& pa : analysis.per_pattern) ranked.push_back(&pa);
  std::sort(ranked.begin(), ranked.end(), [](const auto* a, const auto* b) {
    if (a->antichain_count != b->antichain_count)
      return a->antichain_count > b->antichain_count;
    return a->pattern < b->pattern;
  });
  if (ranked.size() > options.candidate_pool) ranked.resize(options.candidate_pool);

  for (std::size_t sweep = 0; sweep < options.max_sweeps; ++sweep) {
    bool improved = false;
    for (std::size_t slot = 0; slot < result.patterns.size(); ++slot) {
      for (const PatternAntichains* cand : ranked) {
        if (result.patterns.contains(cand->pattern)) continue;
        // Build the trial set with `slot` replaced.
        PatternSet trial;
        for (std::size_t i = 0; i < result.patterns.size(); ++i)
          trial.insert(i == slot ? cand->pattern : result.patterns[i]);
        if (!trial.covers(colors)) continue;  // keep schedulability
        const std::size_t cycles =
            evaluate(dfg, trial, options.schedule, &result.evaluations);
        if (cycles < result.refined_cycles) {
          result.patterns = std::move(trial);
          result.refined_cycles = cycles;
          ++result.swaps_accepted;
          improved = true;
          break;  // re-enter with the new incumbent
        }
      }
    }
    if (!improved) break;
  }
  return result;
}

RefineResult select_and_refine(const Dfg& dfg, const SelectOptions& select_options,
                               const RefineOptions& refine_options) {
  const AntichainAnalysis analysis = generate_candidates(dfg, select_options);
  const SelectionResult greedy = select_patterns(dfg, analysis, select_options);
  return refine_pattern_set(dfg, analysis, greedy.patterns, refine_options);
}

}  // namespace mpsched

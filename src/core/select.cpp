#include "core/select.hpp"

#include <algorithm>
#include <sstream>

#include "antichain/analytic.hpp"

namespace mpsched {

namespace {

/// Per-node occurrence counts of each color, used to order the colors of a
/// fabricated fallback pattern (most frequent first → most useful slots).
std::vector<std::size_t> color_node_counts(const Dfg& dfg) {
  std::vector<std::size_t> counts(dfg.color_count(), 0);
  for (NodeId n = 0; n < dfg.node_count(); ++n) ++counts[dfg.color(n)];
  return counts;
}

double size_bonus_value(const SelectOptions& options, const Pattern& p) {
  const auto size = static_cast<double>(p.size());
  switch (options.size_bonus) {
    case SizeBonus::Quadratic: return options.alpha * size * size;
    case SizeBonus::Linear: return options.alpha * size;
    case SizeBonus::None: return 0.0;
  }
  return 0.0;
}

}  // namespace

AntichainAnalysis generate_candidates(const Dfg& dfg, const SelectOptions& options) {
  if (options.generation == PatternGeneration::LevelAnalytic)
    return analytic_level_analysis(dfg, options.capacity);
  EnumerateOptions eo;
  eo.max_size = options.capacity;
  eo.span_limit = options.span_limit;
  return enumerate_antichains(dfg, eo);
}

SelectionResult select_patterns(const Dfg& dfg, const SelectOptions& options) {
  return select_patterns(dfg, generate_candidates(dfg, options), options);
}

SelectionResult select_patterns(const Dfg& dfg, const AntichainAnalysis& analysis,
                                const SelectOptions& options) {
  MPSCHED_REQUIRE(options.pattern_count > 0, "Pdef must be positive");
  MPSCHED_REQUIRE(options.capacity > 0, "capacity C must be positive");
  MPSCHED_REQUIRE(options.epsilon > 0.0, "epsilon must be positive (it guards division)");

  SelectionResult result;
  result.antichains_enumerated = analysis.total;
  result.candidate_patterns = analysis.per_pattern.size();

  const std::vector<ColorId> complete_colors = dfg.used_colors();  // L
  const std::vector<std::size_t> color_counts = color_node_counts(dfg);
  const std::size_t n_nodes = dfg.node_count();

  // Working candidate list; erased entries are tombstoned.
  std::vector<const PatternAntichains*> candidates;
  candidates.reserve(analysis.per_pattern.size());
  for (const auto& pa : analysis.per_pattern) candidates.push_back(&pa);

  // Σ_{p̄i ∈ Ps} h(p̄i, n) accumulated as patterns are selected.
  std::vector<double> selected_h_sum(n_nodes, 0.0);
  std::vector<bool> color_selected(dfg.color_count(), false);  // Ls
  std::size_t n_colors_selected = 0;

  for (std::size_t pick = 0; pick < options.pattern_count; ++pick) {
    // Right-hand side of Inequality (9): minimum number of *new* colors
    // this pick must contribute so the remaining picks can still cover L.
    const auto remaining_picks =
        static_cast<std::int64_t>(options.pattern_count - pick - 1);
    const std::int64_t required_new_colors =
        static_cast<std::int64_t>(complete_colors.size()) -
        static_cast<std::int64_t>(n_colors_selected) -
        static_cast<std::int64_t>(options.capacity) * remaining_picks;

    SelectionStep step;
    const PatternAntichains* best = nullptr;
    double best_priority = 0.0;

    for (const PatternAntichains* cand : candidates) {
      if (cand == nullptr) continue;
      // |Ln(p̄)|: distinct colors of the candidate not yet in Ls.
      std::int64_t new_colors = 0;
      for (const ColorId c : cand->pattern.distinct_colors())
        if (!color_selected[c]) ++new_colors;
      const bool passes = new_colors >= required_new_colors;

      double priority = 0.0;
      if (passes) {
        for (NodeId n = 0; n < n_nodes; ++n) {
          const std::uint64_t h = cand->node_frequency[n];
          if (h != 0)
            priority += static_cast<double>(h) / (selected_h_sum[n] + options.epsilon);
        }
        priority += size_bonus_value(options, cand->pattern);
      }
      if (options.record_details)
        step.candidates.push_back({cand->pattern, priority, passes});

      // Strictly-greater keeps the earliest candidate on ties; candidates
      // arrive in canonical pattern order, so ties resolve deterministically
      // toward the smaller canonical pattern.
      if (passes && priority > 0.0 && priority > best_priority) {
        best_priority = priority;
        best = cand;
      }
    }

    if (best != nullptr) {
      step.chosen = best->pattern;
      step.priority = best_priority;
      // Accumulate h of the winner for later denominators.
      for (NodeId n = 0; n < n_nodes; ++n)
        selected_h_sum[n] += static_cast<double>(best->node_frequency[n]);
    } else {
      // Fig. 7 line 3: fabricate a pattern from uncovered colors. Fill up
      // to C slots, most frequent uncovered color first; if fewer than C
      // distinct colors remain uncovered, repeat them round-robin so the
      // pattern still offers C useful slots.
      std::vector<ColorId> uncovered;
      for (const ColorId c : complete_colors)
        if (!color_selected[c]) uncovered.push_back(c);
      // Candidate list exhausted (every generated pattern was absorbed as a
      // subpattern of earlier picks) while all colors are already covered:
      // no further pick can add value, so stop early with fewer than Pdef
      // patterns. The set is complete for scheduling purposes.
      if (uncovered.empty()) break;
      std::sort(uncovered.begin(), uncovered.end(), [&color_counts](ColorId a, ColorId b) {
        if (color_counts[a] != color_counts[b]) return color_counts[a] > color_counts[b];
        return a < b;
      });
      std::vector<ColorId> slots;
      slots.reserve(options.capacity);
      for (std::size_t i = 0; i < options.capacity; ++i)
        slots.push_back(uncovered[i % uncovered.size()]);
      step.chosen = Pattern(std::move(slots));
      step.priority = 0.0;
      step.fabricated = true;
    }

    // Update Ls.
    for (const ColorId c : step.chosen.distinct_colors()) {
      if (!color_selected[c]) {
        color_selected[c] = true;
        ++n_colors_selected;
      }
    }

    // Fig. 7 line 4: delete the chosen pattern and all its subpatterns.
    for (auto& cand : candidates) {
      if (cand != nullptr && cand->pattern.is_subpattern_of(step.chosen)) {
        cand = nullptr;
        ++step.subpatterns_deleted;
      }
    }

    result.patterns.insert(step.chosen);
    result.steps.push_back(std::move(step));
  }

  return result;
}

std::string SelectionResult::to_string(const Dfg& dfg) const {
  std::ostringstream os;
  os << "selected " << patterns.size() << " pattern(s) from " << candidate_patterns
     << " candidates (" << antichains_enumerated << " antichains):\n";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const SelectionStep& s = steps[i];
    os << "  " << (i + 1) << ". " << s.chosen.to_string(dfg);
    if (s.fabricated)
      os << "  [fabricated from uncovered colors]";
    else
      os << "  priority=" << s.priority;
    os << "  (deleted " << s.subpatterns_deleted << " subpattern(s))\n";
  }
  return os.str();
}

}  // namespace mpsched

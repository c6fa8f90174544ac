#include "core/mp_schedule.hpp"

#include <algorithm>
#include <sstream>

#include "graph/levels.hpp"

namespace mpsched {

namespace {

/// Computes S(p, CL): walk the sorted candidate list, admit a node when a
/// slot of its color remains.
std::vector<NodeId> selected_set(const Dfg& dfg, const Pattern& pattern,
                                 const std::vector<NodeId>& sorted_candidates) {
  std::vector<std::uint32_t> slots = pattern.slot_counts(dfg.color_count());
  std::vector<NodeId> out;
  out.reserve(pattern.size());
  for (const NodeId n : sorted_candidates) {
    std::uint32_t& free_slots = slots[dfg.color(n)];
    if (free_slots > 0) {
      --free_slots;
      out.push_back(n);
      if (out.size() == pattern.size()) break;  // pattern exhausted
    }
  }
  return out;
}

}  // namespace

MpScheduleResult multi_pattern_schedule(const Dfg& dfg, const PatternSet& patterns,
                                        const MpScheduleOptions& options) {
  MpScheduleResult result;
  result.schedule = Schedule(dfg.node_count());
  if (dfg.node_count() == 0) {
    result.success = true;
    return result;
  }
  MPSCHED_REQUIRE(!patterns.empty(), "pattern set must be non-empty");
  dfg.validate();

  // Coverage precondition: a color no pattern provides can never be
  // scheduled, so the main loop would stall.
  if (!patterns.covers(dfg.used_colors())) {
    result.error = "pattern set does not cover all colors of the graph";
    return result;
  }

  const Levels levels = compute_levels(dfg);
  const Reachability reach(dfg);
  const NodePriorities np =
      compute_node_priorities(dfg, levels, reach, options.priority_params);
  result.priority_params = np.params;

  Rng rng(options.seed);

  // Candidate list: nodes whose predecessors are all scheduled. Kept in
  // insertion (discovery) order between cycles; sorted stably by f each
  // cycle so ties preserve FIFO order under TieBreak::Stable.
  std::vector<NodeId> candidate_list;
  std::vector<char> in_candidate_list(dfg.node_count(), 0);
  std::vector<std::size_t> pending_preds(dfg.node_count());
  for (NodeId n = 0; n < dfg.node_count(); ++n) {
    pending_preds[n] = dfg.preds(n).size();
    if (pending_preds[n] == 0) {
      candidate_list.push_back(n);
      in_candidate_list[n] = 1;
    }
  }

  std::size_t scheduled_count = 0;
  int cycle = 0;

  while (scheduled_count < dfg.node_count()) {
    MPSCHED_CHECK(static_cast<std::size_t>(cycle) < options.max_cycles,
                  "multi-pattern scheduling exceeded max_cycles");
    MPSCHED_ASSERT(!candidate_list.empty());

    // Step 3 (Fig. 3): sort candidates by priority, high first.
    switch (options.tie_break) {
      case TieBreak::Stable:
        break;  // keep FIFO discovery order among ties
      case TieBreak::NodeIdAsc:
        std::sort(candidate_list.begin(), candidate_list.end());
        break;
      case TieBreak::NodeIdDesc:
        std::sort(candidate_list.begin(), candidate_list.end(), std::greater<>());
        break;
      case TieBreak::Random:
        rng.shuffle(candidate_list);
        break;
    }
    std::stable_sort(candidate_list.begin(), candidate_list.end(),
                     [&np](NodeId a, NodeId b) { return np.f[a] > np.f[b]; });

    // Step 4: selected set per pattern; step 5: score and pick.
    std::vector<std::vector<NodeId>> selected(patterns.size());
    std::vector<std::int64_t> score(patterns.size(), 0);
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      selected[p] = selected_set(dfg, patterns[p], candidate_list);
      if (options.rule == PatternRule::F1CoverCount) {
        score[p] = static_cast<std::int64_t>(selected[p].size());
      } else {
        for (const NodeId n : selected[p]) score[p] += np.f[n];
      }
    }

    std::size_t best = 0;
    if (options.random_pattern_ties) {
      std::vector<std::size_t> best_set{0};
      for (std::size_t p = 1; p < patterns.size(); ++p) {
        if (score[p] > score[best_set.front()]) best_set.assign(1, p);
        else if (score[p] == score[best_set.front()]) best_set.push_back(p);
      }
      best = best_set[rng.below(best_set.size())];
    } else {
      for (std::size_t p = 1; p < patterns.size(); ++p)
        if (score[p] > score[best]) best = p;
    }

    if (options.record_trace) {
      MpTraceStep step;
      step.cycle = cycle + 1;
      step.candidates = candidate_list;
      step.selected = selected;
      step.pattern_score = score;
      step.chosen_pattern = best;
      result.trace.push_back(std::move(step));
    }

    const std::vector<NodeId>& chosen = selected[best];
    MPSCHED_ASSERT(!chosen.empty());  // guaranteed by color coverage

    // Place the chosen nodes, then refresh the candidate list (step 6):
    // successors are probed in scheduled order and adjacency order, so
    // discovery order — and therefore Stable tie-breaking — is
    // deterministic and matches the paper's walkthrough.
    for (const NodeId n : chosen) {
      result.schedule.place(n, cycle);
      in_candidate_list[n] = 0;
      ++scheduled_count;
    }
    result.schedule.set_cycle_pattern(cycle, best);
    candidate_list.erase(
        std::remove_if(candidate_list.begin(), candidate_list.end(),
                       [&](NodeId n) { return result.schedule.is_scheduled(n); }),
        candidate_list.end());
    for (const NodeId n : chosen) {
      for (const NodeId s : dfg.succs(n)) {
        MPSCHED_ASSERT(pending_preds[s] > 0);
        if (--pending_preds[s] == 0 && !in_candidate_list[s]) {
          candidate_list.push_back(s);
          in_candidate_list[s] = 1;
        }
      }
    }
    ++cycle;
  }

  result.cycles = static_cast<std::size_t>(cycle);
  result.success = true;
  return result;
}

std::string MpScheduleResult::trace_table(const Dfg& dfg, const PatternSet& patterns) const {
  std::ostringstream os;
  auto names = [&dfg](const std::vector<NodeId>& nodes) {
    std::vector<std::string> sorted_names;
    sorted_names.reserve(nodes.size());
    for (const NodeId n : nodes) sorted_names.push_back(dfg.node_name(n));
    std::sort(sorted_names.begin(), sorted_names.end());
    std::string out;
    for (std::size_t i = 0; i < sorted_names.size(); ++i) {
      if (i) out += ",";
      out += sorted_names[i];
    }
    return out;
  };

  os << "| cycle | candidate list |";
  for (std::size_t p = 0; p < patterns.size(); ++p)
    os << " pattern" << (p + 1) << "=\"" << patterns[p].to_string(dfg) << "\" |";
  os << " selected |\n";
  for (const MpTraceStep& step : trace) {
    os << "| " << step.cycle << " | " << names(step.candidates) << " |";
    for (const auto& sel : step.selected) os << ' ' << names(sel) << " |";
    os << ' ' << (step.chosen_pattern + 1) << " |\n";
  }
  return os.str();
}

}  // namespace mpsched

#include "sched/optimal.hpp"

#include <algorithm>
#include <climits>
#include <queue>
#include <unordered_map>

#include "graph/levels.hpp"

namespace mpsched {

namespace {

using Mask = std::uint64_t;

/// A* over "set of completed nodes" states: one transition = one clock
/// cycle executing a maximal color-feasible subset of the ready set for
/// one of the patterns. The heuristic (max of critical-path height over
/// pending nodes, and volume / max-pattern-size) is admissible, so the
/// first expansion of the full mask is the exact optimum.
struct Searcher {
  const Dfg& dfg;
  const PatternSet& patterns;
  std::vector<Mask> pred_mask;
  std::vector<int> height;
  std::size_t max_pattern_size;

  std::vector<NodeId> ready_nodes(Mask done) const {
    std::vector<NodeId> out;
    for (NodeId n = 0; n < dfg.node_count(); ++n)
      if (!(done >> n & 1) && (pred_mask[n] & ~done) == 0) out.push_back(n);
    return out;
  }

  /// Admissible lower bound on remaining cycles.
  int lower_bound(Mask done) const {
    int height_bound = 0;
    std::size_t remaining = 0;
    for (NodeId n = 0; n < dfg.node_count(); ++n) {
      if (done >> n & 1) continue;
      ++remaining;
      // Height counts the chain the node starts; every pending node's
      // chain suffix must still execute, and only ready nodes can start
      // now, but height of *any* pending node is a valid bound since its
      // chain lies entirely in the pending set.
      height_bound = std::max(height_bound, height[n]);
    }
    if (remaining == 0) return 0;
    const auto volume_bound =
        static_cast<int>((remaining + max_pattern_size - 1) / max_pattern_size);
    return std::max(height_bound, volume_bound);
  }

  /// Invokes fn(mask) for every maximal fit of the ready set into `p`:
  /// for each color, choose min(slots, available) ready nodes of that
  /// color, over all combinations (cartesian product across colors).
  template <typename Fn>
  void for_each_maximal_fit(const std::vector<NodeId>& ready, const Pattern& p,
                            Fn&& fn) const {
    std::vector<std::vector<NodeId>> by_color(dfg.color_count());
    for (const NodeId n : ready) by_color[dfg.color(n)].push_back(n);

    struct Group {
      const std::vector<NodeId>* nodes;
      std::vector<std::size_t> idx;  // current k-combination of indices
    };
    std::vector<Group> groups;
    for (ColorId c = 0; c < dfg.color_count(); ++c) {
      const std::size_t take = std::min(p.count(c), by_color[c].size());
      if (take == 0) continue;
      Group g{&by_color[c], {}};
      g.idx.resize(take);
      for (std::size_t i = 0; i < take; ++i) g.idx[i] = i;
      groups.push_back(std::move(g));
    }
    if (groups.empty()) return;

    auto advance = [](Group& g) -> bool {
      const std::size_t n = g.nodes->size();
      const std::size_t k = g.idx.size();
      std::size_t i = k;
      while (i > 0) {
        --i;
        if (g.idx[i] != i + n - k) {
          ++g.idx[i];
          for (std::size_t j = i + 1; j < k; ++j) g.idx[j] = g.idx[j - 1] + 1;
          return true;
        }
      }
      // Wrapped: reset to the first combination.
      for (std::size_t j = 0; j < k; ++j) g.idx[j] = j;
      return false;
    };

    while (true) {
      Mask m = 0;
      for (const Group& g : groups)
        for (const std::size_t i : g.idx) m |= Mask{1} << (*g.nodes)[i];
      fn(m);
      std::size_t g = 0;
      while (g < groups.size() && !advance(groups[g])) ++g;  // odometer
      if (g == groups.size()) break;
    }
  }
};

}  // namespace

OptimalResult optimal_schedule_length(const Dfg& dfg, const PatternSet& patterns,
                                      const OptimalOptions& options) {
  MPSCHED_REQUIRE(dfg.node_count() <= 64, "optimal search limited to 64 nodes");
  MPSCHED_REQUIRE(!patterns.empty(), "pattern set must be non-empty");
  dfg.validate();

  OptimalResult result;
  if (dfg.node_count() == 0) {
    result.proven = true;
    return result;
  }

  MPSCHED_REQUIRE(patterns.covers(dfg.used_colors()),
                  "pattern set does not cover the graph's colors");

  Searcher searcher{dfg, patterns, {}, {}, patterns.max_pattern_size()};
  searcher.pred_mask.assign(dfg.node_count(), 0);
  for (NodeId n = 0; n < dfg.node_count(); ++n)
    for (const NodeId p : dfg.preds(n)) searcher.pred_mask[n] |= Mask{1} << p;
  searcher.height = compute_levels(dfg).height;

  const Mask full =
      dfg.node_count() == 64 ? ~Mask{0} : (Mask{1} << dfg.node_count()) - 1;

  // A*: priority = g (cycles so far) + admissible lower bound.
  struct QEntry {
    int f;
    int g;
    Mask done;
    bool operator>(const QEntry& o) const { return f > o.f; }
  };
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> open;
  std::unordered_map<Mask, int> best_g;
  open.push({searcher.lower_bound(0), 0, 0});
  best_g.emplace(0, 0);

  while (!open.empty()) {
    const QEntry cur = open.top();
    open.pop();
    if (cur.done == full) {
      result.proven = true;
      result.cycles = static_cast<std::size_t>(cur.g);
      return result;
    }
    if (const auto it = best_g.find(cur.done); it != best_g.end() && it->second < cur.g)
      continue;  // stale entry
    if (++result.states_expanded > options.max_states) return result;  // unproven

    const std::vector<NodeId> ready = searcher.ready_nodes(cur.done);
    for (const Pattern& p : patterns) {
      searcher.for_each_maximal_fit(ready, p, [&](Mask fit) {
        const Mask next = cur.done | fit;
        const int g = cur.g + 1;
        const auto it = best_g.find(next);
        if (it != best_g.end() && it->second <= g) return;
        best_g[next] = g;
        open.push({g + searcher.lower_bound(next), g, next});
      });
    }
  }
  return result;  // exhausted without reaching full (shouldn't happen)
}

}  // namespace mpsched

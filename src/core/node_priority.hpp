// Node priority function of the multi-pattern list scheduler (paper §4.1).
//
//   f(n) = s · height(n) + t · #direct_successors(n) + #all_successors(n)
//
// subject to Inequality (5):
//   s ≥ max_n { t · #direct_successors(n) + #all_successors(n) }
//   t ≥ max_n { #all_successors(n) }
//
// which makes the priority lexicographic: height dominates, then direct
// successor count, then total successor count. We derive the smallest
// strict parameters (max + 1) automatically; callers may override to study
// other weightings.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/closure.hpp"
#include "graph/dfg.hpp"
#include "graph/levels.hpp"

namespace mpsched {

struct NodePriorityParams {
  std::int64_t s = 0;
  std::int64_t t = 0;

  bool operator==(const NodePriorityParams&) const = default;
};

struct NodePriorities {
  NodePriorityParams params;
  std::vector<std::int64_t> f;                 ///< f(n) per node
  std::vector<std::int64_t> direct_successors; ///< |Succ(n)|
  std::vector<std::int64_t> all_successors;    ///< |followers(n)|
};

/// Smallest parameters satisfying Inequality (5) strictly (max + 1), so
/// that the three criteria never interfere.
NodePriorityParams derive_priority_params(const Dfg& dfg, const Reachability& reach);

/// Computes f(n) for every node. Pass `params` with s==0 && t==0 (the
/// default) to auto-derive via derive_priority_params.
NodePriorities compute_node_priorities(const Dfg& dfg, const Levels& levels,
                                       const Reachability& reach,
                                       NodePriorityParams params = {});

}  // namespace mpsched

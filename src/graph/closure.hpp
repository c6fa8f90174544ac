// Reachability (transitive closure) over a DFG, stored as one bitset of
// followers per node.
//
// Paper §3: node n is a *follower* of m if a directed path m ⤳ n exists.
// Two nodes are *parallelizable* if neither follows the other; a set of
// pairwise parallelizable nodes is an *antichain*. The antichain engine
// (src/antichain) queries parallelizability millions of times, so we
// precompute the closure once: O(V·E/64) time, O(V²/64) space.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/dfg.hpp"
#include "util/bitset.hpp"

namespace mpsched {

class Reachability {
 public:
  /// Builds the closure for `dfg` (throws on cyclic graphs).
  explicit Reachability(const Dfg& dfg);

  std::size_t node_count() const noexcept { return followers_.size(); }

  /// True if `to` is a follower of `from` (a path from → to exists).
  /// Reflexivity: reaches(n, n) is false, matching the paper (a node is
  /// not its own follower).
  bool reaches(NodeId from, NodeId to) const {
    MPSCHED_ASSERT(from < node_count() && to < node_count());
    return followers_[from].test(to);
  }

  /// Paper §3: neither node follows the other.
  bool parallelizable(NodeId a, NodeId b) const {
    return a != b && !reaches(a, b) && !reaches(b, a);
  }

  /// All followers of `n` as a bitset.
  const DynamicBitset& followers(NodeId n) const {
    MPSCHED_ASSERT(n < node_count());
    return followers_[n];
  }

  /// Bitset of nodes parallelizable with `n` (neither follower nor
  /// ancestor nor `n` itself). This is the compatibility mask the
  /// antichain enumerator intersects while extending candidate sets.
  const DynamicBitset& parallel_mask(NodeId n) const {
    MPSCHED_ASSERT(n < node_count());
    return parallel_[n];
  }

  /// Number of ordered reachable pairs = number of comparable unordered
  /// pairs (each comparable pair is reachable in exactly one direction in
  /// a DAG).
  std::size_t comparable_pair_count() const;

 private:
  std::vector<DynamicBitset> followers_;
  std::vector<DynamicBitset> parallel_;
};

}  // namespace mpsched

#include "graph/closure.hpp"

namespace mpsched {

Reachability::Reachability(const Dfg& dfg) {
  const std::size_t n = dfg.node_count();
  const std::vector<NodeId> order = dfg.topo_order();

  followers_.assign(n, DynamicBitset(n));
  parallel_.assign(n, DynamicBitset(n));

  // Followers: reverse-topological accumulation — a node's followers are
  // its successors plus their followers.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    DynamicBitset& f = followers_[v];
    for (const NodeId s : dfg.succs(v)) {
      f.set(s);
      f |= followers_[s];
    }
  }

  // Ancestors: forward accumulation, mirror image. Only the parallel
  // masks need them, so they are not kept.
  std::vector<DynamicBitset> ancestors(n, DynamicBitset(n));
  for (const NodeId v : order) {
    DynamicBitset& a = ancestors[v];
    for (const NodeId p : dfg.preds(v)) {
      a.set(p);
      a |= ancestors[p];
    }
  }

  // Parallel mask: complement of (followers ∪ ancestors ∪ self).
  for (NodeId v = 0; v < n; ++v) {
    DynamicBitset m(n);
    m.set_all();
    m ^= followers_[v] | ancestors[v];  // remove comparable nodes
    m.reset(v);                          // remove self
    parallel_[v] = std::move(m);
  }
}

std::size_t Reachability::comparable_pair_count() const {
  std::size_t total = 0;
  for (const auto& f : followers_) total += f.count();
  return total;
}

}  // namespace mpsched

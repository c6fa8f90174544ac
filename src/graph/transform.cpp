#include "graph/transform.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <tuple>
#include <utility>

#include "graph/closure.hpp"
#include "graph/levels.hpp"
#include "util/bitset.hpp"
#include "util/registry.hpp"
#include "util/require.hpp"

namespace mpsched {

namespace {

/// A graph with `dfg`'s name and colors (interned in original ColorId
/// order, so every pass keeps color ids stable) and no nodes.
Dfg same_colors(const Dfg& dfg) {
  Dfg out(dfg.name());
  for (ColorId c = 0; c < dfg.color_count(); ++c) {
    out.intern_color(dfg.color_name(c));
  }
  return out;
}

/// Copies the node set of `dfg` (nodes re-added with their original
/// names) into a fresh graph, leaving the edge set empty.
Dfg copy_nodes(const Dfg& dfg) {
  Dfg out = same_colors(dfg);
  for (NodeId n = 0; n < dfg.node_count(); ++n) {
    out.add_node(dfg.color(n), dfg.node_name(n));
  }
  return out;
}

/// Adds each edge u→s of `dfg` to `out` as node_map[u]→node_map[s], in
/// node-id-then-insertion order (which keeps downstream runs
/// deterministic), skipping edges inside one merged node and duplicates.
void add_mapped_edges(const Dfg& dfg, const std::vector<NodeId>& node_map, Dfg& out) {
  for (NodeId n = 0; n < dfg.node_count(); ++n) {
    for (const NodeId s : dfg.succs(n)) {
      const NodeId from = node_map[n];
      const NodeId to = node_map[s];
      if (from != to && !out.has_edge(from, to)) out.add_edge(from, to);
    }
  }
}

Dfg identity(const Dfg& dfg) {
  Dfg out = copy_nodes(dfg);
  for (NodeId u = 0; u < dfg.node_count(); ++u) {
    for (NodeId v : dfg.succs(u)) out.add_edge(u, v);
  }
  return out;
}

/// Common-subexpression elimination: two operations with the same color
/// and the same predecessor multiset compute the same value. Inputs are
/// external and positionally fixed per node, so only nodes with at least
/// one predecessor merge. The duplicate's consumers are re-pointed at the
/// surviving node. Runs to a fixed point.
Dfg eliminate_common_subexpressions(const Dfg& dfg) {
  dfg.validate();
  std::vector<NodeId> canonical(dfg.node_count());
  for (NodeId n = 0; n < dfg.node_count(); ++n) canonical[n] = n;

  // Fixed point: process in topological order so predecessors are already
  // canonicalized when their consumers are keyed.
  bool changed = true;
  while (changed) {
    changed = false;
    std::map<std::pair<ColorId, std::vector<NodeId>>, NodeId> seen;
    for (const NodeId n : dfg.topo_order()) {
      if (canonical[n] != n) continue;
      if (dfg.preds(n).empty()) continue;  // inputs are positionally distinct
      std::vector<NodeId> key_preds;
      key_preds.reserve(dfg.preds(n).size());
      for (const NodeId p : dfg.preds(n)) {
        NodeId root = canonical[p];
        while (canonical[root] != root) root = canonical[root];
        key_preds.push_back(root);
      }
      std::sort(key_preds.begin(), key_preds.end());
      const auto key = std::make_pair(dfg.color(n), std::move(key_preds));
      const auto [it, inserted] = seen.emplace(key, n);
      if (!inserted) {
        canonical[n] = it->second;
        changed = true;
      }
    }
  }

  // Keep the survivors in id order; a dropped node maps to its survivor
  // (following the canonical chain: merges can cascade).
  Dfg out = same_colors(dfg);
  std::vector<NodeId> node_map(dfg.node_count(), kInvalidNode);
  for (NodeId n = 0; n < dfg.node_count(); ++n) {
    if (canonical[n] == n) node_map[n] = out.add_node(dfg.color(n), dfg.node_name(n));
  }
  for (NodeId n = 0; n < dfg.node_count(); ++n) {
    NodeId root = canonical[n];
    while (canonical[root] != root) root = canonical[root];
    node_map[n] = node_map[root];
  }
  add_mapped_edges(dfg, node_map, out);
  out.validate();
  return out;
}

/// Rebuilds maximal chains of additions ('a') into depth-balanced trees. A
/// chain link is an 'a' node with exactly two predecessors, one of which
/// may be the previous link (single use); a left-leaning chain of n links
/// becomes a tree of depth O(log n) with the same n additions, directly
/// more antichain parallelism for the pattern machinery. A graph without
/// 'a' is returned as is.
Dfg rebalance_reductions(const Dfg& dfg) {
  dfg.validate();
  const std::optional<ColorId> add = dfg.find_color("a");
  if (!add) return dfg;
  const ColorId color = *add;

  // Identify maximal chains: n is a link if color(n)==color, |preds|==2,
  // and one predecessor is itself a link whose ONLY consumer is n. Every
  // link then brings one operand (the bottom link two), so a chain of n
  // links has n+1 operands and rebuilds into exactly n additions.
  // Chains are collected as (leaf operands...) -> root.
  std::vector<char> is_chain_member(dfg.node_count(), 0);
  std::vector<std::vector<NodeId>> chains;  // member nodes, root first
  std::vector<std::vector<NodeId>> chain_operands;

  // Scan roots in REVERSE topological order: the final link of a chain is
  // reached before its internal links, so the upward walk sees the whole
  // chain; internal links get marked and skipped.
  const std::vector<NodeId> topo = dfg.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId root = *it;
    if (dfg.color(root) != color || is_chain_member[root] || dfg.preds(root).size() != 2)
      continue;
    // Is root the END of a chain? Walk upward through same-color,
    // single-use predecessors.
    std::vector<NodeId> members;
    std::vector<NodeId> operands;
    NodeId cur = root;
    while (true) {
      members.push_back(cur);
      NodeId next = kInvalidNode;
      for (const NodeId p : dfg.preds(cur)) {
        if (next == kInvalidNode && dfg.color(p) == color && dfg.succs(p).size() == 1 &&
            !is_chain_member[p] && dfg.preds(p).size() == 2) {
          next = p;
        } else {
          operands.push_back(p);  // external operand of this link
        }
      }
      if (next == kInvalidNode) break;
      cur = next;
    }
    if (members.size() < 3) continue;  // rebalancing pays off from depth 3
    for (const NodeId m : members) is_chain_member[m] = 1;
    chains.push_back(std::move(members));
    chain_operands.push_back(std::move(operands));
  }
  // Emit in forward topological order of roots so that a chain feeding
  // another chain (as an operand) is materialized before its consumer.
  std::reverse(chains.begin(), chains.end());
  std::reverse(chain_operands.begin(), chain_operands.end());

  Dfg out = same_colors(dfg);
  std::vector<NodeId> node_map(dfg.node_count(), kInvalidNode);

  // Copy all non-chain nodes first (original order keeps ids stable-ish).
  for (NodeId n = 0; n < dfg.node_count(); ++n)
    if (!is_chain_member[n]) node_map[n] = out.add_node(dfg.color(n), dfg.node_name(n));

  // Emit depth-balanced trees for each chain. Operands carry different
  // subtree depths (an operand may itself be a deep expression), so plain
  // pairwise rounds could *deepen* an already balanced tree; combining the
  // two shallowest operands first (Huffman on depth) minimizes the final
  // depth instead. Depth proxy: the operand's level in the original graph.
  const Levels old_levels = compute_levels(dfg);
  for (std::size_t ci = 0; ci < chains.size(); ++ci) {
    const std::vector<NodeId>& members = chains[ci];
    // (depth, tiebreak, new-graph node) min-heap.
    using Item = std::tuple<int, std::size_t, NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    std::size_t order = 0;
    for (const NodeId op : chain_operands[ci]) {
      MPSCHED_ASSERT(node_map[op] != kInvalidNode);
      heap.emplace(old_levels.asap[op], order++, node_map[op]);
    }
    MPSCHED_ASSERT(heap.size() == members.size() + 1);
    // The i-th addition takes the name of the i-th link from the bottom,
    // so the tree's root keeps the chain root's name.
    std::size_t name_cursor = members.size();
    while (heap.size() > 1) {
      const auto [d1, o1, n1] = heap.top();
      heap.pop();
      const auto [d2, o2, n2] = heap.top();
      heap.pop();
      const NodeId combined = out.add_node(color, dfg.node_name(members[--name_cursor]));
      out.add_edge(n1, combined);
      if (n2 != n1) out.add_edge(n2, combined);
      heap.emplace(std::max(d1, d2) + 1, order++, combined);
    }
    const NodeId tree_root = std::get<2>(heap.top());
    for (const NodeId m : members) node_map[m] = tree_root;
  }

  // Re-create the edges that do not end in a chain: chain-internal and
  // operand edges are replaced by the balanced trees above, and only a
  // chain's root has successors outside it (internal links are
  // single-use).
  for (NodeId n = 0; n < dfg.node_count(); ++n) {
    for (const NodeId s : dfg.succs(n)) {
      if (is_chain_member[s]) continue;
      const NodeId from = node_map[n];
      const NodeId to = node_map[s];
      if (!out.has_edge(from, to)) out.add_edge(from, to);
    }
  }
  out.validate();
  return out;
}

/// Clustering (Guo et al., ACSAC 2003): a Montium ALU can chain a
/// multiplier into its adder within one cycle, so a multiplication ('c')
/// whose ONLY consumer is an addition ('a') fuses with it into one
/// multiply-accumulate ('m') that occupies a single ALU slot; the fused
/// node keeps the addition's name. An addition absorbs at most one
/// multiplication. No cycle check is needed: every path out of a fused
/// producer starts with the edge into its consumer, so a cycle through the
/// fused node would already be a cycle of the input. A graph missing
/// either color is returned as is.
Dfg fuse_macs(const Dfg& dfg) {
  dfg.validate();
  const std::optional<ColorId> mul = dfg.find_color("c");
  const std::optional<ColorId> add = dfg.find_color("a");
  if (!mul || !add) return dfg;

  // fused_into[u] = the addition that absorbs multiplication u, or
  // kInvalidNode.
  std::vector<NodeId> fused_into(dfg.node_count(), kInvalidNode);
  std::vector<char> is_mac(dfg.node_count(), 0);
  for (NodeId v = 0; v < dfg.node_count(); ++v) {
    if (dfg.color(v) != *add) continue;
    for (const NodeId u : dfg.preds(v)) {
      if (dfg.color(u) != *mul || dfg.succs(u).size() != 1) continue;  // value would escape
      fused_into[u] = v;
      is_mac[v] = 1;
      break;
    }
  }

  Dfg out = same_colors(dfg);
  std::vector<NodeId> node_map(dfg.node_count(), kInvalidNode);
  for (NodeId n = 0; n < dfg.node_count(); ++n) {
    if (fused_into[n] != kInvalidNode) continue;  // absorbed producer
    const ColorId color = is_mac[n] ? out.intern_color("m") : dfg.color(n);
    node_map[n] = out.add_node(color, dfg.node_name(n));
  }
  for (NodeId n = 0; n < dfg.node_count(); ++n)
    if (fused_into[n] != kInvalidNode) node_map[n] = node_map[fused_into[n]];
  add_mapped_edges(dfg, node_map, out);
  out.validate();
  return out;
}

constexpr DfgTransform kTransforms[] = {
    {"identity", "no-op pass (copies the graph unchanged)", &identity},
    {"strip_redundant_edges", "transitive reduction: drop edges implied by another path",
     &strip_redundant_edges},
    {"cse", "common-subexpression elimination: merge same-color nodes with the same operands",
     &eliminate_common_subexpressions},
    {"rebalance_reductions", "rebuild chains of 3+ single-use additions ('a') as balanced trees",
     &rebalance_reductions},
    {"mac_fusion", "fuse a multiply ('c') into its only consumer, an add ('a'), as 'm'",
     &fuse_macs},
};

}  // namespace

const DfgTransform* find_transform(std::string_view name) {
  return find_entry(kTransforms, name);
}

const DfgTransform& get_transform(std::string_view name) {
  return get_entry(kTransforms, "transform", name);
}

std::vector<std::string> transform_names() { return entry_names(kTransforms); }

Dfg strip_redundant_edges(const Dfg& dfg) {
  // An edge u→v is redundant iff some path u → w ⤳ v exists with w ≠ v,
  // i.e. iff v lies in the union of the followers of u's successors (the
  // union over w = v contributes nothing: a DAG node never follows
  // itself). For DAGs this reduction is unique and removing all redundant
  // edges at once preserves reachability.
  Reachability reach(dfg);  // throws on cyclic graphs
  Dfg out = copy_nodes(dfg);
  const std::size_t n = dfg.node_count();
  DynamicBitset reachable_via_two_hops(n);
  for (NodeId u = 0; u < n; ++u) {
    if (dfg.succs(u).size() < 2) {
      // A single out-edge can never be implied by a sibling path.
      for (NodeId v : dfg.succs(u)) out.add_edge(u, v);
      continue;
    }
    reachable_via_two_hops.clear();
    for (NodeId w : dfg.succs(u)) reachable_via_two_hops |= reach.followers(w);
    for (NodeId v : dfg.succs(u)) {
      if (!reachable_via_two_hops.test(v)) out.add_edge(u, v);
    }
  }
  return out;
}

TransformPipeline TransformPipeline::from_specs(
    const std::vector<std::string>& names) {
  TransformPipeline pipe;
  for (const std::string& name : names) pipe.push_back(get_transform(name));
  return pipe;
}

Dfg TransformPipeline::apply(const Dfg& dfg) const {
  if (stages_.empty()) return dfg;
  Dfg current = stages_.front()->apply(dfg);
  for (std::size_t i = 1; i < stages_.size(); ++i) {
    current = stages_[i]->apply(current);
  }
  return current;
}

std::vector<std::string> TransformPipeline::names() const {
  std::vector<std::string> out;
  out.reserve(stages_.size());
  for (const DfgTransform* t : stages_) out.emplace_back(t->name);
  return out;
}

}  // namespace mpsched

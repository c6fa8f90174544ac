// Transformation phase: the `cse` and `rebalance_reductions` passes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "graph/levels.hpp"
#include "graph/transform.hpp"
#include "test_util.hpp"
#include "workloads/kernels.hpp"
#include "workloads/paper_graphs.hpp"

namespace mpsched {
namespace {

Dfg cse(const Dfg& g) { return get_transform("cse").apply(g); }
Dfg rebalance(const Dfg& g) { return get_transform("rebalance_reductions").apply(g); }

std::vector<std::string> node_names(const Dfg& g) {
  std::vector<std::string> names;
  for (NodeId n = 0; n < g.node_count(); ++n) names.push_back(g.node_name(n));
  return names;
}

/// Whether `g` has an edge between the nodes named `from` and `to`.
bool has_named_edge(const Dfg& g, const std::string& from, const std::string& to) {
  for (NodeId u = 0; u < g.node_count(); ++u)
    for (const NodeId v : g.succs(u))
      if (g.node_name(u) == from && g.node_name(v) == to) return true;
  return false;
}

TEST(CseTest, MergesIdenticalOperations) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  const ColorId c = g.intern_color("c");
  const NodeId x = g.add_node(a, "x");
  const NodeId y = g.add_node(a, "y");
  // Two identical multiplications of (x, y) feeding different consumers.
  const NodeId m1 = g.add_node(c, "m1");
  const NodeId m2 = g.add_node(c, "m2");
  g.add_edge(x, m1);
  g.add_edge(y, m1);
  g.add_edge(x, m2);
  g.add_edge(y, m2);
  const NodeId out1 = g.add_node(a, "o1");
  const NodeId out2 = g.add_node(a, "o2");
  g.add_edge(m1, out1);
  g.add_edge(m2, out2);

  const Dfg r = cse(g);
  // m1=m2, and then o1=o2 (same color, same now-merged operand): CSE
  // cascades to the fixed point. The first of each pair survives.
  EXPECT_EQ(node_names(r), (std::vector<std::string>{"x", "y", "m1", "o1"}));
  EXPECT_EQ(r.edge_count(), 3u);
  EXPECT_TRUE(has_named_edge(r, "m1", "o1"));
  EXPECT_EQ(r.succs(2).size(), 1u);
}

TEST(CseTest, MergedDuplicateKeepsItsConsumers) {
  // m2 duplicates m1, but its consumer o2 also reads z, so o2 survives:
  // it must now read the surviving m1, or it could run before the value
  // it consumes is computed.
  Dfg g;
  const ColorId a = g.intern_color("a");
  const ColorId c = g.intern_color("c");
  const NodeId x = g.add_node(a, "x");
  const NodeId y = g.add_node(a, "y");
  const NodeId z = g.add_node(a, "z");
  const NodeId m1 = g.add_node(c, "m1");
  const NodeId m2 = g.add_node(c, "m2");
  g.add_edge(x, m1);
  g.add_edge(y, m1);
  g.add_edge(x, m2);
  g.add_edge(y, m2);
  const NodeId o1 = g.add_node(a, "o1");
  const NodeId o2 = g.add_node(a, "o2");
  g.add_edge(m1, o1);
  g.add_edge(m2, o2);
  g.add_edge(z, o2);

  const Dfg r = cse(g);
  EXPECT_EQ(node_names(r), (std::vector<std::string>{"x", "y", "z", "m1", "o1", "o2"}));
  EXPECT_TRUE(has_named_edge(r, "m1", "o2"));
  EXPECT_TRUE(has_named_edge(r, "z", "o2"));
  EXPECT_EQ(r.edge_count(), 5u);
  EXPECT_EQ(compute_levels(r).critical_path_length(),
            compute_levels(g).critical_path_length());
}

TEST(CseTest, DistinctOperandsNotMerged) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  const NodeId x = g.add_node(a, "x");
  const NodeId y = g.add_node(a, "y");
  const NodeId s1 = g.add_node(a, "s1");
  const NodeId s2 = g.add_node(a, "s2");
  g.add_edge(x, s1);
  g.add_edge(x, s2);
  g.add_edge(y, s2);  // different operand sets
  const Dfg r = cse(g);
  EXPECT_EQ(r.node_count(), 4u);
  EXPECT_EQ(r.edge_count(), 3u);
}

TEST(CseTest, SourcesNeverMerged) {
  // Inputs are external and positionally distinct: two source nodes of the
  // same color must both survive.
  Dfg g;
  const ColorId a = g.intern_color("a");
  g.add_node(a, "x");
  g.add_node(a, "y");
  EXPECT_EQ(cse(g).node_count(), 2u);
}

TEST(CseTest, CascadesToFixedPoint) {
  // Duplicate subtrees: the root duplicates only merge after their
  // operands merged.
  Dfg g;
  const ColorId a = g.intern_color("a");
  const ColorId c = g.intern_color("c");
  const NodeId x = g.add_node(a, "x");
  const NodeId m1 = g.add_node(c, "m1");
  const NodeId m2 = g.add_node(c, "m2");
  g.add_edge(x, m1);
  g.add_edge(x, m2);
  const NodeId r1 = g.add_node(a, "r1");
  const NodeId r2 = g.add_node(a, "r2");
  g.add_edge(m1, r1);
  g.add_edge(m2, r2);
  const NodeId sink1 = g.add_node(c, "s1");
  const NodeId sink2 = g.add_node(c, "s2");
  g.add_edge(r1, sink1);
  g.add_edge(r2, sink2);

  const Dfg r = cse(g);
  // m1=m2, then r1=r2, then s1=s2: three merges leave one chain.
  EXPECT_EQ(node_names(r), (std::vector<std::string>{"x", "m1", "r1", "s1"}));
  EXPECT_EQ(r.edge_count(), 3u);
  EXPECT_EQ(compute_levels(r).critical_path_length(), 4);
}

TEST(CseTest, PaperGraphUnaffected) {
  // The reconstruction has no duplicate ops; CSE must be the identity.
  const Dfg g = workloads::paper_3dft();
  const Dfg r = cse(g);
  EXPECT_EQ(r.node_count(), g.node_count());
  EXPECT_EQ(r.edge_count(), g.edge_count());
}

TEST(RebalanceTest, ChainBecomesLogDepthTree) {
  const Dfg g = test::addition_chain(8);  // 8 feeders, 7-link chain
  const int before = compute_levels(g).critical_path_length();
  EXPECT_EQ(before, 1 + 7);  // feeder + chain

  const Dfg r = rebalance(g);
  r.validate();
  EXPECT_EQ(r.node_count(), g.node_count());  // same op count
  EXPECT_EQ(r.edge_count(), g.edge_count());
  const int after = compute_levels(r).critical_path_length();
  EXPECT_EQ(after, 1 + 3);  // feeder + ceil(log2(8))
}

TEST(RebalanceTest, ShortChainsLeftAlone) {
  const Dfg g = test::addition_chain(3);  // 2-link chain: below the depth-3 threshold
  const Dfg r = rebalance(g);
  EXPECT_EQ(node_names(r), node_names(g));
  ASSERT_EQ(r.edge_count(), g.edge_count());
  for (NodeId u = 0; u < g.node_count(); ++u)
    for (const NodeId v : g.succs(u)) EXPECT_TRUE(r.has_edge(u, v)) << u << "->" << v;
}

TEST(RebalanceTest, BalancedTreeIsFixpoint) {
  const Dfg fir = workloads::fir_filter(16);  // already a balanced tree
  const Dfg r = rebalance(fir);
  EXPECT_EQ(compute_levels(r).critical_path_length(),
            compute_levels(fir).critical_path_length());
}

TEST(RebalanceTest, MultiUseLinksBreakChains) {
  // A chain whose middle value has a second consumer cannot be rewritten
  // across that point.
  Dfg g = test::addition_chain(6);
  const ColorId c = *g.find_color("c");
  // Find a middle 'a' node and attach an extra consumer.
  NodeId middle = kInvalidNode;
  for (NodeId n = 0; n < g.node_count(); ++n)
    if (g.color(n) == *g.find_color("a") && !g.is_sink(n)) middle = n;
  ASSERT_NE(middle, kInvalidNode);
  const NodeId extra = g.add_node(c, "extra");
  g.add_edge(middle, extra);

  const Dfg r = rebalance(g);
  r.validate();
  // Rewriting still happens below/above the cut but never changes op count.
  EXPECT_EQ(r.node_count(), g.node_count());
}

TEST(RebalanceTest, RandomDagsKeepTheirOpCount) {
  // Only links with exactly two operands join a chain, so a chain of n
  // links always has n+1 operands and rebuilds into n additions named
  // after its links. Links with one or three operands once reached the
  // tree builder with a single operand, or needed more additions than
  // there were names, and the pass threw.
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    for (const Dfg& g : {test::random_dag(seed), test::random_add_mul_dag(seed)}) {
      const Dfg r = rebalance(g);
      EXPECT_EQ(r.node_count(), g.node_count()) << "seed " << seed;
      EXPECT_LE(compute_levels(r).critical_path_length(),
                compute_levels(g).critical_path_length())
          << "seed " << seed;
    }
  }
}

TEST(RebalanceTest, GraphWithoutAdditionsIsReturnedAsIs) {
  Dfg g;
  const ColorId b = g.intern_color("b");
  NodeId prev = g.add_node(b);
  for (int i = 1; i < 5; ++i) {  // a 4-link chain, but not of additions
    const NodeId next = g.add_node(b);
    g.add_edge(prev, next);
    prev = next;
  }
  const Dfg r = rebalance(g);
  EXPECT_EQ(node_names(r), node_names(g));
  EXPECT_EQ(r.edge_count(), g.edge_count());
  EXPECT_FALSE(r.find_color("a").has_value());
}

TEST(TransformTest, FullPhaseRunsAsOnePipeline) {
  const Dfg g = test::addition_chain(8);
  const Dfg r = TransformPipeline::from_specs({"cse", "rebalance_reductions"}).apply(g);
  r.validate();
  EXPECT_EQ(r.node_count(), g.node_count());
  EXPECT_LT(compute_levels(r).critical_path_length(),
            compute_levels(g).critical_path_length());
}

}  // namespace
}  // namespace mpsched

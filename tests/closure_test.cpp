// Reachability / transitive-closure tests, cross-checked against a naive
// DFS oracle on random graphs.
#include <gtest/gtest.h>

#include <functional>

#include "graph/closure.hpp"
#include "workloads/paper_graphs.hpp"
#include "workloads/random_dag.hpp"

namespace mpsched {
namespace {

TEST(ClosureTest, ChainReachability) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  for (int i = 0; i < 4; ++i) g.add_node(a);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const Reachability reach(g);
  EXPECT_TRUE(reach.reaches(0, 3));
  EXPECT_TRUE(reach.reaches(0, 1));
  EXPECT_FALSE(reach.reaches(3, 0));
  EXPECT_FALSE(reach.reaches(0, 0));  // a node is not its own follower
  EXPECT_EQ(reach.comparable_pair_count(), 6u);  // all C(4,2) pairs
}

TEST(ClosureTest, ParallelizableMatchesDefinition) {
  const Dfg g = workloads::paper_3dft();
  const Reachability reach(g);
  const NodeId b3 = *g.find_node("b3");
  const NodeId a21 = *g.find_node("a21");
  const NodeId a23 = *g.find_node("a23");
  const NodeId b6 = *g.find_node("b6");
  // The two span-4 parallel pairs of the reconstruction (DESIGN.md §3).
  EXPECT_TRUE(reach.parallelizable(b3, a21));
  EXPECT_TRUE(reach.parallelizable(b6, a23));
  EXPECT_FALSE(reach.parallelizable(b3, a23));
  EXPECT_FALSE(reach.parallelizable(b6, a21));
}

TEST(ClosureTest, ParallelMaskConsistentWithPredicates) {
  const Dfg g = workloads::paper_3dft();
  const Reachability reach(g);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    EXPECT_FALSE(reach.parallel_mask(u).test(u));
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (u != v) {
        EXPECT_EQ(reach.parallel_mask(u).test(v), reach.parallelizable(u, v));
      }
    }
  }
}

class ClosurePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClosurePropertyTest, MatchesDfsOracle) {
  const Dfg g = workloads::random_layered_dag(GetParam());
  const Reachability reach(g);

  // Naive DFS oracle.
  std::vector<std::vector<bool>> oracle(g.node_count(),
                                        std::vector<bool>(g.node_count(), false));
  for (NodeId start = 0; start < g.node_count(); ++start) {
    std::function<void(NodeId)> dfs = [&](NodeId v) {
      for (const NodeId s : g.succs(v)) {
        if (!oracle[start][s]) {
          oracle[start][s] = true;
          dfs(s);
        }
      }
    };
    dfs(start);
  }

  for (NodeId u = 0; u < g.node_count(); ++u)
    for (NodeId v = 0; v < g.node_count(); ++v)
      EXPECT_EQ(reach.reaches(u, v), oracle[u][v]) << u << "->" << v;
}

TEST_P(ClosurePropertyTest, TransitivityHolds) {
  const Dfg g = workloads::random_series_parallel(GetParam());
  const Reachability reach(g);
  // followers(u) must be closed: reach(u,v) ∧ reach(v,w) ⇒ reach(u,w).
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto followers = reach.followers(u).to_indices();
    for (const std::size_t v : followers)
      EXPECT_TRUE(reach.followers(static_cast<NodeId>(v)).is_subset_of(reach.followers(u)));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDags, ClosurePropertyTest,
                         ::testing::Values(2, 4, 6, 10, 14, 40, 77));

}  // namespace
}  // namespace mpsched

// Transform pipeline (graph/transform.hpp) properties:
//  * strip_redundant_edges is an exact transitive reduction — reachability
//    (and with it every antichain and every valid schedule) is unchanged,
//    no redundant edge survives, and the pass is idempotent;
//  * the edge-only passes (identity, strip_redundant_edges) preserve the
//    node set exactly (ids, colors, names);
//  * the registry resolves the five pass names and rejects unknown ones;
//  * apply_transforms runs a stack in order and the empty stack is the
//    identity.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "antichain/enumerate.hpp"
#include "graph/closure.hpp"
#include "graph/transform.hpp"
#include "test_util.hpp"
#include "workloads/corpus.hpp"

namespace mpsched {
namespace {

std::vector<std::pair<NodeId, NodeId>> edge_list(const Dfg& g) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < g.node_count(); ++u)
    for (const NodeId v : g.succs(u)) edges.emplace_back(u, v);
  return edges;
}

void expect_same_nodes(const Dfg& a, const Dfg& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  for (NodeId n = 0; n < a.node_count(); ++n) {
    EXPECT_EQ(a.color_name(a.color(n)), b.color_name(b.color(n))) << "node " << n;
    EXPECT_EQ(a.node_name(n), b.node_name(n)) << "node " << n;
  }
}

// ---------------------------------------------------------------------------
// strip_redundant_edges
// ---------------------------------------------------------------------------

TEST(StripRedundantEdges, DropsTheTextbookShortcut) {
  // a -> b -> c plus the shortcut a -> c: the shortcut carries no
  // precedence information and must go.
  Dfg g("diamond");
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const NodeId c = g.add_node("c");
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(a, c);

  const Dfg reduced = strip_redundant_edges(g);
  EXPECT_EQ(reduced.edge_count(), 2u);
  EXPECT_TRUE(reduced.has_edge(a, b));
  EXPECT_TRUE(reduced.has_edge(b, c));
  EXPECT_FALSE(reduced.has_edge(a, c));
}

TEST(StripRedundantEdges, KeepsGraphsWithoutShortcutsIntact) {
  // A pure chain and a pure fork have no redundant edges.
  for (const char* spec : {"horner(6)", "expr_tree(5)"}) {
    const Dfg g = workloads::make_workload(spec);
    const Dfg reduced = strip_redundant_edges(g);
    EXPECT_EQ(edge_list(reduced), edge_list(g)) << spec;
  }
}

class StripCorpusTest : public ::testing::TestWithParam<const char*> {};

TEST_P(StripCorpusTest, PreservesReachabilityAndLeavesNoRedundantEdge) {
  const Dfg g = workloads::make_workload(GetParam());
  const Dfg reduced = strip_redundant_edges(g);

  expect_same_nodes(g, reduced);
  EXPECT_LE(reduced.edge_count(), g.edge_count());

  // Same precedence relation — pairwise, over the full closure.
  const Reachability before(g), after(reduced);
  for (NodeId u = 0; u < g.node_count(); ++u)
    for (NodeId v = 0; v < g.node_count(); ++v)
      EXPECT_EQ(before.reaches(u, v), after.reaches(u, v))
          << GetParam() << ": reachability " << u << " -> " << v << " changed";

  // Minimality: every surviving edge u -> v must be the ONLY path u ~> v,
  // i.e. v is not reachable through any other successor of u.
  for (NodeId u = 0; u < reduced.node_count(); ++u)
    for (const NodeId v : reduced.succs(u))
      for (const NodeId w : reduced.succs(u))
        if (w != v) {
          EXPECT_FALSE(after.reaches(w, v))
              << GetParam() << ": edge " << u << " -> " << v
              << " is still redundant via " << w;
        }

  // Idempotence: a second pass is a no-op.
  EXPECT_EQ(edge_list(strip_redundant_edges(reduced)), edge_list(reduced));

  // Identical closure => identical antichain universe (what selection and
  // scheduling actually consume).
  EnumerateOptions eo;
  eo.parallel = false;
  EXPECT_EQ(enumerate_antichains(g, eo).total, enumerate_antichains(reduced, eo).total);
}

INSTANTIATE_TEST_SUITE_P(Workloads, StripCorpusTest,
                         ::testing::Values("paper_3dft", "small_example", "dft3",
                                           "dft5", "fft(8)", "direct_dft(3)",
                                           "dct8", "bitonic(8)", "layered(7)",
                                           "layered(21)", "series_parallel(11)"));

TEST(StripRedundantEdges, RandomDagSweep) {
  for (const std::uint64_t seed : {3u, 11u, 27u, 56u, 91u}) {
    const Dfg g = test::random_dag(seed);
    const Dfg reduced = strip_redundant_edges(g);
    const Reachability before(g), after(reduced);
    for (NodeId u = 0; u < g.node_count(); ++u)
      for (NodeId v = 0; v < g.node_count(); ++v)
        ASSERT_EQ(before.reaches(u, v), after.reaches(u, v)) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// registry + pipeline
// ---------------------------------------------------------------------------

TEST(TransformRegistry, ResolvesKnownNamesAndRejectsUnknown) {
  EXPECT_EQ(transform_names(),
            (std::vector<std::string>{"identity", "strip_redundant_edges", "cse",
                                      "rebalance_reductions", "mac_fusion"}));
  for (const std::string& name : transform_names()) {
    const DfgTransform* t = find_transform(name);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->name, name);
    EXPECT_FALSE(t->description.empty());
    EXPECT_EQ(&get_transform(name), t);
  }
  EXPECT_EQ(find_transform("bogus"), nullptr);
  EXPECT_THROW(get_transform("bogus"), std::invalid_argument);
  EXPECT_EQ(test::thrown_message([] { (void)get_transform("bogus"); }),
            "unknown transform 'bogus' (known: identity, strip_redundant_edges, cse, "
            "rebalance_reductions, mac_fusion)");
  EXPECT_THROW(apply_transforms({"identity", "bogus"}, workloads::make_workload("dft3")),
               std::invalid_argument);
}

TEST(TransformPipeline, EmptyPipelineIsTheIdentity) {
  const Dfg g = workloads::make_workload("dft3");
  const Dfg out = apply_transforms({}, g);
  expect_same_nodes(g, out);
  EXPECT_EQ(edge_list(out), edge_list(g));
}

TEST(TransformPipeline, IdentityTransformChangesNothing) {
  const Dfg g = workloads::make_workload("paper_3dft");
  const Dfg out = apply_transforms({"identity"}, g);
  expect_same_nodes(g, out);
  EXPECT_EQ(edge_list(out), edge_list(g));
}

TEST(TransformPipeline, StacksComposeInOrder) {
  const Dfg g = workloads::make_workload("paper_3dft");
  const Dfg out = apply_transforms({"identity", "strip_redundant_edges", "identity"}, g);
  EXPECT_EQ(edge_list(out), edge_list(strip_redundant_edges(g)));
}

}  // namespace
}  // namespace mpsched

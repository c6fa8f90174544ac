// Clustering phase: the `mac_fusion` pass (single-use condition, cycle
// safety, color bookkeeping) and its effect on schedules.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "graph/levels.hpp"
#include "graph/transform.hpp"
#include "test_util.hpp"
#include "workloads/kernels.hpp"

namespace mpsched {
namespace {

Dfg fuse(const Dfg& g) { return get_transform("mac_fusion").apply(g); }

std::size_t count_color(const Dfg& g, const std::string& color) {
  const std::optional<ColorId> id = g.find_color(color);
  std::size_t count = 0;
  for (NodeId n = 0; n < g.node_count(); ++n) count += id && g.color(n) == *id;
  return count;
}

TEST(ClusterTest, FusesMulIntoAdd) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  const ColorId c = g.intern_color("c");
  const NodeId mul = g.add_node(c, "mul");
  const NodeId add = g.add_node(a, "add");
  g.add_edge(mul, add);

  const Dfg r = fuse(g);
  ASSERT_EQ(r.node_count(), 1u);
  EXPECT_EQ(r.node_name(0), "add");  // the fused node keeps the consumer's name
  EXPECT_EQ(r.color_name(r.color(0)), "m");
  EXPECT_EQ(r.edge_count(), 0u);
}

TEST(ClusterTest, MultiUseProducerNotFused) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  const ColorId c = g.intern_color("c");
  const NodeId mul = g.add_node(c, "mul");
  const NodeId add1 = g.add_node(a, "add1");
  const NodeId add2 = g.add_node(a, "add2");
  g.add_edge(mul, add1);
  g.add_edge(mul, add2);  // the product escapes → no fusion
  const Dfg r = fuse(g);
  EXPECT_EQ(r.node_count(), 3u);
  EXPECT_EQ(r.edge_count(), 2u);
  EXPECT_FALSE(r.find_color("m").has_value());
}

TEST(ClusterTest, OneFusionPerConsumer) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  const ColorId c = g.intern_color("c");
  const NodeId m1 = g.add_node(c, "m1");
  const NodeId m2 = g.add_node(c, "m2");
  const NodeId add = g.add_node(a, "add");
  g.add_edge(m1, add);
  g.add_edge(m2, add);  // a+b*c*... only one mul can ride along
  const Dfg r = fuse(g);
  ASSERT_EQ(r.node_count(), 2u);
  EXPECT_EQ(count_color(r, "m"), 1u);
  EXPECT_EQ(count_color(r, "c"), 1u);
  EXPECT_EQ(r.edge_count(), 1u);  // the other mul feeds the MAC
}

TEST(ClusterTest, CycleHazardPreventsFusion) {
  // mul(c) → x(b) → add(a) and mul → add: fusing mul into add would close
  // the cycle add → x → add. The pass needs no reachability check for
  // this: a producer it fuses has its consumer as its ONLY successor, so
  // every path out of it starts with that edge, and reaching another
  // predecessor of the consumer (here x) takes a second successor, which
  // the single-use rule already rejects.
  Dfg g;
  const ColorId a = g.intern_color("a");
  const ColorId b = g.intern_color("b");
  const ColorId c = g.intern_color("c");
  const NodeId mul = g.add_node(c, "mul");
  const NodeId x = g.add_node(b, "x");
  const NodeId add = g.add_node(a, "add");
  g.add_edge(mul, x);
  g.add_edge(mul, add);
  g.add_edge(x, add);
  const Dfg r = fuse(g);
  EXPECT_EQ(r.node_count(), 3u);
  EXPECT_EQ(r.edge_count(), 3u);
  EXPECT_FALSE(r.find_color("m").has_value());
  EXPECT_TRUE(r.is_dag());
}

TEST(ClusterTest, IndirectCycleHazardDetected) {
  // u(c) → v(a) direct, and u → w1(b) → w2(b) → v indirect: fusing u,v
  // would create a cycle through w1 and w2. The longer detour changes
  // nothing: u still has two successors, so the single-use rule keeps it
  // apart, while the single-use multiplication p beside it still fuses.
  Dfg g;
  const ColorId a = g.intern_color("a");
  const ColorId b = g.intern_color("b");
  const ColorId c = g.intern_color("c");
  const NodeId u = g.add_node(c, "u");
  const NodeId w1 = g.add_node(b, "w1");
  const NodeId w2 = g.add_node(b, "w2");
  const NodeId v = g.add_node(a, "v");
  const NodeId p = g.add_node(c, "p");
  g.add_edge(u, w1);
  g.add_edge(w1, w2);
  g.add_edge(w2, v);
  g.add_edge(u, v);
  g.add_edge(p, v);
  const Dfg r = fuse(g);
  ASSERT_EQ(r.node_count(), 4u);  // p fused into v
  EXPECT_EQ(count_color(r, "m"), 1u);
  EXPECT_EQ(count_color(r, "c"), 1u);  // u survives
  EXPECT_EQ(r.edge_count(), 4u);
  EXPECT_TRUE(r.is_dag());
}

TEST(ClusterTest, FirFilterFusesIntoMacs) {
  const Dfg fir = workloads::fir_filter(8);  // 8 muls + 7-adder tree
  const Dfg r = fuse(fir);
  // The first adder layer takes mul inputs: 4 fusions (one per adder).
  EXPECT_EQ(r.node_count(), fir.node_count() - 4);
  EXPECT_EQ(count_color(r, "m"), 4u);
  EXPECT_EQ(count_color(r, "c"), 4u);
  EXPECT_EQ(r.edge_count(), fir.edge_count() - 4);  // each fused edge is gone
}

TEST(ClusterTest, UnknownRuleColorsIgnored) {
  // The rule fuses 'c' into 'a'; a graph without both is returned as is.
  Dfg g;
  const ColorId a = g.intern_color("a");
  const ColorId b = g.intern_color("b");
  g.add_edge(g.add_node(b, "x"), g.add_node(a, "y"));
  const Dfg r = fuse(g);
  EXPECT_EQ(r.node_count(), 2u);
  EXPECT_EQ(r.edge_count(), 1u);
  EXPECT_FALSE(r.find_color("m").has_value());
}

TEST(ClusterTest, PipelineWithClusteringSchedulesFewerOps) {
  engine::Engine eng;
  const engine::Job plain = test::flow_job(workloads::fir_filter(16), 3);
  engine::Job clustered = plain;
  clustered.transforms = {"mac_fusion"};
  const test::Checked rp = test::run_checked(eng, plain);
  const test::Checked rc = test::run_checked(eng, clustered);
  ASSERT_TRUE(rp.ok()) << rp.why();
  ASSERT_TRUE(rc.ok()) << rc.why();
  EXPECT_LT(rc.check.dfg.node_count(), rp.check.dfg.node_count());
  // Fewer operations execute, but the extra 'm' color competes for the
  // same Pdef pattern slots, so cycle counts move within a small band
  // rather than strictly improving.
  EXPECT_LE(rc.result.cycles, rp.result.cycles + 3);
  EXPECT_TRUE(rc.check.dfg.find_color("m").has_value());
  EXPECT_LT(rc.check.execution.operations, rp.check.execution.operations);
}

TEST(ClusterTest, PipelineWithTransformShortensCriticalPath) {
  // Horner is a pure chain of mul/add: rebalancing cannot apply (not a
  // same-color chain), but an addition chain benefits.
  engine::Engine eng;
  const engine::Job plain = test::flow_job(test::addition_chain(12), 2);
  engine::Job transformed = plain;
  transformed.transforms = {"cse", "rebalance_reductions"};
  const test::Checked rp = test::run_checked(eng, plain);
  const test::Checked rt = test::run_checked(eng, transformed);
  ASSERT_TRUE(rp.ok() && rt.ok()) << rp.why() << rt.why();
  EXPECT_LT(rt.result.cycles, rp.result.cycles);
}

}  // namespace
}  // namespace mpsched

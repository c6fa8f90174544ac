// The four-phase compiler pipeline: end-to-end success on real workloads,
// phase failure routing, fixed-pattern mode, and agreement with the engine
// on every transform stack.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compiler/pipeline.hpp"
#include "engine/engine.hpp"
#include "pattern/parse.hpp"
#include "test_util.hpp"
#include "workloads/corpus.hpp"
#include "workloads/dft.hpp"
#include "workloads/kernels.hpp"
#include "workloads/paper_graphs.hpp"

namespace mpsched {
namespace {

TEST(CompilerTest, CompilesPaper3DftEndToEnd) {
  const Dfg g = workloads::paper_3dft();
  CompileOptions options;
  options.pattern_count = 4;
  const CompileReport report = compile(g, options);
  ASSERT_TRUE(report.success) << report.error;
  EXPECT_EQ(report.nodes, 24u);
  EXPECT_LE(report.patterns.size(), 4u);
  EXPECT_GE(report.patterns.size(), 1u);
  EXPECT_GE(report.schedule.cycles, 5u);
  EXPECT_TRUE(report.execution.ok);
  EXPECT_LE(report.execution.distinct_patterns, 4u);
  const std::string text = report.to_string(g);
  EXPECT_NE(text.find("OK"), std::string::npos);
  EXPECT_NE(text.find("scheduling"), std::string::npos);
}

TEST(CompilerTest, CompilesKernelSuite) {
  for (const Dfg& g : {workloads::winograd_dft5(), workloads::fir_filter(16),
                       workloads::dct8(), workloads::matmul(3)}) {
    CompileOptions options;
    options.pattern_count = 4;
    const CompileReport report = compile(g, options);
    EXPECT_TRUE(report.success) << g.name() << ": " << report.error;
  }
}

TEST(CompilerTest, FixedPatternsSkipSelection) {
  const Dfg g = workloads::paper_3dft();
  CompileOptions options;
  options.fixed_patterns = parse_pattern_set(g, "aabcc aaacc");
  const CompileReport report = compile(g, options);
  ASSERT_TRUE(report.success) << report.error;
  EXPECT_EQ(report.patterns.size(), 2u);
  EXPECT_TRUE(report.selection.patterns.empty());
  EXPECT_EQ(report.schedule.cycles, 7u);  // the Table 2 schedule
}

TEST(CompilerTest, FixedPatternsWithoutCoverageFail) {
  const Dfg g = workloads::paper_3dft();
  CompileOptions options;
  options.fixed_patterns = parse_pattern_set(g, "aaaaa");
  const CompileReport report = compile(g, options);
  EXPECT_FALSE(report.success);
  EXPECT_NE(report.error.find("scheduling"), std::string::npos);
}

TEST(CompilerTest, OversizedPatternFailsTileValidation) {
  const Dfg g = workloads::paper_3dft();
  CompileOptions options;
  options.tile.alu_count = 3;
  options.fixed_patterns = parse_pattern_set(g, "aabcc");  // 5 slots > 3 ALUs
  const CompileReport report = compile(g, options);
  EXPECT_FALSE(report.success);
  EXPECT_NE(report.error.find("ALU"), std::string::npos);
}

TEST(CompilerTest, CyclicGraphFailsTransformationPhase) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  const NodeId u = g.add_node(a), v = g.add_node(a);
  g.add_edge(u, v);
  g.add_edge(v, u);
  const CompileReport report = compile(g);
  EXPECT_FALSE(report.success);
  EXPECT_NE(report.error.find("transformation"), std::string::npos);
}

TEST(CompilerTest, ReportMentionsFailureInToString) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  const NodeId u = g.add_node(a), v = g.add_node(a);
  g.add_edge(u, v);
  g.add_edge(v, u);
  const CompileReport report = compile(g);
  EXPECT_NE(report.to_string(g).find("FAILED"), std::string::npos);
}

TEST(CompilerTest, SmallerTilesNeedMoreCycles) {
  const Dfg g = workloads::winograd_dft5();
  CompileOptions big;
  big.pattern_count = 4;
  CompileOptions small = big;
  small.tile.alu_count = 2;
  const CompileReport rb = compile(g, big);
  const CompileReport rs = compile(g, small);
  ASSERT_TRUE(rb.success) << rb.error;
  ASSERT_TRUE(rs.success) << rs.error;
  EXPECT_GT(rs.schedule.cycles, rb.schedule.cycles);
}

TEST(CompilerTest, AgreesWithTheEngineOnEveryAblationStack) {
  // compile() and a Job name their passes alike and run them through one
  // registry, so with the same select options both schedule the same
  // effective graph the same way: ablation G's four stacks on each graph.
  const std::vector<Dfg> graphs = {test::addition_chain(12),  // rebalancing bites
                                   workloads::make_workload("fir(16)"),
                                   workloads::make_workload("dft5"),
                                   workloads::make_workload("matmul(3)"),
                                   workloads::make_workload("paper_3dft")};
  const std::vector<std::vector<std::string>> stacks = {
      {},
      {"cse", "rebalance_reductions"},
      {"mac_fusion"},
      {"cse", "rebalance_reductions", "mac_fusion"}};

  engine::Engine eng;
  for (const Dfg& g : graphs) {
    for (const std::vector<std::string>& stack : stacks) {
      CompileOptions options;
      options.pattern_count = 3;
      options.transforms = stack;
      const CompileReport report = compile(g, options);
      ASSERT_TRUE(report.success) << g.name() << ": " << report.error;

      engine::Job job;
      job.dfg = g;
      job.transforms = stack;
      job.select.pattern_count = options.pattern_count;
      job.select.capacity = options.tile.alu_count;
      job.select.span_limit = options.span_limit;
      const engine::JobResult r = eng.run(job);
      ASSERT_TRUE(r.success) << g.name() << ": " << r.error;

      const std::string where = g.name() + " [" + std::to_string(stack.size()) + " passes]";
      const Dfg& effective = report.scheduled_dfg;
      EXPECT_EQ(r.nodes, effective.node_count()) << where;
      EXPECT_EQ(r.cycles, report.schedule.cycles) << where;
      std::vector<std::string> patterns;
      for (const Pattern& p : report.patterns) patterns.push_back(p.to_string(effective));
      EXPECT_EQ(r.patterns, patterns) << where;
      ASSERT_EQ(r.node_cycles.size(), effective.node_count()) << where;
      for (NodeId n = 0; n < effective.node_count(); ++n)
        EXPECT_EQ(r.node_cycles[n], report.schedule.schedule.cycle_of(n)) << where << " node " << n;
    }
  }
}

}  // namespace
}  // namespace mpsched

// The Montium compiler flow (paper §1) as engine jobs: the engine runs the
// transform passes, pattern selection and scheduling, and
// engine::check_result re-checks the result against §4 and runs ALU
// allocation and execution on the tile. Also the check's own gates: each
// broken result it must reject, and the tile's reason for a result that
// does not fit the tile.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "test_util.hpp"
#include "workloads/corpus.hpp"
#include "workloads/dft.hpp"
#include "workloads/kernels.hpp"
#include "workloads/paper_graphs.hpp"

namespace mpsched {
namespace {

Dfg two_node_cycle() {
  Dfg g;
  const ColorId a = g.intern_color("a");
  const NodeId u = g.add_node(a), v = g.add_node(a);
  g.add_edge(u, v);
  g.add_edge(v, u);
  return g;
}

TEST(CompilerTest, CompilesPaper3DftEndToEnd) {
  engine::Engine eng;
  const test::Checked c = test::run_checked(eng, test::flow_job(workloads::paper_3dft(), 4));
  ASSERT_TRUE(c.ok()) << c.why();
  EXPECT_EQ(c.result.nodes, 24u);
  EXPECT_LE(c.result.patterns.size(), 4u);
  EXPECT_GE(c.result.patterns.size(), 1u);
  EXPECT_GE(c.result.cycles, 5u);
  EXPECT_EQ(c.check.execution.cycles, c.result.cycles);
  EXPECT_LE(c.check.execution.distinct_patterns, 4u);
  EXPECT_NE(c.check.execution.to_string().find("executed 24 ops"), std::string::npos);
}

TEST(CompilerTest, CompilesKernelSuite) {
  engine::Engine eng;
  for (const Dfg& g : {workloads::winograd_dft5(), workloads::fir_filter(16),
                       workloads::dct8(), workloads::matmul(3)}) {
    const test::Checked c = test::run_checked(eng, test::flow_job(g, 4));
    EXPECT_TRUE(c.ok()) << g.name() << ": " << c.why();
  }
}

TEST(CompilerTest, CyclicGraphFailsTransformationPhase) {
  engine::Engine eng;
  engine::Job job = test::flow_job(two_node_cycle());
  job.transforms = {"cse"};
  const engine::JobResult r = eng.run(job);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.error.rfind("pipeline: ", 0), 0u) << r.error;
  EXPECT_NE(r.error.find("cycle"), std::string::npos) << r.error;
}

TEST(CompilerTest, ReportMentionsFailureInToString) {
  engine::Engine eng;
  const test::Checked c = test::run_checked(eng, test::flow_job(two_node_cycle()));
  EXPECT_FALSE(c.result.success);
  EXPECT_EQ(c.check.error, "job failed: " + c.result.error);
  EXPECT_NE(c.check.execution.to_string().find("FAILED"), std::string::npos);
}

TEST(CompilerTest, SmallerTilesNeedMoreCycles) {
  engine::Engine eng;
  const Dfg g = workloads::winograd_dft5();
  const test::Checked big = test::run_checked(eng, test::flow_job(g, 4, 5));
  const test::Checked small = test::run_checked(eng, test::flow_job(g, 4, 2));
  ASSERT_TRUE(big.ok()) << big.why();
  ASSERT_TRUE(small.ok()) << small.why();
  EXPECT_GT(small.result.cycles, big.result.cycles);
  for (const auto& row : small.check.allocation.alu_of) EXPECT_EQ(row.size(), 2u);
}

TEST(CompilerTest, AgreesWithTheEngineOnEveryAblationStack) {
  // The check re-applies a job's passes itself, so on ablation G's four
  // stacks the graph it rebuilds and the tile run it derives must agree
  // with what the engine reported for each graph.
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
      engine::Job job = test::flow_job(g, 3);
      job.transforms = stack;
      const test::Checked c = test::run_checked(eng, job);
      const std::string where = g.name() + " [" + std::to_string(stack.size()) + " passes]";
      ASSERT_TRUE(c.ok()) << where << ": " << c.why();
      EXPECT_EQ(c.result.nodes, c.check.dfg.node_count()) << where;
      EXPECT_EQ(c.result.edges, c.check.dfg.edge_count()) << where;
      EXPECT_EQ(c.check.execution.operations, c.result.nodes) << where;
      EXPECT_EQ(c.check.execution.cycles, c.result.cycles) << where;
      EXPECT_LE(c.check.execution.distinct_patterns, c.result.patterns.size()) << where;
    }
  }
}

// ---------------------------------------------------------------------------
// engine::check_result's gates: a broken result sets `error`; a result
// that does not fit the tile reads `execution.ok == false` instead.
// ---------------------------------------------------------------------------

class CheckResultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    valid = eng.run(job);
    ASSERT_TRUE(valid.success) << valid.error;
    ASSERT_EQ(engine::check_result(job, valid).error, "");
  }

  engine::Engine eng;
  engine::Job job = test::flow_job(workloads::paper_3dft(), 4);
  engine::JobResult valid;
};

TEST_F(CheckResultTest, NodeInItsPredecessorsCycleIsAnError) {
  engine::JobResult moved = valid;
  const Dfg& g = job.dfg;
  NodeId n = 0;
  while (g.preds(n).empty()) ++n;
  moved.node_cycles[n] = moved.node_cycles[g.preds(n).front()];
  const std::string error = engine::check_result(job, moved).error;
  EXPECT_NE(error.find("dependency violated"), std::string::npos) << error;
}

TEST_F(CheckResultTest, WrongCyclesIsAnError) {
  engine::JobResult wrong = valid;
  ++wrong.cycles;
  const std::string error = engine::check_result(job, wrong).error;
  EXPECT_NE(error.find("cycles reads"), std::string::npos) << error;
}

TEST_F(CheckResultTest, ShortNodeCyclesIsAnError) {
  engine::JobResult shorter = valid;
  shorter.node_cycles.pop_back();
  const std::string error = engine::check_result(job, shorter).error;
  EXPECT_NE(error.find("node_cycles holds 23 entries"), std::string::npos) << error;
}

TEST_F(CheckResultTest, FailedJobIsAnError) {
  engine::Job bad = job;
  bad.backend = "bogus";
  const engine::JobResult failed = eng.run(bad);
  ASSERT_FALSE(failed.success);
  EXPECT_EQ(engine::check_result(bad, failed).error, "job failed: " + failed.error);
}

TEST_F(CheckResultTest, NarrowerTileIsATileFailureNotAnError) {
  engine::Job narrow = job;
  narrow.select.capacity = 3;  // the selected patterns use 5 slots
  const engine::ResultCheck check = engine::check_result(narrow, valid);
  EXPECT_EQ(check.error, "");
  EXPECT_FALSE(check.execution.ok);
  EXPECT_NE(check.execution.error.find("the tile has 3 ALUs"), std::string::npos)
      << check.execution.error;
}

}  // namespace
}  // namespace mpsched

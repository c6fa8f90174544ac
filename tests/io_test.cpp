// Serialization round-trips and parse-error diagnostics.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "engine/analysis_cache.hpp"
#include "io/dfg_io.hpp"
#include "io/graph_intern.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"
#include "workloads/corpus.hpp"
#include "workloads/paper_graphs.hpp"

namespace mpsched {
namespace {

TEST(DfgIoTest, RoundTripPreservesEverything) {
  const Dfg original = workloads::paper_3dft();
  const Dfg loaded = dfg_from_text(dfg_to_text(original));
  EXPECT_EQ(loaded.name(), original.name());
  ASSERT_EQ(loaded.node_count(), original.node_count());
  ASSERT_EQ(loaded.edge_count(), original.edge_count());
  for (NodeId n = 0; n < original.node_count(); ++n) {
    EXPECT_EQ(loaded.node_name(n), original.node_name(n));
    EXPECT_EQ(loaded.color_name(loaded.color(n)), original.color_name(original.color(n)));
    EXPECT_EQ(loaded.succs(n), original.succs(n));  // adjacency order too
  }
}

TEST(DfgIoTest, CommentsAndBlankLinesIgnored) {
  const Dfg g = dfg_from_text(
      "# a comment\n"
      "dfg test\n"
      "\n"
      "node x a\n"
      "node y a\n"
      "edge x y\n");
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(DfgIoTest, ParseErrorsCarryLineNumbers) {
  try {
    (void)dfg_from_text("dfg t\nnode x a\nedge x zzz\n");
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("zzz"), std::string::npos);
  }
}

TEST(DfgIoTest, RejectsDuplicates) {
  EXPECT_THROW((void)dfg_from_text("node x a\nnode x a\n"), std::invalid_argument);
  EXPECT_THROW((void)dfg_from_text("node x a\nnode y a\nedge x y\nedge x y\n"),
               std::invalid_argument);
  EXPECT_THROW((void)dfg_from_text("dfg a\ndfg b\n"), std::invalid_argument);
  EXPECT_THROW((void)dfg_from_text("frob x\n"), std::invalid_argument);
}

TEST(DfgIoTest, RejectsCyclicGraphAtLoad) {
  EXPECT_THROW(
      (void)dfg_from_text("node x a\nnode y a\nedge x y\nedge y x\n"),
      std::runtime_error);
}

TEST(DfgIoTest, FileSaveAndLoad) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mpsched_io_test.dfg").string();
  const Dfg original = workloads::small_example();
  save_dfg(original, path);
  const Dfg loaded = load_dfg(path);
  EXPECT_EQ(loaded.node_count(), original.node_count());
  std::remove(path.c_str());
  EXPECT_THROW((void)load_dfg(path), std::runtime_error);  // gone now
}

// -- graph intern ---------------------------------------------------------

using test::thrown_message;

TEST(GraphInternTest, HoldsAtMostTheBoundAndMatchesFreshBuilds) {
  obs::Counter built;
  obs::Counter reused;
  GraphIntern intern(&built, &reused);
  const std::size_t specs = GraphIntern::kMaxGraphs + 100;
  const auto spec_of = [](std::size_t k) { return "expr_tree(" + std::to_string(k) + ")"; };
  for (std::size_t k = 0; k < specs; ++k) {
    const Dfg g = intern.workload(spec_of(k));
    ASSERT_LE(intern.size(), GraphIntern::kMaxGraphs);
    ASSERT_EQ(test::graph_key(g), test::graph_key(workloads::make_workload(spec_of(k))))
        << spec_of(k);
  }
  // Full at kMaxGraphs, so the next insert emptied it first.
  EXPECT_EQ(intern.size(), specs - GraphIntern::kMaxGraphs);
  EXPECT_EQ(built.value(), specs);
  EXPECT_EQ(reused.value(), 0u);

  // A held spec is a hit: no build, and both answers share one block.
  const Dfg a = intern.workload(spec_of(specs - 1));
  const Dfg b = intern.workload(spec_of(specs - 1));
  EXPECT_EQ(&a.succs(0), &b.succs(0));
  EXPECT_EQ(built.value(), specs);
  EXPECT_EQ(reused.value(), 2u);
}

TEST(GraphInternTest, FailedBuildThrowsTheBuildersErrorAndHoldsNothing) {
  GraphIntern intern;
  (void)intern.workload("dct8");
  const std::string unknown = thrown_message([] { (void)workloads::make_workload("nope(3)"); });
  ASSERT_FALSE(unknown.empty());
  EXPECT_THROW((void)intern.workload("nope(3)"), std::invalid_argument);
  EXPECT_EQ(thrown_message([&] { (void)intern.workload("nope(3)"); }), unknown);

  const std::string bad_text = "dfg d\nedge x y\n";
  const std::string malformed = thrown_message([&] { (void)dfg_from_text(bad_text); });
  ASSERT_FALSE(malformed.empty());
  EXPECT_EQ(thrown_message([&] { (void)intern.text(bad_text); }), malformed);
  EXPECT_EQ(intern.size(), 1u);
}

TEST(GraphInternTest, InlineTextIsInternedApartFromSpecs) {
  GraphIntern intern;
  const std::string text = dfg_to_text(workloads::paper_3dft());
  const Dfg a = intern.text(text);
  const Dfg b = intern.text(text);
  EXPECT_EQ(&a.succs(0), &b.succs(0));
  EXPECT_EQ(test::graph_key(a), test::graph_key(dfg_from_text(text)));
  (void)intern.workload("paper_3dft");
  EXPECT_EQ(intern.size(), 2u);
}

TEST(GraphInternTest, WeightBoundEmptiesTheInternOrSkipsTheEntry) {
  // An entry weighs its nodes, its edges and its source bytes, so padding
  // a text with a comment makes it heavy.
  const auto padded = [](const std::string& name, std::size_t bytes) {
    return "# " + std::string(bytes, 'x') + "\ndfg " + name + "\nnode n0 a\n";
  };
  GraphIntern intern;
  const Dfg heavy = intern.text(padded("heavy", GraphIntern::kMaxWeight));
  EXPECT_EQ(heavy.name(), "heavy");
  EXPECT_EQ(intern.size(), 0u);  // heavier than the whole bound: not held
  (void)intern.workload("dct8");
  (void)intern.text(padded("first", GraphIntern::kMaxWeight / 2));
  EXPECT_EQ(intern.size(), 2u);
  // Holding this one too would pass the bound, so the intern empties first.
  const Dfg second = intern.text(padded("second", GraphIntern::kMaxWeight / 2));
  EXPECT_EQ(second.name(), "second");
  EXPECT_EQ(intern.size(), 1u);
}

}  // namespace
}  // namespace mpsched

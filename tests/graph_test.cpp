// Unit tests for the DFG substrate: construction, adjacency order,
// validation, topological ordering, shared storage (copies share one
// block; a mutator on a shared block clones it first), and the content
// hash the block memoizes (pinned keys, mutators clear it, racing threads
// publish it once).
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "engine/analysis_cache.hpp"
#include "graph/dfg.hpp"
#include "workloads/corpus.hpp"

namespace mpsched {
namespace {

TEST(DfgTest, EmptyGraph) {
  Dfg g("empty");
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.is_dag());
  EXPECT_TRUE(g.topo_order().empty());
}

TEST(DfgTest, InternColorIsIdempotent) {
  Dfg g;
  const ColorId a1 = g.intern_color("a");
  const ColorId a2 = g.intern_color("a");
  const ColorId b = g.intern_color("b");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(g.color_count(), 2u);
  EXPECT_EQ(g.color_name(a1), "a");
}

TEST(DfgTest, AddNodeAssignsSequentialIds) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  EXPECT_EQ(g.add_node(a, "x"), 0u);
  EXPECT_EQ(g.add_node(a, "y"), 1u);
  EXPECT_EQ(g.node_name(0), "x");
  EXPECT_EQ(g.node_name(1), "y");
}

TEST(DfgTest, AutoNamesAreGenerated) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  const NodeId n = g.add_node(a);
  EXPECT_EQ(g.node_name(n), "n0");
}

TEST(DfgTest, DuplicateNodeNameThrows) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  g.add_node(a, "x");
  EXPECT_THROW(g.add_node(a, "x"), std::invalid_argument);
}

TEST(DfgTest, AutoNamesSkipNamesAlreadyTaken) {
  // A builder that copies names (node 0 is called "n1") and then adds
  // unnamed nodes: node 1 cannot be "n1", nor "n1_1" once that is taken.
  Dfg g;
  const ColorId a = g.intern_color("a");
  g.add_node(a, "n1");
  g.add_node(a, "n2_1");
  g.add_node(a, "n2");
  EXPECT_EQ(g.node_name(g.add_node(a)), "n3");
  g.add_node(a, "n5");
  g.add_node(a, "n5_1");
  EXPECT_EQ(g.node_name(g.add_node(a)), "n6");
  Dfg copied;
  copied.intern_color("a");
  copied.add_node(a, "n1");
  copied.add_node(a, "n1_1");
  EXPECT_EQ(copied.node_name(copied.add_node(a)), "n2");
  Dfg clash;
  clash.intern_color("a");
  clash.add_node(a, "n1");
  EXPECT_EQ(clash.node_name(clash.add_node(a)), "n1_1");
  EXPECT_EQ(clash.find_node("n1"), std::optional<NodeId>(0));
  EXPECT_EQ(clash.find_node("n1_1"), std::optional<NodeId>(1));
  // Explicit duplicates stay rejected, auto-generated names included.
  EXPECT_THROW(clash.add_node(a, "n1"), std::invalid_argument);
  EXPECT_THROW(clash.add_node(a, "n1_1"), std::invalid_argument);
}

TEST(DfgTest, UnknownColorIdThrows) {
  Dfg g;
  EXPECT_THROW(g.add_node(ColorId{3}, "x"), std::invalid_argument);
}

TEST(DfgTest, EdgesPreserveInsertionOrder) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  const NodeId u = g.add_node(a, "u");
  const NodeId v = g.add_node(a, "v");
  const NodeId w = g.add_node(a, "w");
  const NodeId x = g.add_node(a, "x");
  g.add_edge(u, x);
  g.add_edge(u, v);
  g.add_edge(u, w);
  ASSERT_EQ(g.succs(u).size(), 3u);
  EXPECT_EQ(g.succs(u)[0], x);
  EXPECT_EQ(g.succs(u)[1], v);
  EXPECT_EQ(g.succs(u)[2], w);
  EXPECT_EQ(g.preds(x).front(), u);
}

TEST(DfgTest, SelfLoopRejected) {
  Dfg g;
  const NodeId u = g.add_node(g.intern_color("a"), "u");
  EXPECT_THROW(g.add_edge(u, u), std::invalid_argument);
}

TEST(DfgTest, DuplicateEdgeRejected) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  const NodeId u = g.add_node(a, "u");
  const NodeId v = g.add_node(a, "v");
  g.add_edge(u, v);
  EXPECT_THROW(g.add_edge(u, v), std::invalid_argument);
}

TEST(DfgTest, CycleDetection) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  const NodeId u = g.add_node(a, "u");
  const NodeId v = g.add_node(a, "v");
  const NodeId w = g.add_node(a, "w");
  g.add_edge(u, v);
  g.add_edge(v, w);
  g.add_edge(w, u);
  EXPECT_FALSE(g.is_dag());
  EXPECT_THROW(g.validate(), std::runtime_error);
  EXPECT_THROW((void)g.topo_order(), std::runtime_error);
}

TEST(DfgTest, TopoOrderRespectsEdges) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  const NodeId u = g.add_node(a, "u");
  const NodeId v = g.add_node(a, "v");
  const NodeId w = g.add_node(a, "w");
  g.add_edge(v, u);
  g.add_edge(u, w);
  const auto order = g.topo_order();
  ASSERT_EQ(order.size(), 3u);
  std::vector<std::size_t> pos(3);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  EXPECT_LT(pos[v], pos[u]);
  EXPECT_LT(pos[u], pos[w]);
}

TEST(DfgTest, FindNodeAndColor) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  const NodeId u = g.add_node(a, "u");
  EXPECT_EQ(g.find_node("u"), std::optional<NodeId>(u));
  EXPECT_FALSE(g.find_node("nope").has_value());
  EXPECT_EQ(g.find_color("a"), std::optional<ColorId>(a));
  EXPECT_FALSE(g.find_color("z").has_value());
}

TEST(DfgTest, UsedColorsAreAscendingAndSkipUnusedColors) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  const ColorId unused = g.intern_color("u");
  const ColorId c = g.intern_color("c");
  EXPECT_TRUE(g.used_colors().empty());  // interned, but no node uses them
  g.add_node(c, "x");
  g.add_node(a, "y");
  g.add_node(c, "z");
  EXPECT_EQ(g.used_colors(), (std::vector<ColorId>{a, c}));
  g.add_node(unused, "w");
  EXPECT_EQ(g.used_colors(), (std::vector<ColorId>{a, unused, c}));
}

TEST(DfgTest, SourceAndSinkPredicates) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  const NodeId u = g.add_node(a, "u");
  const NodeId v = g.add_node(a, "v");
  g.add_edge(u, v);
  EXPECT_TRUE(g.is_source(u));
  EXPECT_FALSE(g.is_sink(u));
  EXPECT_TRUE(g.is_sink(v));
  EXPECT_FALSE(g.is_source(v));
}

// -- shared storage ---------------------------------------------------------

/// Everything a reader can observe of a graph.
struct Snapshot {
  engine::CacheKey key;
  std::string name;
  std::vector<std::string> colors;
  std::vector<std::string> node_names;
  std::vector<std::vector<NodeId>> preds;
  std::vector<std::vector<NodeId>> succs;

  bool operator==(const Snapshot&) const = default;
};

Snapshot snapshot(const Dfg& g) {
  Snapshot s{engine::AnalysisCache::graph_key(g), g.name(), {}, {}, {}, {}};
  for (ColorId c = 0; c < g.color_count(); ++c) s.colors.push_back(g.color_name(c));
  for (NodeId n = 0; n < g.node_count(); ++n) {
    s.node_names.push_back(g.node_name(n));
    s.preds.push_back(g.preds(n));
    s.succs.push_back(g.succs(n));
  }
  return s;
}

/// u → {v, w} → x, with colors a and b.
Dfg diamond() {
  Dfg g("diamond");
  const ColorId a = g.intern_color("a");
  const ColorId b = g.intern_color("b");
  const NodeId u = g.add_node(a, "u");
  const NodeId v = g.add_node(b, "v");
  const NodeId w = g.add_node(a, "w");
  const NodeId x = g.add_node(b, "x");
  g.add_edge(u, v);
  g.add_edge(u, w);
  g.add_edge(v, x);
  g.add_edge(w, x);
  return g;
}

/// One call of each mutator, each changing what snapshot() observes.
std::vector<std::pair<const char*, std::function<void(Dfg&)>>> mutators() {
  return {
      {"set_name", [](Dfg& g) { g.set_name("renamed"); }},
      {"intern_color", [](Dfg& g) { g.intern_color("z"); }},
      {"add_node", [](Dfg& g) { g.add_node(g.find_color("a").value(), "y"); }},
      {"add_edge", [](Dfg& g) { g.add_edge(0, 3); }},
  };
}

TEST(DfgSharingTest, CopyIsAPointerCopy) {
  const Dfg original = diamond();
  const Dfg copy = original;
  EXPECT_EQ(&copy.succs(0), &original.succs(0));
  EXPECT_EQ(&copy.name(), &original.name());
  EXPECT_TRUE(snapshot(copy) == snapshot(original));
}

TEST(DfgSharingTest, MutatingACopyLeavesTheOriginalIntact) {
  for (const auto& [name, mutate] : mutators()) {
    SCOPED_TRACE(name);
    const Dfg original = diamond();
    const Snapshot before = snapshot(original);
    Dfg copy = original;
    mutate(copy);
    EXPECT_TRUE(snapshot(original) == before);
    EXPECT_FALSE(snapshot(copy) == before);
    EXPECT_NE(&copy.succs(0), &original.succs(0));  // the copy cloned the block
  }
}

TEST(DfgSharingTest, MutatingTheOriginalLeavesACopyIntact) {
  // A block is never written after its first copy, whichever side edits.
  for (const auto& [name, mutate] : mutators()) {
    SCOPED_TRACE(name);
    Dfg original = diamond();
    const Dfg copy = original;
    const Snapshot before = snapshot(copy);
    mutate(original);
    EXPECT_TRUE(snapshot(copy) == before);
    EXPECT_FALSE(snapshot(original) == before);
  }
}

TEST(DfgSharingTest, InternColorOfAKnownColorDoesNotClone) {
  const Dfg original = diamond();
  Dfg copy = original;
  EXPECT_EQ(copy.intern_color("b"), original.find_color("b").value());
  EXPECT_EQ(&copy.succs(0), &original.succs(0));
}

TEST(DfgSharingTest, RejectedMutationLeavesBothGraphsIntact) {
  const Dfg original = diamond();
  const Snapshot before = snapshot(original);
  Dfg copy = original;
  EXPECT_THROW(copy.add_edge(0, 1), std::invalid_argument);  // duplicate edge
  EXPECT_THROW(copy.add_node(copy.find_color("a").value(), "u"), std::invalid_argument);
  EXPECT_TRUE(snapshot(original) == before);
  EXPECT_TRUE(snapshot(copy) == before);
}

TEST(DfgSharingTest, MovedFromGraphCanBeAssignedAndReused) {
  const Snapshot before = snapshot(diamond());
  Dfg a = diamond();
  Dfg b = std::move(a);
  EXPECT_TRUE(snapshot(b) == before);

  // Assigned to, then edited.
  a = Dfg("again");
  a.add_node(a.intern_color("c"), "only");
  EXPECT_EQ(a.name(), "again");
  EXPECT_EQ(a.node_count(), 1u);

  // Edited directly.
  Dfg c = std::move(b);
  b.add_node(b.intern_color("q"), "q0");
  EXPECT_EQ(b.node_count(), 1u);
  EXPECT_TRUE(snapshot(c) == before);

  // Copy-assigned from a shared graph, then edited.
  b = c;
  b.add_edge(0, 3);
  EXPECT_TRUE(snapshot(c) == before);
  EXPECT_EQ(b.edge_count(), c.edge_count() + 1);
}

TEST(DfgSharingTest, DefaultConstructedGraphIsEmptyAndNamedDfg) {
  const Dfg g;
  EXPECT_EQ(g.name(), "dfg");
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.color_count(), 0u);
  EXPECT_TRUE(g.is_dag());
  EXPECT_TRUE(g.topo_order().empty());
  EXPECT_FALSE(g.find_node("n0").has_value());
  EXPECT_FALSE(g.find_color("a").has_value());
  EXPECT_THROW((void)g.preds(0), std::logic_error);
  // Reads the same as an explicitly built empty graph, copies included.
  const Dfg copy = g;
  EXPECT_EQ(engine::AnalysisCache::graph_key(copy),
            engine::AnalysisCache::graph_key(Dfg("dfg")));
}

TEST(DfgSharingTest, ThreadsEditTheirCopiesOfOneSharedGraph) {
  // Four threads copy one graph, edit their copies and read the original,
  // concurrently. Each thread's edit is fixed, so its expected key is
  // computed up front on a single thread.
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  const Dfg shared = workloads::make_workload("fft(8)");
  const engine::CacheKey shared_key = engine::AnalysisCache::graph_key(shared);
  const auto edit = [](Dfg& g, int t) {
    const NodeId n = g.add_node(g.intern_color("t" + std::to_string(t)),
                                "extra" + std::to_string(t));
    g.add_edge(static_cast<NodeId>(t), n);
  };
  std::vector<engine::CacheKey> expected(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    Dfg g = shared;
    edit(g, t);
    expected[t] = engine::AnalysisCache::graph_key(g);
    ASSERT_NE(expected[t], shared_key);
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        Dfg mine = shared;
        const Dfg second = mine;  // a copy of a copy shares the block too
        edit(mine, t);
        if (engine::AnalysisCache::graph_key(mine) != expected[t]) ++mismatches;
        if (engine::AnalysisCache::graph_key(second) != shared_key) ++mismatches;
        if (engine::AnalysisCache::graph_key(shared) != shared_key) ++mismatches;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(engine::AnalysisCache::graph_key(shared), shared_key);
}

// -- content hash -------------------------------------------------------------

TEST(DfgContentHashTest, KeysArePinned) {
  // Cache keys locate disk-cache entries across releases, so their bytes
  // are pinned: the graph key, the default analysis key (C = 5, span limit
  // 1) and an analysis key under a non-default pipeline.
  struct Pin {
    const char* spec;
    const char* graph;
    const char* analysis;
    const char* tagged;
  };
  const Pin pins[] = {
      {"paper_3dft", "f0562eeffe13bc3b2a6145a56ea4ec76", "d3ced964d0f826fd2ee0d27d0f295190",
       "7436fe3107c8b05678a91297c345bdb5"},
      {"fir(28)", "3be251a8ee40316eb3a8b3a644b1e5b9", "de9a438718052588f0a5f4bd2922483f",
       "4847dea16c775683472a65285c4a6aae"},
      {"fft(16)", "dbd1893849917c3b65883284c0f03eae", "d339fc400f9de6fdd7a9fbd427d2a8c8",
       "5e332917f7547056d2c5bbbe52aa751d"},
  };
  const SelectOptions o;
  ASSERT_EQ(o.capacity, 5u);
  ASSERT_EQ(o.span_limit, std::optional<int>(1));
  const std::string tag = engine::pipeline_cache_tag({"strip_redundant_edges"}, "list");
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.spec);
    const Dfg g = workloads::make_workload(pin.spec);
    // Twice each: the first call computes the memo, the second reads it.
    for (int pass = 0; pass < 2; ++pass) {
      EXPECT_EQ(engine::AnalysisCache::graph_key(g).to_string(), pin.graph);
      const auto [graph, analysis] =
          engine::AnalysisCache::content_keys(g, o.generation, o.capacity, o.span_limit);
      EXPECT_EQ(graph.to_string(), pin.graph);
      EXPECT_EQ(analysis.to_string(), pin.analysis);
      const auto [tagged_graph, tagged] =
          engine::AnalysisCache::content_keys(g, o.generation, o.capacity, o.span_limit, tag);
      EXPECT_EQ(tagged_graph.to_string(), pin.graph);
      EXPECT_EQ(tagged.to_string(), pin.tagged);
    }
  }
}

TEST(DfgContentHashTest, MutatorsClearTheMemo) {
  // Keyed, then edited in place (unshared) or through a copy (a clone):
  // either way the key must be the edited graph's, never the memo's.
  const engine::CacheKey before = engine::AnalysisCache::graph_key(diamond());
  for (const auto& [name, mutate] : mutators()) {
    SCOPED_TRACE(name);
    Dfg fresh = diamond();
    mutate(fresh);
    const engine::CacheKey expected = engine::AnalysisCache::graph_key(fresh);

    Dfg unshared = diamond();
    EXPECT_EQ(engine::AnalysisCache::graph_key(unshared), before);
    mutate(unshared);
    EXPECT_EQ(engine::AnalysisCache::graph_key(unshared), expected);

    const Dfg keyed = diamond();
    EXPECT_EQ(engine::AnalysisCache::graph_key(keyed), before);
    Dfg clone = keyed;
    mutate(clone);
    EXPECT_EQ(engine::AnalysisCache::graph_key(clone), expected);
    EXPECT_EQ(engine::AnalysisCache::graph_key(keyed), before);
  }
  // The structural mutators do move the key, so the checks above bite.
  Dfg grown = diamond();
  grown.add_edge(0, 3);
  EXPECT_NE(engine::AnalysisCache::graph_key(grown), before);
}

TEST(DfgContentHashTest, ThreadsKeyOneSharedGraphThatWasNeverKeyed) {
  // Four threads race to compute and publish one block's memo. Every one
  // must read the graph's key, whether it published, lost the race and
  // kept its own copy, or read the published memo.
  constexpr int kThreads = 4;
  constexpr int kRounds = 20;
  const engine::CacheKey expected =
      engine::AnalysisCache::graph_key(workloads::make_workload("fft(8)"));
  for (int round = 0; round < kRounds; ++round) {
    const Dfg shared = workloads::make_workload("fft(8)");
    const std::vector<Dfg> copies(kThreads, shared);
    std::vector<engine::CacheKey> keys(kThreads);
    std::atomic<int> arrived{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        arrived.fetch_add(1);
        while (arrived.load() < kThreads) {
        }
        keys[t] = engine::AnalysisCache::graph_key(copies[t]);
      });
    }
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(keys[t], expected) << "thread " << t;
    EXPECT_EQ(engine::AnalysisCache::graph_key(shared), expected);
  }
}

}  // namespace
}  // namespace mpsched

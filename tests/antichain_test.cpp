// Antichain enumeration: paper Table 4 classification, brute-force
// cross-checks on random graphs, span limits, thread-count independence.
#include <gtest/gtest.h>

#include <algorithm>

#include "antichain/enumerate.hpp"
#include "graph/closure.hpp"
#include "graph/levels.hpp"
#include "test_util.hpp"
#include "workloads/dft.hpp"
#include "workloads/kernels.hpp"
#include "workloads/paper_graphs.hpp"
#include "workloads/random_dag.hpp"

namespace mpsched {
namespace {

EnumerateOptions opts(std::size_t max_size, std::optional<int> span = std::nullopt,
                      bool collect = false, bool parallel = true) {
  EnumerateOptions o;
  o.max_size = max_size;
  o.span_limit = span;
  o.collect_members = collect;
  o.parallel = parallel;
  return o;
}

// Paper Table 4: the small example has exactly four patterns with the
// listed antichains.
TEST(AntichainTest, Table4SmallExampleClassification) {
  const Dfg g = workloads::small_example();
  const AntichainAnalysis analysis = enumerate_antichains(g, opts(2, std::nullopt, true));

  ASSERT_EQ(analysis.per_pattern.size(), 4u);
  const ColorId a = *g.find_color("a");
  const ColorId b = *g.find_color("b");

  const auto* pa = analysis.find(Pattern({a}));
  ASSERT_NE(pa, nullptr);
  EXPECT_EQ(pa->antichain_count, 3u);  // {a1},{a2},{a3}

  const auto* pb = analysis.find(Pattern({b}));
  ASSERT_NE(pb, nullptr);
  EXPECT_EQ(pb->antichain_count, 2u);  // {b4},{b5}

  const auto* paa = analysis.find(Pattern({a, a}));
  ASSERT_NE(paa, nullptr);
  EXPECT_EQ(paa->antichain_count, 2u);  // {a1,a3},{a2,a3}
  const NodeId a1 = *g.find_node("a1");
  const NodeId a3 = *g.find_node("a3");
  ASSERT_EQ(paa->members.size(), 2u);
  EXPECT_EQ(paa->members[0], (std::vector<NodeId>{a1, a3 > a1 ? a3 : a1}));

  const auto* pbb = analysis.find(Pattern({b, b}));
  ASSERT_NE(pbb, nullptr);
  EXPECT_EQ(pbb->antichain_count, 1u);  // {b4,b5}

  EXPECT_EQ(analysis.total, 8u);
}

// Paper Table 6: node frequencies of the small example.
TEST(AntichainTest, Table6NodeFrequencies) {
  const Dfg g = workloads::small_example();
  const AntichainAnalysis analysis = enumerate_antichains(g, opts(2));
  const ColorId a = *g.find_color("a");
  const ColorId b = *g.find_color("b");
  auto freq = [&](const Pattern& p, const char* node) {
    const auto* stats = analysis.find(p);
    EXPECT_NE(stats, nullptr);
    return stats->node_frequency[*g.find_node(node)];
  };
  // Rows of Table 6: p1={a}, p2={b}, p3={aa}, p4={bb}.
  EXPECT_EQ(freq(Pattern({a}), "a1"), 1u);
  EXPECT_EQ(freq(Pattern({a}), "a2"), 1u);
  EXPECT_EQ(freq(Pattern({a}), "a3"), 1u);
  EXPECT_EQ(freq(Pattern({a}), "b4"), 0u);
  EXPECT_EQ(freq(Pattern({b}), "b4"), 1u);
  EXPECT_EQ(freq(Pattern({b}), "b5"), 1u);
  EXPECT_EQ(freq(Pattern({a, a}), "a1"), 1u);
  EXPECT_EQ(freq(Pattern({a, a}), "a2"), 1u);
  EXPECT_EQ(freq(Pattern({a, a}), "a3"), 2u);
  EXPECT_EQ(freq(Pattern({b, b}), "b4"), 1u);
  EXPECT_EQ(freq(Pattern({b, b}), "b5"), 1u);
}

// Brute force over all subsets for small random graphs.
class AntichainOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AntichainOracleTest, MatchesSubsetEnumeration) {
  workloads::LayeredDagOptions dag_options;
  dag_options.layers = 3;
  dag_options.min_width = 2;
  dag_options.max_width = 4;
  const Dfg g = workloads::random_layered_dag(GetParam(), dag_options);
  ASSERT_LE(g.node_count(), 16u);

  const Levels lv = compute_levels(g);
  const Reachability reach(g);
  const std::size_t cap = 4;

  // Oracle: iterate all subsets, test pairwise parallelizability.
  std::uint64_t oracle_total = 0;
  std::vector<std::uint64_t> oracle_by_size(cap + 1, 0);
  for (std::uint64_t mask = 1; mask < (1ULL << g.node_count()); ++mask) {
    const auto size = static_cast<std::size_t>(popcount(mask));
    if (size > cap) continue;
    std::vector<NodeId> members;
    for (NodeId n = 0; n < g.node_count(); ++n)
      if (mask >> n & 1) members.push_back(n);
    bool antichain = true;
    for (std::size_t i = 0; i < members.size() && antichain; ++i)
      for (std::size_t j = i + 1; j < members.size() && antichain; ++j)
        antichain = reach.parallelizable(members[i], members[j]);
    if (antichain) {
      ++oracle_total;
      ++oracle_by_size[size];
    }
  }

  const AntichainAnalysis analysis = enumerate_antichains(g, lv, reach, opts(cap));
  EXPECT_EQ(analysis.total, oracle_total);
  for (std::size_t s = 1; s <= cap; ++s)
    EXPECT_EQ(analysis.count_with_span_at_most(s, lv.asap_max), oracle_by_size[s])
        << "size " << s;
}

TEST_P(AntichainOracleTest, SpanLimitFiltersExactly) {
  workloads::LayeredDagOptions dag_options;
  dag_options.layers = 4;
  dag_options.min_width = 2;
  dag_options.max_width = 4;
  const Dfg g = workloads::random_layered_dag(GetParam(), dag_options);
  const Levels lv = compute_levels(g);
  const Reachability reach(g);

  const AntichainAnalysis full = enumerate_antichains(g, lv, reach, opts(3));
  for (int limit = 0; limit <= lv.asap_max; ++limit) {
    const AntichainAnalysis limited = enumerate_antichains(g, lv, reach, opts(3, limit));
    std::uint64_t expected = 0;
    for (std::size_t s = 1; s <= 3; ++s) expected += full.count_with_span_at_most(s, limit);
    EXPECT_EQ(limited.total, expected) << "limit " << limit;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDags, AntichainOracleTest,
                         ::testing::Values(3, 7, 11, 19, 23, 31));

TEST(AntichainTest, ParallelMatchesSequential) {
  const Dfg g = workloads::paper_3dft();
  const AntichainAnalysis seq = enumerate_antichains(g, opts(5, std::nullopt, false, false));
  const AntichainAnalysis par = enumerate_antichains(g, opts(5, std::nullopt, false, true));
  EXPECT_EQ(seq.total, par.total);
  ASSERT_EQ(seq.per_pattern.size(), par.per_pattern.size());
  for (std::size_t i = 0; i < seq.per_pattern.size(); ++i) {
    EXPECT_EQ(seq.per_pattern[i].pattern, par.per_pattern[i].pattern);
    EXPECT_EQ(seq.per_pattern[i].antichain_count, par.per_pattern[i].antichain_count);
    EXPECT_EQ(seq.per_pattern[i].node_frequency, par.per_pattern[i].node_frequency);
  }
}

TEST(AntichainTest, NodeFrequencySumsToSizeWeightedCount) {
  // Σ_n h(p̄,n) = Σ over antichains of |A| = |p̄| · count(p̄).
  const Dfg g = workloads::paper_3dft();
  const AntichainAnalysis analysis = enumerate_antichains(g, opts(5));
  for (const auto& pa : analysis.per_pattern) {
    std::uint64_t sum = 0;
    for (const auto h : pa.node_frequency) sum += h;
    EXPECT_EQ(sum, pa.antichain_count * pa.pattern.size());
  }
}

TEST(AntichainTest, SizeOneCountsEqualNodeCount) {
  const Dfg g = workloads::paper_3dft();
  const AntichainAnalysis analysis = enumerate_antichains(g, opts(1));
  EXPECT_EQ(analysis.total, g.node_count());
}

TEST(AntichainTest, MaxAntichainsGuardTrips) {
  const Dfg g = workloads::paper_3dft();
  EnumerateOptions o = opts(5);
  o.max_antichains = 10;
  EXPECT_THROW(enumerate_antichains(g, o), std::runtime_error);
}

TEST(AntichainTest, MembersAreSortedAndValid) {
  const Dfg g = workloads::small_example();
  const Reachability reach(g);
  const AntichainAnalysis analysis = enumerate_antichains(g, opts(2, std::nullopt, true));
  for (const auto& pa : analysis.per_pattern) {
    for (const auto& antichain : pa.members) {
      EXPECT_TRUE(std::is_sorted(antichain.begin(), antichain.end()));
      for (std::size_t i = 0; i < antichain.size(); ++i)
        for (std::size_t j = i + 1; j < antichain.size(); ++j)
          EXPECT_TRUE(reach.parallelizable(antichain[i], antichain[j]));
    }
  }
}

// The enumeration kernel must be byte-identical to the reference
// (copy-a-bitset-per-node) implementation across a seeded corpus: the
// paper graph, two one-word kernels and random DAGs, with and without
// members, serial and parallel, at every size limit up to the engine
// default (the leaf level sits at depth C−1, so C=1 has none and C=2
// hangs leaves directly off the root) and at no, tight, default and
// two-level span limits. Graphs of 65–200 nodes give the leaf level
// multi-word candidate masks, counted word-parallel; they run C ≤ 3 with
// member lists off (member collection walks leaves one at a time), and a
// deep one (iir, 41 levels) gives unlimited span 41 span rows.
// Every configuration also merges a two-shard root partition, each shard
// flushing its own walker's leaf counters.
TEST(AntichainTest, ArenaMatchesReferenceOnSeededCorpus) {
  struct Case {
    Dfg graph;
    std::size_t max_size;
    bool members;
  };
  std::vector<Case> corpus;
  corpus.push_back({workloads::paper_3dft(), 5, true});
  corpus.push_back({workloads::small_example(), 5, true});
  corpus.push_back({workloads::dct8(), 5, true});
  corpus.push_back({workloads::radix2_fft(8), 5, true});
  for (const std::uint64_t seed : {5u, 17u, 29u}) {
    workloads::LayeredDagOptions dag_options;
    dag_options.layers = 4;
    dag_options.min_width = 3;
    dag_options.max_width = 6;
    corpus.push_back({workloads::random_layered_dag(seed, dag_options), 5, true});
  }
  corpus.push_back({workloads::iir_biquad_cascade(8), 3, false});  // 72 nodes
  corpus.push_back({workloads::bitonic_sort(16), 3, false});       // 160 nodes
  corpus.push_back({workloads::radix2_fft(16), 3, false});         // 188 nodes

  for (const Case& c : corpus) {
    const Dfg& g = c.graph;
    const Levels lv = compute_levels(g);
    const Reachability reach(g);
    std::vector<NodeId> even_roots, odd_roots;
    for (NodeId r = 0; r < g.node_count(); ++r)
      (r % 2 == 0 ? even_roots : odd_roots).push_back(r);
    for (std::size_t max_size = 1; max_size <= c.max_size; ++max_size)
      for (const std::optional<int> span : {std::optional<int>{}, std::optional<int>{0},
                                            std::optional<int>{1}, std::optional<int>{2}}) {
        SCOPED_TRACE(testing::Message() << g.node_count() << " nodes, C=" << max_size
                                        << ", span " << span.value_or(-1));
        // One oracle run serves every kernel run: the reference is
        // sequential whatever `parallel` says, and member collection
        // changes nothing but the member lists.
        AntichainAnalysis ref =
            enumerate_antichains_reference(g, lv, reach, opts(max_size, span, c.members));
        for (const bool collect : {true, false}) {
          if (collect && !c.members) continue;
          if (!collect)
            for (PatternAntichains& pa : ref.per_pattern) pa.members.clear();
          for (const bool parallel : {false, true}) {
            SCOPED_TRACE(testing::Message() << "members " << collect << ", parallel "
                                            << parallel);
            const EnumerateOptions o = opts(max_size, span, collect, parallel);
            test::expect_analysis_identical(ref, enumerate_antichains(g, lv, reach, o));
          }
        }
        SCOPED_TRACE("two-shard merge");
        std::vector<AntichainAnalysis> parts;
        const EnumerateOptions o = opts(max_size, span);
        parts.push_back(enumerate_antichain_roots(g, lv, reach, o, even_roots));
        parts.push_back(enumerate_antichain_roots(g, lv, reach, o, odd_roots));
        test::expect_analysis_identical(
            ref, merge_antichain_analyses(std::move(parts), g.node_count()));
      }
  }
}

// The leaf level's bit-sliced frequency counters flush into the pattern
// entries every 65,535 adds, before a 16-bit lane can overflow. An
// edgeless one-color graph of 90 nodes at C=4 has C(90,3) = 117,480
// size-3 prefixes of one pattern, more than 65,535 of them dense enough to
// be counted word-parallel, so one serial walker flushes mid-walk. Every
// s-set is an antichain: count(s) = C(90,s), and each node lies in
// C(89,s−1) of them.
TEST(AntichainTest, LeafCounterFlushMatchesClosedForms) {
  constexpr std::size_t n = 90;
  Dfg g("edgeless");
  for (std::size_t i = 0; i < n; ++i) g.add_node("a");
  const auto choose = [](std::uint64_t m, std::uint64_t k) {
    std::uint64_t r = 1;
    for (std::uint64_t i = 1; i <= k; ++i) r = r * (m - k + i) / i;
    return r;
  };
  const AntichainAnalysis a = enumerate_antichains(g, opts(4, std::nullopt, false, false));
  ASSERT_EQ(a.per_pattern.size(), 4u);
  for (std::size_t s = 1; s <= 4; ++s) {
    const PatternAntichains& pa = a.per_pattern[s - 1];
    EXPECT_EQ(pa.pattern.size(), s);
    EXPECT_EQ(pa.antichain_count, choose(n, s));
    EXPECT_EQ(pa.node_frequency, std::vector<std::uint64_t>(n, choose(n - 1, s - 1)));
  }
}

// find() is a binary search over the sorted per_pattern vector; it must
// agree with a linear scan for every present pattern and return nullptr
// for absent ones.
TEST(AntichainTest, FindAgreesWithLinearScan) {
  const Dfg g = workloads::paper_3dft();
  const AntichainAnalysis analysis = enumerate_antichains(g, opts(4));
  ASSERT_FALSE(analysis.per_pattern.empty());

  for (const PatternAntichains& pa : analysis.per_pattern) {
    const PatternAntichains* scan = nullptr;
    for (const PatternAntichains& candidate : analysis.per_pattern)
      if (candidate.pattern == pa.pattern) {
        scan = &candidate;
        break;
      }
    const PatternAntichains* found = analysis.find(pa.pattern);
    EXPECT_EQ(found, scan);
  }

  // Absent patterns: an unused color id and an over-long pattern.
  const ColorId beyond = static_cast<ColorId>(g.color_count());
  EXPECT_EQ(analysis.find(Pattern({beyond})), nullptr);
  const ColorId c0 = 0;
  EXPECT_EQ(analysis.find(Pattern(std::vector<ColorId>(9, c0))), nullptr);
}

// The max_antichains limit must trip at the exact threshold, with the
// chunked per-worker count batching: limit == total passes, limit ==
// total - 1 throws — serial, parallel, and through the sharded
// entry point with a shared counter.
TEST(AntichainTest, MaxAntichainsLimitIsThresholdExact) {
  const Dfg g = workloads::paper_3dft();
  const Levels lv = compute_levels(g);
  const Reachability reach(g);

  const std::uint64_t total = enumerate_antichains(g, lv, reach, opts(4)).total;
  ASSERT_GT(total, 1u);

  for (const bool parallel : {false, true}) {
    EnumerateOptions at = opts(4, std::nullopt, false, parallel);
    at.max_antichains = total;
    EXPECT_EQ(enumerate_antichains(g, lv, reach, at).total, total);

    EnumerateOptions below = at;
    below.max_antichains = total - 1;
    EXPECT_THROW(enumerate_antichains(g, lv, reach, below), std::runtime_error);
  }

  // Sharded path: two root partitions sharing one global counter.
  std::vector<NodeId> even_roots, odd_roots;
  for (NodeId r = 0; r < g.node_count(); ++r)
    (r % 2 == 0 ? even_roots : odd_roots).push_back(r);

  {
    EnumerateOptions o = opts(4);
    o.max_antichains = total;
    std::atomic<std::uint64_t> shared{0};
    std::vector<AntichainAnalysis> parts;
    parts.push_back(enumerate_antichain_roots(g, lv, reach, o, even_roots, &shared));
    parts.push_back(enumerate_antichain_roots(g, lv, reach, o, odd_roots, &shared));
    EXPECT_EQ(merge_antichain_analyses(std::move(parts), g.node_count()).total, total);
  }
  {
    EnumerateOptions o = opts(4);
    o.max_antichains = total - 1;
    std::atomic<std::uint64_t> shared{0};
    EXPECT_THROW(
        {
          (void)enumerate_antichain_roots(g, lv, reach, o, even_roots, &shared);
          (void)enumerate_antichain_roots(g, lv, reach, o, odd_roots, &shared);
        },
        std::runtime_error);
  }
}

}  // namespace
}  // namespace mpsched

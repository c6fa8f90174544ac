// Workload generators: structural expectations (node counts, color mixes,
// depths), determinism, and the spec table behind make_workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "graph/levels.hpp"
#include "graph/stats.hpp"
#include "test_util.hpp"
#include "workloads/corpus.hpp"
#include "workloads/dft.hpp"
#include "workloads/kernels.hpp"
#include "workloads/paper_graphs.hpp"
#include "workloads/random_dag.hpp"

namespace mpsched {
namespace {

std::map<std::string, std::size_t> color_mix(const Dfg& g) {
  std::map<std::string, std::size_t> mix;
  for (NodeId n = 0; n < g.node_count(); ++n) ++mix[g.color_name(g.color(n))];
  return mix;
}

TEST(WorkloadsTest, Winograd3Dft) {
  const Dfg g = workloads::winograd_dft3();
  g.validate();
  EXPECT_EQ(g.node_count(), 16u);
  const auto mix = color_mix(g);
  EXPECT_EQ(mix.at("a"), 8u);
  EXPECT_EQ(mix.at("b"), 4u);
  EXPECT_EQ(mix.at("c"), 4u);
  // t1 → m1 → s1 → X1 (inputs are external, so t1 is a source): 4 levels.
  EXPECT_EQ(compute_levels(g).critical_path_length(), 4);
}

TEST(WorkloadsTest, Winograd5Dft) {
  const Dfg g = workloads::winograd_dft5();
  g.validate();
  EXPECT_EQ(g.node_count(), 44u);
  const auto mix = color_mix(g);
  EXPECT_EQ(mix.at("a"), 20u);
  EXPECT_EQ(mix.at("b"), 14u);
  EXPECT_EQ(mix.at("c"), 10u);
  // t1 → t5 → m1 → s1 → s2 → X1: 6 levels.
  EXPECT_EQ(compute_levels(g).critical_path_length(), 6);
}

TEST(WorkloadsTest, Radix2FftSizes) {
  // n=2: one butterfly = 2 adds + 2 subs.
  EXPECT_EQ(workloads::radix2_fft(2).node_count(), 4u);
  // n=4: 8 butterflies' worth (two stages), twiddles free (W^0, −i).
  const Dfg fft4 = workloads::radix2_fft(4);
  EXPECT_EQ(fft4.node_count(), 16u);
  EXPECT_EQ(color_mix(fft4).count("c"), 0u);  // no multiplications yet
  // n=8: stage-3 twiddles W8^1, W8^3 are true complex multiplications.
  const Dfg fft8 = workloads::radix2_fft(8);
  const auto mix8 = color_mix(fft8);
  EXPECT_EQ(mix8.at("c"), 8u);  // 2 complex muls × 4 real muls
  EXPECT_GT(mix8.at("a"), 0u);
  fft8.validate();
  EXPECT_THROW(workloads::radix2_fft(3), std::invalid_argument);
  EXPECT_THROW(workloads::radix2_fft(0), std::invalid_argument);
}

TEST(WorkloadsTest, DirectDftQuadraticMuls) {
  const Dfg g = workloads::direct_dft(4);
  g.validate();
  const auto mix = color_mix(g);
  // Twiddles W^(jk mod 4) for j,k ∈ 1..3 are nonzero except (j,k)=(2,2)
  // where jk ≡ 0 (mod 4): 8 complex muls × 4 real muls each.
  EXPECT_EQ(mix.at("c"), 32u);
}

TEST(WorkloadsTest, FirFilterShape) {
  const Dfg g = workloads::fir_filter(8);
  g.validate();
  const auto mix = color_mix(g);
  EXPECT_EQ(mix.at("c"), 8u);  // one mul per tap
  EXPECT_EQ(mix.at("a"), 7u);  // balanced adder tree
  EXPECT_EQ(compute_levels(g).critical_path_length(), 1 + 3);  // mul + log2(8) adds
}

TEST(WorkloadsTest, FirSingleTapIsJustOneMul) {
  const Dfg g = workloads::fir_filter(1);
  EXPECT_EQ(g.node_count(), 1u);
}

TEST(WorkloadsTest, IirCascadeSerialChain) {
  const Dfg g = workloads::iir_biquad_cascade(3);
  g.validate();
  EXPECT_EQ(g.node_count(), 27u);  // 9 per section
  // Sections chain serially: depth grows linearly.
  EXPECT_GE(compute_levels(g).critical_path_length(), 3 * 4);
}

TEST(WorkloadsTest, MatmulCounts) {
  const Dfg g = workloads::matmul(3);
  g.validate();
  const auto mix = color_mix(g);
  EXPECT_EQ(mix.at("c"), 27u);  // n³ muls
  EXPECT_EQ(mix.at("a"), 18u);  // n² reductions of n-1 adds
}

TEST(WorkloadsTest, Dct8HasLoefflerCounts) {
  const Dfg g = workloads::dct8();
  g.validate();
  const auto mix = color_mix(g);
  EXPECT_EQ(mix.at("c"), 11u);  // 3 rotations × 3 muls + 2 scalings
  EXPECT_EQ(g.node_count(), 40u);
}

TEST(WorkloadsTest, BitonicSortNetwork) {
  const Dfg g = workloads::bitonic_sort(8);
  g.validate();
  // Bitonic(8): 24 compare-exchanges → 48 nodes, half min half max.
  EXPECT_EQ(g.node_count(), 48u);
  const auto mix = color_mix(g);
  EXPECT_EQ(mix.at("a"), 24u);
  EXPECT_EQ(mix.at("b"), 24u);
  // Depth: 6 CE stages (1+2+3), each CE two parallel ops → depth 6.
  EXPECT_EQ(compute_levels(g).critical_path_length(), 6);
  EXPECT_THROW(workloads::bitonic_sort(3), std::invalid_argument);
}

TEST(WorkloadsTest, Stencil5Shape) {
  const Dfg g = workloads::stencil5(4, 3);
  g.validate();
  EXPECT_EQ(g.node_count(), 12u * 5u);
  const auto mix = color_mix(g);
  EXPECT_EQ(mix.at("a"), 48u);
  EXPECT_EQ(mix.at("c"), 12u);
  // Wide and shallow: every point is an independent depth-5 chain.
  EXPECT_EQ(compute_levels(g).critical_path_length(), 5);
  const DfgStats st = compute_stats(g);
  EXPECT_EQ(st.sources, 12u);
  EXPECT_EQ(st.sinks, 12u);
}

TEST(WorkloadsTest, HornerIsAPureChain) {
  const Dfg g = workloads::horner(4);
  g.validate();
  const Levels lv = compute_levels(g);
  EXPECT_EQ(lv.critical_path_length(), static_cast<int>(g.node_count()));
}

TEST(WorkloadSpecTest, UsageListsEveryGeneratorInTableOrder) {
  EXPECT_EQ(workloads::workload_usage(),
            (std::vector<std::string>{
                "paper_3dft", "small_example", "dft3", "dft5", "fft(n)", "direct_dft(n)",
                "fir(taps)", "iir(sections)", "matmul(n)", "dct8", "horner(degree)",
                "bitonic(n)", "stencil5(width,height)", "layered(seed)",
                "series_parallel(seed)", "expr_tree(seed)"}));
}

TEST(WorkloadSpecTest, EveryUsageInstantiatesWithPlaceholderArguments) {
  for (const std::string& usage : workloads::workload_usage()) {
    // Each parameter becomes 4, which every generator accepts (the FFT and
    // the bitonic network need a power of two).
    std::string spec = usage;
    if (const std::size_t open = usage.find('('); open != std::string::npos) {
      const auto params = std::count(usage.begin(), usage.end(), ',') + 1;
      spec = usage.substr(0, open + 1);
      for (std::ptrdiff_t i = 0; i < params; ++i) spec += i == 0 ? "4" : ",4";
      spec += ')';
    }
    EXPECT_TRUE(workloads::is_valid_workload(spec)) << spec;
    const Dfg g = workloads::make_workload(spec);
    EXPECT_GT(g.node_count(), 0u) << spec;
    EXPECT_EQ(g.name(), spec);
  }
}

TEST(WorkloadSpecTest, RejectionsKeepTheirTexts) {
  const auto error = [](const std::string& spec) {
    return test::thrown_message([&] { (void)workloads::make_workload(spec); });
  };
  EXPECT_EQ(error("stencil5(3)"), "workload 'stencil5' expects (width,height)");
  EXPECT_EQ(error("dft3(1)"), "workload 'dft3' expects no arguments");
  EXPECT_EQ(error("fft"), "workload 'fft' expects (n)");
  EXPECT_EQ(error("x"), "unknown workload 'x'");
  EXPECT_EQ(error("x(1)"), "unknown workload 'x'");
  EXPECT_EQ(test::thrown_message([] { (void)workloads::corpus_group("x"); }),
            "unknown corpus group 'x' (known: paper, dft, kernels, random, smoke)");
}

TEST(RandomDagTest, DeterministicPerSeed) {
  const Dfg g1 = workloads::random_layered_dag(42);
  const Dfg g2 = workloads::random_layered_dag(42);
  EXPECT_EQ(g1.node_count(), g2.node_count());
  EXPECT_EQ(g1.edge_count(), g2.edge_count());
  for (NodeId n = 0; n < g1.node_count(); ++n) {
    EXPECT_EQ(g1.color(n), g2.color(n));
    EXPECT_EQ(g1.succs(n), g2.succs(n));
  }
  const Dfg g3 = workloads::random_layered_dag(43);
  const bool differs = g1.node_count() != g3.node_count() || g1.edge_count() != g3.edge_count();
  EXPECT_TRUE(differs);
}

TEST(RandomDagTest, EveryNonFirstLayerNodeHasAPredecessor) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Dfg g = workloads::random_layered_dag(seed);
    const Levels lv = compute_levels(g);
    // Sources concentrate at level 0 (the generator guarantees non-first-
    // layer nodes get at least one predecessor).
    for (NodeId n = 0; n < g.node_count(); ++n) {
      if (g.is_source(n)) {
        EXPECT_EQ(lv.asap[n], 0);
      }
    }
  }
}

TEST(RandomDagTest, SeriesParallelIsValidDag) {
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    const Dfg g = workloads::random_series_parallel(seed);
    g.validate();
    EXPECT_GE(g.node_count(), 2u);
  }
}

TEST(RandomDagTest, ExpressionTreeHasOneSink) {
  for (const std::uint64_t seed : {4u, 5u, 6u}) {
    workloads::ExprTreeOptions options;
    options.leaves = 12;
    const Dfg g = workloads::random_expression_tree(seed, options);
    g.validate();
    std::size_t sinks = 0;
    for (NodeId n = 0; n < g.node_count(); ++n)
      if (g.is_sink(n)) ++sinks;
    EXPECT_EQ(sinks, 1u);
    EXPECT_EQ(g.node_count(), 11u);  // leaves-1 internal nodes
  }
}

TEST(StatsTest, PaperGraphStats) {
  const Dfg g = workloads::paper_3dft();
  const DfgStats st = compute_stats(g);
  EXPECT_EQ(st.nodes, 24u);
  EXPECT_EQ(st.edges, 27u);
  EXPECT_EQ(st.sources, 6u);
  EXPECT_EQ(st.sinks, 6u);
  EXPECT_EQ(st.critical_path, 5);
  EXPECT_EQ(st.level_width.size(), 5u);
  EXPECT_EQ(st.color_histogram[*g.find_color("a")], 14u);
  EXPECT_FALSE(st.to_string(g).empty());
}

}  // namespace
}  // namespace mpsched

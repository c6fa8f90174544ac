// The batch engine (src/engine): sharded enumeration equivalence, cache
// bit-identity, determinism across thread counts, cache settings, shard
// plans and solved-result memo hits, the memo key's sensitivity to every
// job option, cost-estimated shard packing, per-job failure of invalid
// options, and the corpus/results JSON round-trip.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <thread>

#include "antichain/enumerate.hpp"
#include "core/mp_schedule.hpp"
#include "core/select.hpp"
#include "io/result_io.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"
#include "workloads/corpus.hpp"
#include "workloads/paper_graphs.hpp"

namespace mpsched {
namespace {

using engine::AnalysisCache;
using engine::CacheKey;
using engine::Engine;
using engine::EngineOptions;
using engine::Job;
using test::expect_analysis_identical;

/// A small mixed corpus covering both generation strategies, duplicates,
/// and the refinement loop.
std::vector<Job> test_corpus() {
  std::vector<Job> jobs;
  jobs.push_back(Job::from_workload("paper_3dft"));
  jobs.push_back(Job::from_workload("small_example"));
  jobs.push_back(Job::from_workload("fir(8)"));
  jobs.push_back(Job::from_workload("paper_3dft"));  // duplicate of jobs[0]
  Job analytic = Job::from_workload("stencil5(3,3)");
  analytic.select.generation = PatternGeneration::LevelAnalytic;
  jobs.push_back(std::move(analytic));
  Job refined = Job::from_workload("dct8");
  refined.refine = true;
  refined.refinement.max_sweeps = 1;
  jobs.push_back(std::move(refined));
  return jobs;
}

/// Process-wide solve counters; tests compare deltas around their runs.
struct SolveCounts {
  std::uint64_t computed = 0;
  std::uint64_t reused = 0;
};

SolveCounts solve_counts() {
  obs::Registry& registry = obs::Registry::global();
  return {registry.counter("engine.solve.computed").value(),
          registry.counter("engine.solve.reused").value()};
}

SolveCounts solve_delta(const SolveCounts& before) {
  const SolveCounts now = solve_counts();
  return {now.computed - before.computed, now.reused - before.reused};
}

/// The solved part of a result (what the memo holds), serialized.
std::string solved_json(const engine::JobResult& r) {
  engine::JobResult solved_only;
  static_cast<engine::SolvedResult&>(solved_only) = r;
  return result_to_json(solved_only).dump();
}

TEST(EnumerateShards, PartitionMergeMatchesMonolithic) {
  const Dfg dfg = workloads::paper_3dft();
  const Levels levels = compute_levels(dfg);
  const Reachability reach(dfg);
  EnumerateOptions options;
  options.max_size = 5;
  options.span_limit = 2;

  const AntichainAnalysis whole = enumerate_antichains(dfg, levels, reach, options);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}, std::size_t{24}}) {
    std::vector<std::vector<NodeId>> roots(shards);
    for (NodeId r = 0; r < dfg.node_count(); ++r) roots[r % shards].push_back(r);
    std::vector<AntichainAnalysis> parts;
    for (const auto& shard : roots)
      parts.push_back(enumerate_antichain_roots(dfg, levels, reach, options, shard));
    const AntichainAnalysis merged =
        merge_antichain_analyses(std::move(parts), dfg.node_count());
    expect_analysis_identical(whole, merged);
  }
}

TEST(EnumerateShards, MemberCollectionSurvivesMerging) {
  const Dfg dfg = workloads::small_example();
  const Levels levels = compute_levels(dfg);
  const Reachability reach(dfg);
  EnumerateOptions options;
  options.max_size = 2;
  options.collect_members = true;

  const AntichainAnalysis whole = enumerate_antichains(dfg, levels, reach, options);
  std::vector<AntichainAnalysis> parts;
  for (NodeId r = 0; r < dfg.node_count(); ++r)
    parts.push_back(enumerate_antichain_roots(dfg, levels, reach, options, {r}));
  expect_analysis_identical(whole,
                            merge_antichain_analyses(std::move(parts), dfg.node_count()));
}

TEST(EnumerateShards, SharedCounterBoundsAcrossShards) {
  // The max_antichains safety valve must bound the whole sharded analysis,
  // not each shard separately: with a shared counter set to (total - 1),
  // enumerating all shards in sequence has to trip the limit even though
  // every individual shard stays under it.
  const Dfg dfg = workloads::small_example();
  const Levels levels = compute_levels(dfg);
  const Reachability reach(dfg);
  EnumerateOptions options;
  options.max_size = 2;

  std::vector<NodeId> first{0, 1, 2}, second{3, 4};
  const std::uint64_t t1 =
      enumerate_antichain_roots(dfg, levels, reach, options, first).total;
  const std::uint64_t t2 =
      enumerate_antichain_roots(dfg, levels, reach, options, second).total;
  ASSERT_GT(t1, 0u);
  ASSERT_GT(t2, 0u);

  options.max_antichains = t1 + t2 - 1;
  std::atomic<std::uint64_t> shared{0};
  EXPECT_NO_THROW(
      enumerate_antichain_roots(dfg, levels, reach, options, first, &shared));
  EXPECT_EQ(shared.load(), t1);
  EXPECT_THROW(enumerate_antichain_roots(dfg, levels, reach, options, second, &shared),
               std::exception);
}

TEST(EnumerateShards, RejectsForeignRoots) {
  const Dfg dfg = workloads::small_example();
  const Levels levels = compute_levels(dfg);
  const Reachability reach(dfg);
  EXPECT_THROW(
      enumerate_antichain_roots(dfg, levels, reach, {}, {static_cast<NodeId>(99)}),
      std::exception);
  // Duplicate roots would silently double-count; they must be rejected.
  EXPECT_THROW(enumerate_antichain_roots(dfg, levels, reach, {}, {0, 1, 1}),
               std::exception);
}

TEST(AnalysisCache, ContentAddressing) {
  // Two independently built but identical graphs share a key; renaming
  // the graph does not change it; changing structure or options does.
  const Dfg a = workloads::paper_3dft();
  Dfg b = workloads::paper_3dft();
  b.set_name("a totally different display name");
  EXPECT_EQ(AnalysisCache::graph_key(a), AnalysisCache::graph_key(b));
  // Names — including hostile ones with embedded newlines — are display
  // metadata and cannot perturb or collide the structural key.
  b.set_name("x\nnode q a");
  EXPECT_EQ(AnalysisCache::graph_key(a), AnalysisCache::graph_key(b));

  // Node display names do not participate either: same structure, same key.
  Dfg n1, n2;
  n1.add_node("a", "p");
  n1.add_node("b", "q");
  n1.add_edge(0, 1);
  n2.add_node("a", "renamed_p");
  n2.add_node("b", "renamed_q");
  n2.add_edge(0, 1);
  EXPECT_EQ(AnalysisCache::graph_key(n1), AnalysisCache::graph_key(n2));

  Dfg c = workloads::paper_3dft();
  c.add_node("a", "extra");
  EXPECT_NE(AnalysisCache::graph_key(a), AnalysisCache::graph_key(c));

  const auto key = [&](std::size_t cap, std::optional<int> span) {
    return AnalysisCache::analysis_key(a, PatternGeneration::SpanLimitedEnumeration, cap,
                                       span);
  };
  EXPECT_EQ(key(5, 1), key(5, 1));
  EXPECT_NE(key(5, 1), key(4, 1));
  EXPECT_NE(key(5, 1), key(5, 2));
  EXPECT_NE(key(5, 1), key(5, std::nullopt));
  EXPECT_NE(key(5, 1), AnalysisCache::analysis_key(a, PatternGeneration::LevelAnalytic, 5,
                                                   std::optional<int>(1)));

  // The single-serialization pair matches the individual key functions.
  const auto [graph_k, analysis_k] = AnalysisCache::content_keys(
      a, PatternGeneration::SpanLimitedEnumeration, 5, std::optional<int>(1));
  EXPECT_EQ(graph_k, AnalysisCache::graph_key(a));
  EXPECT_EQ(analysis_k, key(5, 1));
}

TEST(AnalysisCache, HitReturnsBitIdenticalAnalysis) {
  AnalysisCache cache;
  EngineOptions options;
  options.threads = 2;
  options.cache = &cache;
  Engine eng(options);
  const engine::CacheStats before = eng.stats().cache;

  Job job = Job::from_workload("paper_3dft");
  const engine::JobResult first = eng.run(job);
  ASSERT_TRUE(first.success);
  EXPECT_FALSE(first.analysis_cache_hit);

  const engine::JobResult second = eng.run(job);
  ASSERT_TRUE(second.success);
  EXPECT_TRUE(second.analysis_cache_hit);

  // The cached analysis is bit-identical to a fresh monolithic enumeration.
  const CacheKey key = AnalysisCache::analysis_key(
      job.dfg, job.select.generation, job.select.capacity, job.select.span_limit);
  const auto cached = cache.find_analysis(key);
  ASSERT_NE(cached, nullptr);
  EnumerateOptions eo;
  eo.max_size = job.select.capacity;
  eo.span_limit = job.select.span_limit;
  expect_analysis_identical(enumerate_antichains(job.dfg, eo), *cached);

  // Identity, not just equality: repeated lookups share one object.
  EXPECT_EQ(cache.find_analysis(key).get(), cached.get());

  // Exactly one analysis was ever computed for the two runs.
  const engine::CacheStats after = eng.stats().cache;
  EXPECT_EQ(after.analysis_misses - before.analysis_misses, 1u);
  EXPECT_GE(after.analysis_hits - before.analysis_hits, 1u);
}

TEST(Engine, MatchesHandWiredPipeline) {
  const Job job = Job::from_workload("paper_3dft");
  Engine eng;
  const engine::JobResult result = eng.run(job);
  ASSERT_TRUE(result.success);

  const SelectionResult selection = select_patterns(job.dfg, job.select);
  const MpScheduleResult scheduled =
      multi_pattern_schedule(job.dfg, selection.patterns, job.schedule);
  ASSERT_TRUE(scheduled.success);

  EXPECT_EQ(result.cycles, scheduled.cycles);
  EXPECT_EQ(result.antichains, selection.antichains_enumerated);
  ASSERT_EQ(result.patterns.size(), selection.patterns.size());
  for (std::size_t i = 0; i < result.patterns.size(); ++i)
    EXPECT_EQ(result.patterns[i], selection.patterns[i].to_string(job.dfg));
  ASSERT_EQ(result.node_cycles.size(), job.dfg.node_count());
  for (NodeId n = 0; n < job.dfg.node_count(); ++n)
    EXPECT_EQ(result.node_cycles[n], scheduled.schedule.cycle_of(n));
}

TEST(Engine, DeterministicAcrossThreadCountsCacheSettingsAndShardPolicies) {
  const std::vector<Job> jobs = test_corpus();
  std::string reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const bool use_cache : {true, false}) {
      // The shard plan only moves roots between shards: one shard per
      // worker, the default, and more shards than most graphs have roots.
      for (const std::size_t shards_per_thread :
           {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
        EngineOptions options;
        options.threads = threads;
        options.use_cache = use_cache;
        options.shards_per_thread = shards_per_thread;
        Engine eng(options);
        const engine::BatchResult batch = eng.run_batch(jobs);
        EXPECT_EQ(batch.succeeded(), jobs.size());
        const std::string serialized = batch_to_json(batch).dump();
        if (reference.empty()) reference = serialized;
        EXPECT_EQ(serialized, reference)
            << "results diverge at threads=" << threads << " cache=" << use_cache
            << " shards_per_thread=" << shards_per_thread;

        // A second run on the same engine: with the cache on every job is
        // a solved-result memo hit, with it off every job solves again.
        const SolveCounts before = solve_counts();
        const engine::BatchResult again = eng.run_batch(jobs);
        const SolveCounts delta = solve_delta(before);
        EXPECT_EQ(batch_to_json(again).dump(), reference)
            << "second run diverges at threads=" << threads << " cache=" << use_cache
            << " shards_per_thread=" << shards_per_thread;
        EXPECT_EQ(delta.computed, use_cache ? 0u : jobs.size());
        EXPECT_EQ(delta.reused, use_cache ? jobs.size() : 0u);
      }
    }
  }
}

TEST(AdaptiveSharding, RootCostEstimatesAreShapedLikeTheSearchForest) {
  // The estimate only steers load balance, but its shape must be sane:
  // deterministic, ≥ 1 everywhere (every root enumerates at least itself),
  // maximal nowhere below a root whose compatible-successor set is empty,
  // and decreasing along fir(8)'s parallel multiplier bank, where root r
  // has exactly (taps - 1 - r) compatible higher-id siblings.
  const Dfg dfg = workloads::make_workload("fir(8)");
  const Levels levels = compute_levels(dfg);
  const Reachability reach(dfg);
  EnumerateOptions options;
  options.max_size = 5;

  const std::vector<std::uint64_t> costs = estimate_root_costs(dfg, levels, reach, options);
  ASSERT_EQ(costs.size(), dfg.node_count());
  EXPECT_EQ(costs, estimate_root_costs(dfg, levels, reach, options));
  for (const std::uint64_t c : costs) EXPECT_GE(c, 1u);
  // The 8 multiplies are nodes 0..7 (insertion order); their estimated
  // subtrees must be strictly decreasing in root id.
  for (NodeId r = 0; r + 1 < 8; ++r)
    EXPECT_GT(costs[r], costs[r + 1]) << "root " << r;
  // A sink with no higher-id parallel nodes costs exactly 1.
  EXPECT_EQ(costs[dfg.node_count() - 1], 1u);

  // max_size 1: every subtree is exactly the root itself.
  options.max_size = 1;
  for (const std::uint64_t c : estimate_root_costs(dfg, levels, reach, options))
    EXPECT_EQ(c, 1u);
}

TEST(AdaptiveSharding, RootCostEstimatesAreIdenticalSerialAndParallel) {
  // estimate_root_costs validates once and, over the pool-fan-out
  // threshold (256 nodes), runs the per-root estimates on a ThreadPool
  // (the shared one, or the engine's own). The cost vector must be
  // byte-identical between the serial and parallel paths, on either
  // pool — the adaptive shard plan (and thus the engine's work order)
  // hangs off these numbers.
  workloads::LayeredDagOptions dag_options;
  dag_options.layers = 40;
  dag_options.min_width = 7;
  dag_options.max_width = 9;
  const Dfg dfg = workloads::random_layered_dag(97, dag_options);
  ASSERT_GE(dfg.node_count(), 256u) << "graph too small to exercise the pool path";
  const Levels levels = compute_levels(dfg);
  const Reachability reach(dfg);

  EnumerateOptions serial_options;
  serial_options.max_size = 5;
  serial_options.parallel = false;
  EnumerateOptions parallel_options = serial_options;
  parallel_options.parallel = true;

  const std::vector<std::uint64_t> serial =
      estimate_root_costs(dfg, levels, reach, serial_options);
  const std::vector<std::uint64_t> parallel =
      estimate_root_costs(dfg, levels, reach, parallel_options);
  EXPECT_EQ(serial, parallel);
  ThreadPool own_pool(2);  // the engine fans out on its own pool
  EXPECT_EQ(serial, estimate_root_costs(dfg, levels, reach, parallel_options, &own_pool));
  EXPECT_EQ(serial.size(), dfg.node_count());
}

#ifdef __linux__
/// This process's thread count, from /proc/self/status; -1 if unread.
int process_threads() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}

TEST(AdaptiveSharding, PlanningALargeGraphStaysOnTheEnginesOwnPool) {
  // A graph of 256+ nodes crosses the root-cost estimate's fan-out
  // threshold. An engine with its own pool must fan out there, not on
  // the process-wide shared pool, so `threads` bounds what it starts.
  // Under ctest every case is its own process, so nothing has started the
  // shared pool before this one.
  engine::EngineOptions options;
  options.threads = 1;
  engine::Engine eng(options);
  engine::Job job = engine::Job::from_workload("fir(130)");
  job.select.capacity = 2;
  ASSERT_GE(job.dfg.node_count(), 256u);
  const int before = process_threads();
  ASSERT_GT(before, 0);
  EXPECT_TRUE(eng.run(job).success);
  EXPECT_EQ(process_threads(), before);
}
#endif

TEST(AdaptiveSharding, PackerProducesValidPartitions) {
  // The LPT packer's hard invariant: whatever the costs, the plan is a
  // partition of [0, n) — every root in exactly one shard — with at most
  // target_shards shards and ascending roots per shard. Property-checked
  // over seeded cost vectors including adversarial shapes (all-equal,
  // one-dominant, zeros, saturated).
  Rng rng(0x9A2C);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.below(200);
    const std::size_t target = 1 + rng.below(40);
    std::vector<std::uint64_t> costs(n);
    for (auto& c : costs) {
      switch (rng.below(4)) {
        case 0: c = 1; break;                                  // all-equal
        case 1: c = rng.below(1000); break;                    // small mixed
        case 2: c = rng.below(2) ? 1'000'000'000ULL : 1; break;  // dominant
        default: c = 0; break;                                 // degenerate
      }
    }
    const auto plan = engine::pack_roots_by_cost(costs, target);
    EXPECT_LE(plan.size(), std::max<std::size_t>(target, 1));
    std::vector<int> seen(n, 0);
    for (const auto& shard : plan) {
      EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
      for (const NodeId r : shard) {
        ASSERT_LT(r, n);
        ++seen[r];
      }
    }
    for (std::size_t r = 0; r < n; ++r)
      EXPECT_EQ(seen[r], 1) << "root " << r << " (trial " << trial << ")";
    // Deterministic: the plan is a pure function of the cost vector.
    EXPECT_EQ(plan, engine::pack_roots_by_cost(costs, target));
  }

  // LPT shape on a clearly skewed input: the dominant root sits alone.
  const auto skewed = engine::pack_roots_by_cost({1'000'000, 1, 1, 1, 1, 1}, 3);
  ASSERT_EQ(skewed.size(), 3u);
  bool dominant_alone = false;
  for (const auto& shard : skewed)
    if (shard == std::vector<NodeId>{0}) dominant_alone = true;
  EXPECT_TRUE(dominant_alone);
}

TEST(AdaptiveSharding, PlansAreValidPartitionsAndMergeIdentically) {
  // Whatever plan the packer produces, it must be a partition of the root
  // set — and any partition merges to the monolithic analysis, so run the
  // actual equivalence end-to-end through the engine-facing entry points.
  const Job job = Job::from_workload("paper_3dft");
  const Levels levels = compute_levels(job.dfg);
  const Reachability reach(job.dfg);
  EnumerateOptions options;
  options.max_size = job.select.capacity;
  options.span_limit = job.select.span_limit;

  EngineOptions threaded;
  threaded.threads = 3;
  Engine eng(threaded);
  const engine::JobResult result = eng.run(job);
  ASSERT_TRUE(result.success);

  const AntichainAnalysis whole = enumerate_antichains(job.dfg, levels, reach, options);
  EXPECT_EQ(result.antichains, whole.total);
}

TEST(Engine, CacheOffComputesEveryJob) {
  EngineOptions options;
  options.use_cache = false;
  Engine eng(options);
  const std::vector<Job> jobs = test_corpus();
  const engine::BatchResult batch = eng.run_batch(jobs);
  EXPECT_EQ(batch.analyses_computed, jobs.size());
  EXPECT_EQ(batch.analyses_reused, 0u);
  for (const engine::JobResult& r : batch.jobs) EXPECT_FALSE(r.analysis_cache_hit);
}

TEST(Engine, CacheOnDeduplicatesWithinBatch) {
  Engine eng;  // fresh private cache
  const std::vector<Job> jobs = test_corpus();  // contains paper_3dft twice
  SolveCounts before = solve_counts();
  const engine::BatchResult batch = eng.run_batch(jobs);
  SolveCounts delta = solve_delta(before);
  EXPECT_EQ(batch.succeeded(), jobs.size());
  EXPECT_EQ(batch.analyses_computed, jobs.size() - 1);
  EXPECT_EQ(batch.analyses_reused, 1u);
  // The duplicate shares its twin's solve as well as its analysis, and
  // only the job that solved carries select/schedule time.
  EXPECT_EQ(delta.computed, jobs.size() - 1);
  EXPECT_EQ(delta.reused, 1u);
  EXPECT_EQ(batch.jobs[3].timings.select_ms, 0.0);
  EXPECT_EQ(batch.jobs[3].timings.schedule_ms, 0.0);

  // A second identical batch is served entirely by the cache and the memo.
  before = solve_counts();
  const engine::BatchResult warm = eng.run_batch(jobs);
  delta = solve_delta(before);
  EXPECT_EQ(warm.analyses_computed, 0u);
  EXPECT_EQ(warm.analyses_reused, jobs.size());
  EXPECT_EQ(delta.computed, 0u);
  EXPECT_EQ(delta.reused, jobs.size());
  for (const engine::JobResult& r : warm.jobs) {
    EXPECT_TRUE(r.analysis_cache_hit);
    EXPECT_EQ(r.timings.select_ms + r.timings.schedule_ms + r.timings.refine_ms, 0.0);
  }
  EXPECT_EQ(batch_to_json(warm).dump(), batch_to_json(batch).dump());
}

TEST(Engine, SolvedResultMemoKeyCoversEveryJobOption) {
  // Each case memoizes a base job on one warm engine, then runs a job
  // that differs from it in a single key field. The warm answer must equal
  // a fresh engine's, and the field must really change the solved result,
  // so a key that dropped it would hand the variant the base's schedule.

  // Two chains of one color, one with a redundant edge: stripping it
  // lowers a node's direct-successor count and so its priority. The
  // workload graphs tried keep their schedules under this transform.
  Dfg chains("two_chains");
  for (int i = 0; i < 6; ++i) chains.add_node("a");
  chains.add_edge(0, 1);
  chains.add_edge(1, 2);
  chains.add_edge(3, 4);
  chains.add_edge(4, 5);
  chains.add_edge(3, 5);
  Job chains_job;
  chains_job.name = "two_chains";
  chains_job.dfg = chains;
  chains_job.select.capacity = 1;
  chains_job.select.pattern_count = 1;

  struct Case {
    const char* field;
    Job base;
    std::function<void(Job&)> vary;
  };
  const Job dft = Job::from_workload("paper_3dft");
  Job dft_refined = dft;
  dft_refined.refine = true;
  Job fir_random = Job::from_workload("fir(8)");
  fir_random.schedule.tie_break = TieBreak::Random;
  const std::vector<Case> cases = {
      {"pattern_count", dft, [](Job& j) { j.select.pattern_count = 3; }},
      {"epsilon", dft, [](Job& j) { j.select.epsilon = 0.01; }},
      {"alpha", dft, [](Job& j) { j.select.alpha = 0.0; }},
      {"size_bonus", dft, [](Job& j) { j.select.size_bonus = SizeBonus::None; }},
      {"rule", dft, [](Job& j) { j.schedule.rule = PatternRule::F1CoverCount; }},
      {"tie_break", Job::from_workload("fir(8)"),
       [](Job& j) { j.schedule.tie_break = TieBreak::Random; }},
      {"seed", fir_random, [](Job& j) { j.schedule.seed = 2; }},
      {"random_pattern_ties", Job::from_workload("dct8"),
       [](Job& j) { j.schedule.random_pattern_ties = true; }},
      {"priority_params", dft, [](Job& j) { j.schedule.priority_params = {1, 1}; }},
      {"max_cycles", dft, [](Job& j) { j.schedule.max_cycles = 3; }},
      {"refine", dft, [](Job& j) { j.refine = true; }},
      {"candidate_pool", dft_refined, [](Job& j) { j.refinement.candidate_pool = 1; }},
      {"max_sweeps", dft_refined, [](Job& j) { j.refinement.max_sweeps = 0; }},
      {"backend", dft, [](Job& j) { j.backend = "list"; }},
      {"transforms", chains_job,
       [](Job& j) { j.transforms = {"strip_redundant_edges"}; }},
  };

  Engine warm;
  for (const Case& c : cases) {
    const engine::JobResult base = warm.run(c.base);
    Job variant = c.base;
    c.vary(variant);
    const engine::JobResult memo_side = warm.run(variant);
    Engine fresh;
    const engine::JobResult reference = fresh.run(variant);
    EXPECT_EQ(result_to_json(memo_side).dump(), result_to_json(reference).dump())
        << c.field;
    EXPECT_NE(solved_json(reference), solved_json(base))
        << c.field << " does not change the solved result of " << c.base.resolved_name();
  }
}

TEST(Engine, SchedulerFailureIsReportedNotThrown) {
  // Pdef=1 with C=1 on a 3-color graph: the single selected pattern can
  // hold one color, so the set cannot cover the graph and the scheduler
  // must refuse. The engine reports that as a failed JobResult — it never
  // lets the exception/abort escape the batch.
  Job job = Job::from_workload("paper_3dft");
  job.select.pattern_count = 1;
  job.select.capacity = 1;
  Engine eng;
  const engine::JobResult r = eng.run(job);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.error.empty());
  EXPECT_TRUE(r.node_cycles.empty());

  // The failure is what the backend returned, so the memo keeps it: the
  // rerun reports the same error without solving again.
  const SolveCounts before = solve_counts();
  const engine::JobResult again = eng.run(job);
  const SolveCounts delta = solve_delta(before);
  EXPECT_FALSE(again.success);
  EXPECT_EQ(again.error, r.error);
  EXPECT_TRUE(again.node_cycles.empty());
  EXPECT_EQ(delta.computed, 0u);
  EXPECT_EQ(delta.reused, 1u);

  // A backend that throws (selection rejects ε = 0) fails its job the same
  // way, but nothing is memoized: the rerun calls the backend again.
  Job throwing = Job::from_workload("paper_3dft");
  throwing.select.epsilon = 0.0;
  const engine::JobResult thrown = eng.run(throwing);
  EXPECT_FALSE(thrown.success);
  EXPECT_NE(thrown.error.find("epsilon"), std::string::npos) << thrown.error;
  const SolveCounts before_rethrow = solve_counts();
  EXPECT_EQ(eng.run(throwing).error, thrown.error);
  EXPECT_EQ(solve_delta(before_rethrow).computed, 1u);
}

TEST(Engine, MemoHitsWriteTheBytesOfACacheOffRun) {
  // A memo hit's compact results splice each entry's pre-rendered text; a
  // cache-off engine holds no entries and writes every member. The raw
  // bytes must be the same.
  std::vector<Job> jobs = test_corpus();  // holds a duplicate
  Job stacked = Job::from_workload("fir(8)");
  stacked.transforms = {"cse", "mac_fusion"};
  jobs.push_back(std::move(stacked));
  Job listed = Job::from_workload("paper_3dft");
  listed.backend = "list";
  jobs.push_back(std::move(listed));
  Job uncovered = Job::from_workload("paper_3dft");  // the backend fails
  uncovered.select.pattern_count = 1;
  uncovered.select.capacity = 1;
  jobs.push_back(std::move(uncovered));
  const auto compact = [](const engine::BatchResult& batch) {
    std::string text;
    JsonWriter out(text);
    write_batch(out, batch);
    return text;
  };

  Engine warm;
  const engine::BatchResult first = warm.run_batch(jobs);
  const SolveCounts before = solve_counts();
  const engine::BatchResult hit = warm.run_batch(jobs);
  EXPECT_EQ(solve_delta(before).computed, 0u);
  EngineOptions options;
  options.use_cache = false;
  Engine uncached(options);
  const engine::BatchResult reference = uncached.run_batch(jobs);

  EXPECT_FALSE(hit.jobs.back().success);
  EXPECT_FALSE(hit.jobs.back().error.empty());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_NE(hit.jobs[i].memo, nullptr) << hit.jobs[i].job;
    EXPECT_EQ(reference.jobs[i].memo, nullptr) << reference.jobs[i].job;
  }
  EXPECT_EQ(compact(hit), compact(reference));
  EXPECT_EQ(compact(first), compact(reference));
}

TEST(AnalysisCache, EnginesSharingOneCacheConcurrentlyMatchTheReference) {
  // Analyses and solved results are published by whichever engine gets
  // there first; the other engine's concurrent lookups must see either
  // nothing or a complete entry, never a torn one.
  const std::vector<Job> jobs = test_corpus();
  EngineOptions reference_options;
  reference_options.use_cache = false;
  const std::string reference =
      batch_to_json(Engine(reference_options).run_batch(jobs)).dump();

  AnalysisCache shared;
  EngineOptions options;
  options.threads = 2;
  options.cache = &shared;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> runners;
  for (int e = 0; e < 2; ++e) {
    runners.emplace_back([&] {
      Engine eng(options);
      for (int round = 0; round < 3; ++round)
        if (batch_to_json(eng.run_batch(jobs)).dump() != reference)
          mismatches.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : runners) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Engine, JobNamesBackFill) {
  // Unnamed jobs resolve to the workload spec, else the graph's name —
  // identically in results and corpus files (Job::resolved_name).
  Job unnamed;
  unnamed.dfg = workloads::small_example();
  Job from_spec = Job::from_workload("dct8");
  from_spec.name.clear();
  Engine eng;
  const engine::BatchResult batch = eng.run_batch({unnamed, from_spec});
  EXPECT_EQ(batch.jobs[0].job, "fig4-small-example");
  EXPECT_EQ(batch.jobs[1].job, "dct8");
}

TEST(CorpusIo, JsonRoundTripIsFixpoint) {
  std::vector<Job> jobs = test_corpus();
  // Also exercise an embedded-graph job (no workload spec).
  Job inline_job;
  inline_job.name = "inline";
  inline_job.dfg = workloads::small_example();
  inline_job.select.span_limit = std::nullopt;  // serializes as null
  jobs.push_back(std::move(inline_job));
  // An unnamed job: the writer must normalize the name the same way the
  // reader back-fills it, or save → load → save would not be a fixpoint.
  Job unnamed;
  unnamed.dfg = workloads::small_example();
  jobs.push_back(std::move(unnamed));

  const std::string once = corpus_to_json(jobs).dump(2);
  const std::vector<Job> reloaded = corpus_from_json(Json::parse(once));
  const std::string twice = corpus_to_json(reloaded).dump(2);
  EXPECT_EQ(once, twice);

  ASSERT_EQ(reloaded.size(), jobs.size());
  EXPECT_EQ(reloaded.back().name, "fig4-small-example");  // back-filled
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!jobs[i].name.empty()) {
      EXPECT_EQ(reloaded[i].name, jobs[i].name);
    }
    EXPECT_EQ(reloaded[i].dfg.node_count(), jobs[i].dfg.node_count());
    EXPECT_EQ(reloaded[i].dfg.edge_count(), jobs[i].dfg.edge_count());
    EXPECT_EQ(reloaded[i].select.span_limit, jobs[i].select.span_limit);
    EXPECT_EQ(reloaded[i].select.generation, jobs[i].select.generation);
    EXPECT_EQ(reloaded[i].refine, jobs[i].refine);
  }

  // And the reloaded corpus runs to the same results as the original.
  Engine eng;
  EXPECT_EQ(batch_to_json(eng.run_batch(jobs)).dump(),
            batch_to_json(eng.run_batch(reloaded)).dump());
}

TEST(CorpusIo, RejectsMalformedCorpora) {
  EXPECT_THROW(corpus_from_json(Json::parse(R"({"jobs":[]})")), std::invalid_argument);
  const std::string header = R"({"schema":"mpsched.batch.corpus/v1","jobs":)";
  // Unknown keys are typos, not extensions.
  EXPECT_THROW(corpus_from_json(
                   Json::parse(header + R"([{"workload":"dct8","selct":{}}]})")),
               std::invalid_argument);
  // Exactly one graph source.
  EXPECT_THROW(corpus_from_json(Json::parse(header + R"([{"name":"x"}]})")),
               std::invalid_argument);
  EXPECT_THROW(
      corpus_from_json(Json::parse(
          header + R"([{"workload":"dct8","dfg":"dfg d\nnode n a\n"}]})")),
      std::invalid_argument);
  // Unknown workload spec.
  EXPECT_THROW(
      corpus_from_json(Json::parse(header + R"j([{"workload":"nope(3)"}]})j")),
      std::invalid_argument);
  // Bad enum value.
  EXPECT_THROW(corpus_from_json(Json::parse(
                   header + R"([{"workload":"dct8","select":{"generation":"magic"}}]})")),
               std::invalid_argument);
  // A refinement block without "refine": true would be silently dropped on
  // re-serialization; reject it instead.
  EXPECT_THROW(
      corpus_from_json(Json::parse(
          header + R"([{"workload":"dct8","refinement":{"max_sweeps":3}}]})")),
      std::invalid_argument);
  // Select and refinement integers outside [0, INT_MAX] would wrap in the
  // size_t/int casts (capacity -1 or 1e12 into an unbounded C,
  // pattern_count -1 into a silently different job, max_sweeps -1 into
  // SIZE_MAX, which the writer emits as a double that no longer reads
  // back as an integer); each fails the parse, valid neighbour or not.
  for (const char* options :
       {R"("select":{"capacity":-1})", R"("select":{"capacity":1e12})",
        R"("select":{"pattern_count":-1})", R"("select":{"span_limit":-1})",
        R"("select":{"span_limit":4294967296})",
        R"("refine":true,"refinement":{"candidate_pool":-1})",
        R"("refine":true,"refinement":{"candidate_pool":4294967296})",
        R"("refine":true,"refinement":{"max_sweeps":-1})",
        R"("refine":true,"refinement":{"max_sweeps":4294967296})"}) {
    SCOPED_TRACE(options);
    EXPECT_THROW(corpus_from_json(Json::parse(header + R"([{"workload":"dct8",)" + options +
                                              R"(},{"workload":"paper_3dft"}]})")),
                 std::invalid_argument);
  }
}

TEST(Engine, StatsCacheCountersAreDispatchBoundaryConsistent) {
  // stats() promises dispatch-boundary consistency: the cache counter
  // snapshot and the dispatch counters are captured under one lock and
  // updated under the same lock at the end of every dispatch, so no
  // snapshot can report a dispatch without the cache traffic that
  // dispatch caused. With a private cache and all-distinct jobs, every
  // computed analysis is exactly one analysis miss — a reader racing the
  // dispatch tail would see computed > misses under a live read. The
  // counters are process-wide, so the invariant holds for deltas from
  // the engine's starting snapshot.
  Engine eng;
  const engine::EngineStats base = eng.stats();
  const auto misses = [&](const engine::CacheStats& c) {
    return c.analysis_misses - base.cache.analysis_misses;
  };
  const auto computed = [&](const engine::EngineStats& s) {
    return s.analyses_computed - base.analyses_computed;
  };
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> inconsistent{0};
  std::thread hammer([&] {
    while (!done.load(std::memory_order_acquire)) {
      const engine::EngineStats snapshot = eng.stats();
      if (misses(snapshot.cache) != computed(snapshot))
        inconsistent.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // 16 distinct fir taps across 8 batches: no duplicates anywhere, so the
  // invariant is exact at every dispatch boundary.
  for (int batch = 0; batch < 8; ++batch) {
    std::vector<Job> jobs;
    jobs.push_back(Job::from_workload("fir(" + std::to_string(2 + 2 * batch) + ")"));
    jobs.push_back(Job::from_workload("fir(" + std::to_string(3 + 2 * batch) + ")"));
    const engine::BatchResult result = eng.run_batch(jobs);
    ASSERT_EQ(result.succeeded(), jobs.size());
    // run_batch reports the same dispatch-boundary snapshot stats() does —
    // exact here because the batches are sequential and all-distinct.
    EXPECT_EQ(misses(result.cache_stats), 2u * static_cast<std::uint64_t>(batch + 1));
  }
  done.store(true, std::memory_order_release);
  hammer.join();
  EXPECT_EQ(inconsistent.load(), 0u);
  const engine::EngineStats final_stats = eng.stats();
  EXPECT_EQ(computed(final_stats), 16u);
  EXPECT_EQ(misses(final_stats.cache), 16u);
}

TEST(Engine, RunBatchCacheStatsAreDispatchBoundaryConsistent) {
  // BatchResult::cache_stats must be the same dispatch-boundary snapshot
  // stats() serves, not a live read of the cache counters: a live read can
  // land mid-way through a concurrent dispatch's lookups and tear the
  // invariant below. Every batch holds 2 globally-distinct jobs, so each
  // dispatch — coalesced or not — adds an even number of analysis misses,
  // and every boundary snapshot reports an even count (counted from the
  // engine's starting snapshot: the counters are process-wide).
  Engine eng;
  const std::uint64_t misses_before = eng.stats().cache.analysis_misses;
  std::atomic<int> violations{0};
  std::atomic<int> next{0};
  constexpr int kJobs = 32;  // fir taps 2..33, all distinct
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        const int base = next.fetch_add(2, std::memory_order_relaxed);
        if (base >= kJobs) break;
        std::vector<Job> jobs;
        jobs.push_back(Job::from_workload("fir(" + std::to_string(2 + base) + ")"));
        jobs.push_back(Job::from_workload("fir(" + std::to_string(3 + base) + ")"));
        const engine::BatchResult result = eng.run_batch(jobs);
        if (result.succeeded() != jobs.size() ||
            (result.cache_stats.analysis_misses - misses_before) % 2 != 0)
          violations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& th : workers) th.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(eng.stats().cache.analysis_misses - misses_before,
            static_cast<std::uint64_t>(kJobs));
}

TEST(Engine, ShardWallTimesAreExemplarCharged) {
  Engine eng;
  const std::vector<Job> jobs = test_corpus();  // paper_3dft at 0 and 3
  const engine::BatchResult batch = eng.run_batch(jobs);
  ASSERT_EQ(batch.succeeded(), jobs.size());

  // The exemplar carries one measured wall time per shard; the duplicate
  // and every later cache hit carry none — same charging convention as
  // analysis_ms, so summing over a results file reflects work done.
  ASSERT_FALSE(batch.jobs[0].shard_ms.empty());
  for (const double ms : batch.jobs[0].shard_ms) EXPECT_GE(ms, 0.0);
  EXPECT_TRUE(batch.jobs[3].shard_ms.empty());

  const engine::BatchResult warm = eng.run_batch(jobs);
  for (const engine::JobResult& r : warm.jobs) EXPECT_TRUE(r.shard_ms.empty());

  // Serialization: shard_ms is diagnostics-only and omitted when empty.
  const Json with_diag = result_to_json(batch.jobs[0], true);
  ASSERT_NE(with_diag.find("shard_ms"), nullptr);
  EXPECT_EQ(with_diag.at("shard_ms").as_array().size(), batch.jobs[0].shard_ms.size());
  EXPECT_EQ(result_to_json(batch.jobs[0], false).find("shard_ms"), nullptr);
  EXPECT_EQ(result_to_json(batch.jobs[3], true).find("shard_ms"), nullptr);
}

TEST(Engine, InvalidOptionsFailOnlyTheirJobWithAnAnalysisError) {
  // Enumeration options are validated inside the engine, when the shard
  // planner estimates root costs. An invalid job fails alone, with the
  // enumeration's own message under the "analysis: " prefix; its valid
  // neighbour in the same dispatch succeeds, and nothing is cached for
  // the failure.
  // A capacity above the antichain layer's ceiling fails the same way, on
  // both generation paths, before any per-size table or cost series is
  // sized by it (SIZE_MAX used to spin the root-cost estimate).
  Job no_capacity = Job::from_workload("fir(8)");
  no_capacity.select.capacity = 0;
  Job negative_span = Job::from_workload("dct8");
  negative_span.select.span_limit = -1;
  Job huge_capacity = Job::from_workload("dct8");
  huge_capacity.select.capacity = std::numeric_limits<std::size_t>::max();
  Job analytic_capacity = Job::from_workload("dct8");
  analytic_capacity.select.capacity = kMaxAntichainSize + 1;
  analytic_capacity.select.generation = PatternGeneration::LevelAnalytic;
  const std::vector<Job> jobs{no_capacity, negative_span, huge_capacity, analytic_capacity,
                              Job::from_workload("paper_3dft")};

  Engine eng;
  const engine::BatchResult batch = eng.run_batch(jobs);
  ASSERT_EQ(batch.jobs.size(), 5u);
  const auto expect_analysis_error = [](const engine::JobResult& r,
                                        const std::string& message) {
    EXPECT_FALSE(r.success) << r.job;
    EXPECT_TRUE(r.error.starts_with("analysis: ")) << r.error;
    EXPECT_NE(r.error.find(message), std::string::npos) << r.error;
  };
  expect_analysis_error(batch.jobs[0], "max_size must be at least 1");
  expect_analysis_error(batch.jobs[1], "span limit must be non-negative");
  expect_analysis_error(batch.jobs[2], "max_size must be at most 64");
  expect_analysis_error(batch.jobs[3], "max_size must be at most 64");
  EXPECT_TRUE(batch.jobs[4].success) << batch.jobs[4].error;
  // A failed check names its source file relative to the source tree, so
  // results never carry the checkout path the library was built in.
  for (const std::size_t i : {2u, 3u})
    EXPECT_NE(batch.jobs[i].error.find(" at src/antichain/"), std::string::npos)
        << batch.jobs[i].error;

  // A failed analysis is never published: the bad job recomputes (and
  // fails) again, and only the valid job's analysis is held.
  const engine::JobResult again = eng.run(no_capacity);
  EXPECT_FALSE(again.analysis_cache_hit);
  expect_analysis_error(again, "max_size must be at least 1");
  EXPECT_EQ(eng.cache().analysis_count(), 1u);
}

TEST(Workloads, SpecRegistry) {
  for (const std::string& spec : workloads::demo_corpus_specs()) {
    EXPECT_TRUE(workloads::is_valid_workload(spec)) << spec;
    const Dfg dfg = workloads::make_workload(spec);
    EXPECT_GT(dfg.node_count(), 0u) << spec;
    EXPECT_EQ(dfg.name(), spec);
  }
  // Deterministic: same spec, same graph.
  const Dfg a = workloads::make_workload("layered(42)");
  const Dfg b = workloads::make_workload("layered(42)");
  EXPECT_EQ(AnalysisCache::graph_key(a), AnalysisCache::graph_key(b));

  EXPECT_THROW(workloads::make_workload("unknown_thing"), std::invalid_argument);
  EXPECT_THROW(workloads::make_workload("fir"), std::invalid_argument);
  EXPECT_THROW(workloads::make_workload("fir(1,2)"), std::invalid_argument);
  EXPECT_THROW(workloads::make_workload("fir(x)"), std::invalid_argument);
  EXPECT_THROW(workloads::make_workload("stencil5(2"), std::invalid_argument);
  EXPECT_FALSE(workloads::is_valid_workload("bogus(1)"));
}

}  // namespace
}  // namespace mpsched

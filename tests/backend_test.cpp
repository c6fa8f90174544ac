// Scheduler-backend registry (sched/backend.hpp) contracts:
//  * the table resolves the four backends and rejects unknown names;
//  * every backend x transform stack produces schedules satisfying the §4
//    invariants over the paper graphs and a seeded random corpus, both
//    driven directly and end-to-end through the engine (the cross-
//    validation gate of the pipeline refactor);
//  * the multi_pattern backend is the paper flow verbatim — identical
//    patterns, cycles, and per-node placement to the hand-wired
//    select_patterns + multi_pattern_schedule calls, and a default-pipeline
//    engine result serializes without any backend/transforms keys (the
//    pre-refactor document shape);
//  * backends that compose their own patterns reject refinement cleanly,
//    each with its pinned text;
//  * the exhaustive oracle is never worse than the §5.2 heuristic, returns
//    the schedule its winning set gets from the §4 scheduler, and fails
//    only its own job when the universe is too large to build;
//  * pipeline_cache_tag separates every non-default configuration while
//    the default tag keeps legacy cache-key bytes (pinned).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "antichain/enumerate.hpp"
#include "engine/analysis_cache.hpp"
#include "engine/check.hpp"
#include "engine/engine.hpp"
#include "engine/job.hpp"
#include "graph/transform.hpp"
#include "io/result_io.hpp"
#include "sched/backend.hpp"
#include "test_util.hpp"
#include "workloads/corpus.hpp"

namespace mpsched {
namespace {

constexpr std::size_t kCapacity = 5;

/// The §4 invariants of schedule_invariants_test, phrased over a backend
/// result: completeness, strict precedence, capacity, and per-cycle
/// pattern fit.
void check_section4_invariants(const Dfg& g, const Schedule& s,
                               const PatternSet& patterns) {
  for (NodeId n = 0; n < g.node_count(); ++n)
    ASSERT_TRUE(s.is_scheduled(n)) << "node " << n << " left unscheduled";
  for (NodeId n = 0; n < g.node_count(); ++n)
    for (const NodeId p : g.preds(n))
      EXPECT_LT(s.cycle_of(p), s.cycle_of(n))
          << "node " << n << " runs no later than predecessor " << p;
  for (const auto& cycle_nodes : s.cycles())
    EXPECT_LE(cycle_nodes.size(), kCapacity) << "cycle exceeds capacity C";
  const ScheduleValidation v = validate_schedule(g, s, patterns);
  EXPECT_TRUE(v.ok) << v.summary();
}

BackendResult solve(const std::string& backend_name, const Dfg& dfg,
                    bool refine = false) {
  const SchedulerBackend& backend = get_backend(backend_name);
  BackendRequest request;
  request.dfg = &dfg;
  request.refine = refine;
  // The analysis the engine would hand the backend: the candidates the
  // request's own generation options ask for.
  AntichainAnalysis analysis;
  if (backend.needs_analysis) {
    analysis = generate_candidates(dfg, request.select);
    request.analysis = &analysis;
  }
  return backend.solve(request);
}


// ---------------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------------

TEST(BackendRegistry, ResolvesKnownNamesAndRejectsUnknown) {
  EXPECT_EQ(backend_names(), (std::vector<std::string>{
                                 "multi_pattern", "list", "force_directed",
                                 "exhaustive"}));
  for (const std::string& name : backend_names()) {
    const SchedulerBackend* b = find_backend(name);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->name, name);
    EXPECT_FALSE(b->description.empty());
    EXPECT_NE(b->solve, nullptr);
    EXPECT_EQ(&get_backend(name), b);
  }
  EXPECT_EQ(find_backend("bogus"), nullptr);
  EXPECT_THROW(get_backend("bogus"), std::invalid_argument);
  EXPECT_EQ(test::thrown_message([] { (void)get_backend("bogus"); }),
            "unknown backend 'bogus' (known: multi_pattern, list, force_directed, exhaustive)");
  EXPECT_EQ(std::string(kDefaultBackend), "multi_pattern");
  EXPECT_TRUE(get_backend(kDefaultBackend).needs_analysis);
}

TEST(BackendRegistry, OnlyThePaperFlowConsumesTheAnalysis) {
  EXPECT_TRUE(get_backend("multi_pattern").needs_analysis);
  EXPECT_FALSE(get_backend("list").needs_analysis);
  EXPECT_FALSE(get_backend("force_directed").needs_analysis);
  EXPECT_FALSE(get_backend("exhaustive").needs_analysis);
}

// ---------------------------------------------------------------------------
// cross-validation: every backend x transform stack, direct and via engine
// ---------------------------------------------------------------------------

const std::vector<std::string>& corpus() {
  static const std::vector<std::string> specs = {
      "paper_3dft", "small_example", "dft3", "fir(8)", "layered(7)",
      "expr_tree(5)"};
  return specs;
}

const std::vector<std::vector<std::string>>& stacks() {
  static const std::vector<std::vector<std::string>> all = {
      {}, {"identity"}, {"strip_redundant_edges"},
      {"strip_redundant_edges", "identity"}, {"cse", "rebalance_reductions"}};
  return all;
}

/// Stacks with MAC fusion add the fused color 'm'. On most graphs of
/// three colors the exhaustive oracle then takes seconds, so these run
/// only on graphs where it stays cheap: fir(8), and random DAGs drawn
/// over {a, c} (three colors once fused).
const std::vector<std::vector<std::string>>& fusion_stacks() {
  static const std::vector<std::vector<std::string>> all = {
      {"mac_fusion"}, {"cse", "rebalance_reductions", "mac_fusion"}};
  return all;
}

void check_directly(const std::string& spec, const std::vector<std::string>& stack) {
  const Dfg g = TransformPipeline::from_specs(stack).apply(workloads::make_workload(spec));
  for (const std::string& backend : backend_names()) {
    const BackendResult r = solve(backend, g);
    ASSERT_TRUE(r.success) << spec << " backend=" << backend << ": " << r.error;
    EXPECT_EQ(r.cycles, r.schedule.cycle_count());
    check_section4_invariants(g, r.schedule, r.patterns);
  }
}

TEST(BackendCrossValidation, EveryBackendAndStackSatisfiesSection4Directly) {
  for (const std::string& spec : corpus())
    for (const std::vector<std::string>& stack : stacks())
      ASSERT_NO_FATAL_FAILURE(check_directly(spec, stack));
  for (const std::vector<std::string>& stack : fusion_stacks())
    ASSERT_NO_FATAL_FAILURE(check_directly("fir(8)", stack));
}

/// Runs `base` through the engine under `stack` on every backend and checks
/// the result against the effective graph (the pipeline's output) with
/// engine::check_result, which rebuilds that graph and the schedule itself.
void check_through_engine(engine::Engine& eng, const std::string& label, const Dfg& base,
                          const std::vector<std::string>& stack) {
  for (const std::string& backend : backend_names()) {
    engine::Job job;
    job.name = label;
    job.dfg = base;
    job.transforms = stack;
    job.backend = backend;
    const engine::JobResult r = eng.run(job);
    ASSERT_TRUE(r.success) << label << " backend=" << backend << ": " << r.error;
    EXPECT_EQ(r.backend, backend);
    EXPECT_EQ(r.transforms, stack);
    const engine::ResultCheck check = engine::check_result(job, r);
    EXPECT_EQ(check.error, "") << label << " backend=" << backend;
    EXPECT_EQ(r.nodes, check.dfg.node_count());
    EXPECT_EQ(r.edges, check.dfg.edge_count());
    // Capacity: the tile has C ALUs, so a wider cycle fails allocation.
    EXPECT_TRUE(check.execution.ok)
        << label << " backend=" << backend << ": " << check.execution.error;
  }
}

TEST(BackendCrossValidation, RandomDagSweepThroughTheEngine) {
  engine::Engine eng;
  for (const std::uint64_t seed : {17u, 43u, 97u}) {
    const std::string label = "seed" + std::to_string(seed);
    const Dfg base = test::random_dag(seed);
    for (const std::vector<std::string>& stack : stacks())
      ASSERT_NO_FATAL_FAILURE(check_through_engine(eng, label, base, stack));
    const Dfg add_mul = test::random_add_mul_dag(seed);
    for (const std::vector<std::string>& stack : fusion_stacks())
      ASSERT_NO_FATAL_FAILURE(check_through_engine(eng, label + "/ac", add_mul, stack));
  }
}

TEST(BackendCrossValidation, UnknownPipelineNamesFailOnlyThatJob) {
  engine::Engine eng;
  engine::Job bad = engine::Job::from_workload("small_example");
  bad.backend = "bogus";
  engine::Job good = engine::Job::from_workload("small_example");
  const engine::BatchResult batch = eng.run_batch({bad, good});
  ASSERT_EQ(batch.jobs.size(), 2u);
  EXPECT_FALSE(batch.jobs[0].success);
  EXPECT_TRUE(batch.jobs[0].error.rfind("pipeline: ", 0) == 0)
      << batch.jobs[0].error;
  EXPECT_TRUE(batch.jobs[1].success) << batch.jobs[1].error;
}

// ---------------------------------------------------------------------------
// multi_pattern == the pre-refactor paper flow
// ---------------------------------------------------------------------------

TEST(MultiPatternBackend, MatchesTheHandWiredPaperFlow) {
  for (const std::string& spec : corpus()) {
    const Dfg g = workloads::make_workload(spec);
    const BackendResult via_backend = solve("multi_pattern", g);
    ASSERT_TRUE(via_backend.success) << spec << ": " << via_backend.error;

    const SelectionResult sel = select_patterns(g, SelectOptions{});
    const MpScheduleResult legacy = multi_pattern_schedule(g, sel.patterns);
    ASSERT_TRUE(legacy.success) << spec;

    EXPECT_EQ(via_backend.cycles, legacy.cycles) << spec;
    EXPECT_EQ(via_backend.antichains, sel.antichains_enumerated) << spec;
    EXPECT_EQ(via_backend.candidate_patterns, sel.candidate_patterns) << spec;
    ASSERT_EQ(via_backend.patterns.size(), sel.patterns.size()) << spec;
    for (std::size_t i = 0; i < sel.patterns.size(); ++i)
      EXPECT_EQ(via_backend.patterns[i], sel.patterns[i]) << spec;
    for (NodeId n = 0; n < g.node_count(); ++n)
      EXPECT_EQ(via_backend.schedule.cycle_of(n), legacy.schedule.cycle_of(n))
          << spec << " node " << n;
  }
}

TEST(MultiPatternBackend, DefaultEngineResultKeepsThePreRefactorShape) {
  engine::Engine eng;
  const engine::JobResult r = eng.run(engine::Job::from_workload("paper_3dft"));
  ASSERT_TRUE(r.success) << r.error;

  const Dfg g = workloads::make_workload("paper_3dft");
  const SelectionResult sel = select_patterns(g, SelectOptions{});
  const MpScheduleResult legacy = multi_pattern_schedule(g, sel.patterns);
  EXPECT_EQ(r.cycles, legacy.cycles);
  for (std::size_t n = 0; n < r.node_cycles.size(); ++n)
    EXPECT_EQ(r.node_cycles[n], legacy.schedule.cycle_of(static_cast<NodeId>(n)));

  // Serialized default results carry no pipeline keys at all — the results
  // document is byte-compatible with pre-refactor readers and writers.
  const Json doc = result_to_json(r);
  EXPECT_EQ(doc.find("backend"), nullptr);
  EXPECT_EQ(doc.find("transforms"), nullptr);
}

// ---------------------------------------------------------------------------
// refinement + oracle ordering
// ---------------------------------------------------------------------------

TEST(Backends, SelfComposingBackendsRejectRefinementCleanly) {
  const Dfg g = workloads::make_workload("small_example");
  const std::pair<std::string, std::string> rejections[] = {
      {"list", "backend 'list' composes its own patterns; refinement is not applicable"},
      {"force_directed",
       "backend 'force_directed' composes its own patterns; refinement is not applicable"},
      {"exhaustive",
       "backend 'exhaustive' already optimises over pattern sets; refinement is not "
       "applicable"},
  };
  for (const auto& [name, error] : rejections) {
    const BackendResult r = solve(name, g, /*refine=*/true);
    EXPECT_FALSE(r.success) << name;
    EXPECT_EQ(r.error, error) << name;
  }
  const BackendResult ok = solve("multi_pattern", g, /*refine=*/true);
  EXPECT_TRUE(ok.success) << ok.error;
}

TEST(Backends, ExhaustiveOracleIsNeverWorseThanTheHeuristic) {
  for (const std::string& spec :
       {std::string("small_example"), std::string("dft3"),
        std::string("expr_tree(5)")}) {
    const Dfg g = workloads::make_workload(spec);
    const BackendResult heuristic = solve("multi_pattern", g);
    const BackendResult oracle = solve("exhaustive", g);
    ASSERT_TRUE(heuristic.success) << spec << ": " << heuristic.error;
    ASSERT_TRUE(oracle.success) << spec << ": " << oracle.error;
    EXPECT_LE(oracle.cycles, heuristic.cycles) << spec;

    // The search keeps the winning set's schedule: scheduling that set
    // once more must reproduce it exactly.
    const MpScheduleResult rerun = multi_pattern_schedule(g, oracle.patterns);
    ASSERT_TRUE(rerun.success) << spec << ": " << rerun.error;
    EXPECT_EQ(oracle.cycles, rerun.cycles) << spec;
    EXPECT_EQ(oracle.schedule.cycle_count(), rerun.schedule.cycle_count()) << spec;
    for (NodeId n = 0; n < g.node_count(); ++n)
      EXPECT_EQ(oracle.schedule.cycle_of(n), rerun.schedule.cycle_of(n))
          << spec << " node " << n;
    for (std::size_t c = 0; c < rerun.schedule.cycle_count(); ++c)
      EXPECT_EQ(oracle.schedule.cycle_pattern(static_cast<int>(c)),
                rerun.schedule.cycle_pattern(static_cast<int>(c)))
          << spec << " cycle " << c;
  }
}

TEST(Backends, ExhaustiveGuardFailsOnlyThatJobBeforeBuildingTheUniverse) {
  // Eight one-node colors at C = 64: the universe would hold C(71, 64) =
  // 1,329,890,705 patterns, so the guard must reject the job up front.
  Dfg wide("eight_colors");
  for (const char* color : {"a", "b", "c", "d", "e", "f", "g", "h"}) wide.add_node(color);
  engine::Job huge;
  huge.name = "eight_colors";
  huge.dfg = wide;
  huge.backend = "exhaustive";
  huge.select.capacity = 64;
  engine::Job sibling = engine::Job::from_workload("small_example");
  sibling.backend = "exhaustive";

  engine::Engine eng;
  const engine::BatchResult batch = eng.run_batch({huge, sibling});
  ASSERT_EQ(batch.jobs.size(), 2u);
  EXPECT_FALSE(batch.jobs[0].success);
  EXPECT_EQ(batch.jobs[0].error.rfind("exhaustive: ", 0), 0u) << batch.jobs[0].error;
  EXPECT_NE(batch.jobs[0].error.find("1329890705 patterns"), std::string::npos)
      << batch.jobs[0].error;
  EXPECT_TRUE(batch.jobs[1].success) << batch.jobs[1].error;
}

TEST(Backends, ExhaustiveTriesAUniverseSmallerThanPdefWhole) {
  // MAC fusion turns horner(6) into a chain of six 'm' nodes: one color,
  // so the oracle's universe is the single pattern "mmmmm", fewer than the
  // default Pdef of 4.
  engine::Engine eng;
  engine::Job job = engine::Job::from_workload("horner(6)");
  job.transforms = {"mac_fusion"};
  job.backend = "exhaustive";
  const engine::JobResult oracle = eng.run(job);
  ASSERT_TRUE(oracle.success) << oracle.error;
  EXPECT_EQ(oracle.patterns, std::vector<std::string>{"mmmmm"});
  EXPECT_EQ(engine::check_result(job, oracle).error, "");
  job.backend = kDefaultBackend;
  const engine::JobResult heuristic = eng.run(job);
  ASSERT_TRUE(heuristic.success) << heuristic.error;
  EXPECT_EQ(oracle.cycles, 6u);
  EXPECT_EQ(heuristic.cycles, 6u);
}

// ---------------------------------------------------------------------------
// pinned cache-key behavior
// ---------------------------------------------------------------------------

TEST(PipelineCacheTag, DefaultIsEmptyAndVariantsAreDistinct) {
  const std::string def(kDefaultBackend);
  EXPECT_EQ(engine::pipeline_cache_tag({}, def), "");
  EXPECT_EQ(engine::pipeline_cache_tag({"identity"}, def), "identity|multi_pattern");
  EXPECT_EQ(engine::pipeline_cache_tag({}, "list"), "|list");
  EXPECT_EQ(engine::pipeline_cache_tag({"a", "b"}, "list"), "a,b|list");
}

TEST(PipelineCacheTag, KeysSeparatePipelinesAndDefaultKeepsLegacyBytes) {
  const Dfg g = workloads::make_workload("paper_3dft");
  const SelectOptions so;
  auto key = [&](const std::vector<std::string>& transforms,
                 const std::string& backend) {
    return engine::AnalysisCache::analysis_key(
        g, so.generation, so.capacity, so.span_limit,
        engine::pipeline_cache_tag(transforms, backend));
  };
  const std::string def(kDefaultBackend);

  // Pinned: the default pipeline's key IS the pre-pipeline key (the
  // argument-less overload), so warm disk caches survive the refactor.
  const engine::CacheKey legacy = engine::AnalysisCache::analysis_key(
      g, so.generation, so.capacity, so.span_limit);
  EXPECT_EQ(key({}, def), legacy);

  // Any transform stack or backend change must move the key.
  const std::vector<engine::CacheKey> keys = {
      key({}, def), key({"identity"}, def), key({"strip_redundant_edges"}, def),
      key({"identity", "strip_redundant_edges"}, def),
      key({"strip_redundant_edges", "identity"}, def), key({}, "list"),
      key({}, "exhaustive"), key({"identity"}, "list")};
  for (std::size_t i = 0; i < keys.size(); ++i)
    for (std::size_t j = i + 1; j < keys.size(); ++j)
      EXPECT_NE(keys[i], keys[j]) << "keys " << i << " and " << j << " collide";
}

}  // namespace
}  // namespace mpsched

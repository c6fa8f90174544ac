// Shared deterministic fixtures for the test suites: seeded DAG and
// pattern-set builders, the §4 schedule-validity assertion helper, and
// the Montium compiler flow as an engine job plus its result check, so
// individual suites stop re-rolling their own copies of this setup.
//
// Everything here is fully determined by the seeds passed in — no global
// state, no time-based entropy — so any failure reproduces from the gtest
// parameter alone.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "antichain/enumerate.hpp"
#include "core/mp_schedule.hpp"
#include "engine/check.hpp"
#include "engine/engine.hpp"
#include "graph/levels.hpp"
#include "pattern/random.hpp"
#include "sched/schedule.hpp"
#include "util/rng.hpp"
#include "workloads/random_dag.hpp"

namespace mpsched::test {

/// Seeded layered random DAG with the default distribution shared across
/// property suites (6 layers, width 2–8, DSP-style color mix).
inline Dfg random_dag(std::uint64_t seed,
                      const workloads::LayeredDagOptions& options = {}) {
  return workloads::random_layered_dag(seed, options);
}

/// Small layered DAG (3 layers, width 2–4) for sweeps that pair the
/// heuristic with exhaustive/optimal baselines.
inline Dfg small_random_dag(std::uint64_t seed) {
  workloads::LayeredDagOptions options;
  options.layers = 3;
  options.min_width = 2;
  options.max_width = 4;
  return workloads::random_layered_dag(seed, options);
}

/// random_dag over additions and multiplications ('a', 'c') only, so MAC
/// fusion's 'm' makes a third color rather than a fourth.
inline Dfg random_add_mul_dag(std::uint64_t seed) {
  workloads::LayeredDagOptions options;
  options.color_weights = {0.6, 0.4};
  options.color_names = {"a", "c"};
  return workloads::random_layered_dag(seed, options);
}

/// acc = ((t1+t2)+t3)+...: a left-leaning chain of `terms`-1 additions
/// ('a'), each also consuming one fresh multiplication ('c') — the naive
/// chain form a frontend without reassociation emits, which the
/// rebalance_reductions pass rebuilds as a tree.
inline Dfg addition_chain(std::size_t terms) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  const ColorId c = g.intern_color("c");
  NodeId acc = g.add_node(a);
  g.add_edge(g.add_node(c), acc);
  g.add_edge(g.add_node(c), acc);
  for (std::size_t i = 2; i < terms; ++i) {
    const NodeId next = g.add_node(a);
    g.add_edge(acc, next);
    g.add_edge(g.add_node(c), next);
    acc = next;
  }
  return g;
}

/// Seeded covering pattern set drawn from an explicit Rng, for sweeps that
/// take several draws from one stream.
inline PatternSet random_patterns(const Dfg& g, Rng& rng, std::size_t count,
                                  std::size_t capacity = 5) {
  RandomPatternOptions options;
  options.capacity = capacity;
  options.count = count;
  return random_pattern_set(g, rng, options);
}

/// The content key of a graph alone: the first of
/// AnalysisCache::content_keys, which the options given here do not feed.
inline engine::CacheKey graph_key(const Dfg& g) {
  return engine::AnalysisCache::content_keys(g, PatternGeneration::SpanLimitedEnumeration, 0,
                                             std::nullopt)
      .first;
}

/// Asserts the §4 validity properties on a scheduler result: the run
/// succeeded, every node is placed after its predecessors, every cycle's
/// color usage fits a pattern of `patterns`, and the cycle count is sane
/// (≥ critical path, ≤ one node per cycle). Contains fatal assertions —
/// call through ASSERT_NO_FATAL_FAILURE when later statements depend on
/// the schedule being valid.
inline void expect_valid_schedule(const Dfg& g, const MpScheduleResult& result,
                                  const PatternSet& patterns) {
  ASSERT_TRUE(result.success) << result.error;
  const ScheduleValidation v = validate_schedule(g, result.schedule, patterns);
  EXPECT_TRUE(v.ok) << v.summary();
  EXPECT_LE(result.cycles, g.node_count());
  if (g.node_count() > 0) {
    const Levels lv = compute_levels(g);
    EXPECT_GE(result.cycles, static_cast<std::size_t>(lv.critical_path_length()));
  }
}

/// The Montium compiler flow (paper §1) on `g` as an engine job: `pdef`
/// patterns selected from antichains of any span, for a tile of `alus`
/// ALUs.
inline engine::Job flow_job(const Dfg& g, std::size_t pdef = 4, std::size_t alus = 5) {
  engine::Job job;
  job.dfg = g;
  job.select.pattern_count = pdef;
  job.select.capacity = alus;
  job.select.span_limit = std::nullopt;
  return job;
}

/// An engine result and its engine::check_result verdict.
struct Checked {
  engine::JobResult result;
  engine::ResultCheck check;

  /// A valid §4 schedule that also runs on the tile.
  bool ok() const { return check.error.empty() && check.execution.ok; }
  std::string why() const { return check.error + check.execution.error; }
};

inline Checked run_checked(engine::Engine& eng, const engine::Job& job) {
  Checked out{eng.run(job), {}};
  out.check = engine::check_result(job, out.result);
  return out;
}

/// Field-by-field bit-identity of two antichain analyses — the contract
/// both cache tiers promise (engine_test for memory, cache_store_test for
/// the serialized round-trip).
inline void expect_analysis_identical(const AntichainAnalysis& a,
                                      const AntichainAnalysis& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.count_by_size_span, b.count_by_size_span);
  ASSERT_EQ(a.per_pattern.size(), b.per_pattern.size());
  for (std::size_t i = 0; i < a.per_pattern.size(); ++i) {
    EXPECT_EQ(a.per_pattern[i].pattern, b.per_pattern[i].pattern);
    EXPECT_EQ(a.per_pattern[i].antichain_count, b.per_pattern[i].antichain_count);
    EXPECT_EQ(a.per_pattern[i].node_frequency, b.per_pattern[i].node_frequency);
    EXPECT_EQ(a.per_pattern[i].members, b.per_pattern[i].members);
  }
}

/// What `f` throws, or "" when it does not throw.
template <typename F>
std::string thrown_message(F f) {
  try {
    f();
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

}  // namespace mpsched::test

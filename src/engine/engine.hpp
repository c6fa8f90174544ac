// The batch scheduling engine — "submit jobs, get results" (ROADMAP's
// service-layer substrate).
//
// Every caller used to hand-wire enumerate_antichains → select_patterns →
// multi_pattern_schedule per graph. The engine runs a whole corpus instead:
//
//   1. Deduplicate. One pass groups the jobs doing the same work: copies
//      of one graph (one Dfg block, as a corpus reader or the serve
//      daemon's graph intern hands out) under equal options. Every later
//      phase — resolve, transform, key, prepare, plan, enumerate, merge,
//      solve — runs once per group, and shares across groups by content
//      key (engine/analysis_cache.hpp): one prepared graph per graph key,
//      one antichain analysis per analysis key, one backend call per
//      solve key. A warm cache skips the computations entirely; only the
//      analysis probe and the copy into each JobResult run per job.
//   2. Shard. Each analysis to compute is split by enumeration root into
//      ~shards_per_thread × workers chunks, and ALL chunks of ALL jobs go
//      into one dynamically-balanced parallel_for — work steals across
//      jobs *and* within a job, so one huge DFG no longer serializes the
//      tail of the batch the way per-graph fan-out does. Shards are sized
//      by estimated root cost (estimate_root_costs + greedy LPT packing):
//      heavy roots get their own shards, light roots coalesce, so a single
//      skewed graph balances instead of leaving the pool idle.
//   3. Solve. Selection, scheduling and optional refinement run once per
//      distinct (analysis, options) key in a second parallel_for (they are
//      orders of magnitude cheaper than enumeration and strictly
//      sequential per job); duplicates share that one solve, and a warm
//      cache's solved-result memo skips it entirely.
//
// Determinism: shard merging is grouping-insensitive and every phase
// writes to per-index slots, so results — down to the serialized JSON —
// are bit-identical for any thread count, shard plan and cache state.
//
// Submission surface: submit_batch() enqueues a batch of jobs on an
// internal admission queue (engine/submission_queue.hpp) as one
// submission and returns its one Ticket; collect() takes the ticket's
// results. A dispatcher thread flushes every queued submission into one
// shared dispatch whenever it is free, so submissions that arrive while a
// dispatch runs share the next one. The queue and its dispatcher start
// with the engine and stop at shutdown(). run_batch() and run() block on
// the queue's run(): on an idle queue the calling thread runs the
// dispatch itself and no thread hop is paid; otherwise the jobs queue as
// one submission and may share a dispatch. Because a JobResult depends
// only on its Job, neither who runs the dispatch nor coalescing changes
// what any caller gets back.
//
// Counters: every event is counted once, in the process's metrics
// registry (obs/metrics.hpp), where the engine, cache, disk tier and
// queue record it. EngineStats and CacheStats are snapshots read from
// there, so `stats` and `metrics` cannot disagree. The numbers are
// process-wide: with one engine per process (mpsched_serve, mpsched_batch)
// they are that engine's; a process running several engines reads
// before/after deltas.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/analysis_cache.hpp"
#include "engine/job.hpp"
#include "engine/submission_queue.hpp"

namespace mpsched {
class ThreadPool;
}

namespace mpsched::engine {

struct EngineOptions {
  /// Worker threads for the engine's own pool; 0 = use ThreadPool::shared().
  std::size_t threads = 0;
  /// Memoize analyses and solved results (across run_batch calls) and
  /// deduplicate identical analyses and solves within a batch. Off → every
  /// job computes its own analysis and runs its own backend, the honest
  /// baseline for measuring what the cache buys.
  bool use_cache = true;
  /// Shared external cache; nullptr → the engine owns a private one.
  AnalysisCache* cache = nullptr;
  /// Non-empty → attach a CacheStore on this directory to the cache in
  /// use (owned or external), persisting analyses across processes.
  /// Created if absent; safe to share between concurrent processes.
  std::string cache_dir;
  /// Sharding granularity: target shards ≈ shards_per_thread × workers,
  /// clamped to the node count. Higher = better balance, more merge work.
  std::size_t shards_per_thread = 4;
};

/// Cache lookup counts, read from the registry.
struct CacheStats {
  std::uint64_t graph_hits = 0;     ///< cache.graph.hits
  std::uint64_t graph_misses = 0;   ///< cache.graph.misses
  std::uint64_t analysis_hits = 0;  ///< cache.mem.hits + cache.disk.hits
  /// Lookups neither tier served: cache.disk.misses with a disk tier
  /// (every memory miss falls through to it), else cache.mem.misses.
  std::uint64_t analysis_misses = 0;
};

struct BatchResult {
  std::vector<JobResult> jobs;

  // -- diagnostics (excluded from deterministic serialization) -----------
  double wall_ms = 0.0;
  /// Jobs whose analysis was computed fresh this batch.
  std::size_t analyses_computed = 0;
  /// Jobs served by the cache or by intra-batch deduplication.
  std::size_t analyses_reused = 0;
  /// The engine's dispatch-boundary cache snapshot (EngineStats::cache)
  /// after the batch: cumulative, and process-wide.
  CacheStats cache_stats{};

  std::size_t succeeded() const;
};

/// The "how warm is this engine" surface a long-running front end
/// (src/service) reports without poking engine internals: registry
/// counters plus the queue's depth. Counters only grow (queue_depth is
/// the instantaneous exception). The dispatch and cache fields are copied
/// at the end of this engine's last completed dispatch — never
/// mid-dispatch — so a stats() read always pairs dispatch counters with
/// the cache traffic those dispatches produced; the queue fields are live.
struct EngineStats {
  std::uint64_t batches = 0;  ///< engine.dispatches (shared or singleton)
  std::uint64_t jobs = 0;     ///< engine.jobs
  std::uint64_t jobs_succeeded = 0;     ///< engine.jobs_succeeded
  std::uint64_t analyses_computed = 0;  ///< engine.analyses.computed
  std::uint64_t analyses_reused = 0;    ///< engine.analyses.reused
  // -- admission queue (submission_queue.hpp) ----------------------------
  std::uint64_t jobs_submitted = 0;  ///< queue.submitted: jobs ever admitted
  std::uint64_t jobs_cancelled = 0;  ///< queue.cancelled: before dispatch
  /// Flushes carrying > 1 job (engine::coalesced_dispatches()).
  std::uint64_t coalesced_dispatches = 0;
  std::uint64_t queue_depth = 0;      ///< this engine's queue, right now
  std::uint64_t max_queue_depth = 0;  ///< queue.max_depth high-water mark
  CacheStats cache{};
};

/// The shard planner's packer: greedy LPT over per-root cost estimates —
/// roots in descending cost, each onto the currently lightest shard, at
/// most `target_shards` shards (clamped to the root count). The result is
/// always a partition of [0, costs.size()): every root in exactly one
/// shard, each shard's roots ascending. Deterministic in `costs` alone.
/// Exposed for tests and diagnostics; Engine calls it internally.
std::vector<std::vector<NodeId>> pack_roots_by_cost(
    const std::vector<std::uint64_t>& costs, std::size_t target_shards);

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();  ///< drains the admission queue (shutdown()) before teardown

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Enqueues a batch on the admission queue as one submission; its
  /// Ticket resolves when a shared dispatch has executed it. One flush
  /// always dispatches it whole, so intra-batch deduplication is never
  /// lost to coalescing splits. Thread-safe; throws after shutdown().
  Ticket submit_batch(std::vector<Job> jobs);

  /// Executes one job synchronously: run_batch() of that one job.
  JobResult run(Job job);

  /// Executes a batch synchronously; results are index-aligned with
  /// `jobs`, and wall_ms spans the call. Goes through the admission
  /// queue's blocking SubmissionQueue::run(): when no dispatch is in
  /// flight and nothing is queued, this thread runs the dispatch;
  /// otherwise the jobs queue behind the running dispatch with every
  /// async caller and may share the next one with them. Neither changes
  /// the results — only the thread and the counters they are reported
  /// under. Take `jobs` by move where the caller is done with them.
  /// Rethrows a dispatch-level failure.
  BatchResult run_batch(std::vector<Job> jobs);

  /// Takes a ticket's results and wraps them into a BatchResult like
  /// run_batch() does: results in submission order, attribution and
  /// cache_stats as documented at summarize(). Used by the service
  /// layer's async wait; wall_ms is left to the caller, who knows what it
  /// spans. Blocks until the ticket is ready; rethrows a dispatch-level
  /// failure.
  BatchResult collect(Ticket ticket);

  /// Drains the admission queue (queued jobs still execute, in one final
  /// flush) and stops the dispatcher. Idempotent; implied by destruction.
  /// submit_batch()/run_batch() afterwards throw std::runtime_error.
  void shutdown();

  const EngineOptions& options() const noexcept { return options_; }
  /// The cache in use (owned or external).
  AnalysisCache& cache();

  /// The registry snapshot described at EngineStats (thread-safe;
  /// dispatches may be executing concurrently — the dispatch and cache
  /// fields are simply the last completed state). Before the first
  /// dispatch they read the registry as the engine found it.
  EngineStats stats();

 private:
  ThreadPool& pool();
  /// Wraps results into a BatchResult: per-job AnalysisSource attribution
  /// summed back into analyses_computed / analyses_reused (the invariant
  /// that makes per-request accounting exact even when requests share a
  /// coalesced dispatch), and cache_stats from the same dispatch-boundary
  /// snapshot stats() serves — a live registry read could land between
  /// two lookups of another caller's dispatch.
  BatchResult summarize(std::vector<JobResult> results);
  /// One shared dispatch: the whole batch pipeline, phase by phase.
  BatchResult execute_batch(const std::vector<Job>& jobs);
  /// Counts the dispatch into the registry, then copies the dispatch and
  /// cache counters into stats_ and `batch.cache_stats` under stats_mutex_.
  void account(BatchResult& batch);

  EngineOptions options_;
  std::unique_ptr<ThreadPool> owned_pool_;
  std::unique_ptr<AnalysisCache> owned_cache_;
  std::mutex stats_mutex_;
  EngineStats stats_;  ///< dispatch and cache fields at the last boundary
  /// Built last in the constructor and never reset, so every member the
  /// dispatcher uses exists before its thread starts.
  std::unique_ptr<SubmissionQueue> queue_;
};

}  // namespace mpsched::engine

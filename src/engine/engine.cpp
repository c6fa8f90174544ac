#include "engine/engine.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <queue>
#include <tuple>

#include "antichain/analytic.hpp"
#include "antichain/enumerate.hpp"
#include "engine/cache_store.hpp"
#include "graph/transform.hpp"
#include "io/result_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace mpsched::engine {

namespace {

/// One analysis to compute this batch: a unique (graph, options) content
/// key and its root shards. The groups consuming it name it (Group::unit).
struct AnalysisUnit {
  CacheKey key;
  std::size_t exemplar = 0;  ///< the group whose graph/options define the unit
  std::vector<std::vector<NodeId>> shard_roots;  ///< one empty shard for LevelAnalytic
  std::vector<AntichainAnalysis> shard_results;
  std::vector<std::string> shard_errors;
  std::vector<double> shard_ms;
  /// One counter across all shards of this unit, so the max_antichains
  /// safety valve bounds the whole analysis, not each shard separately.
  /// (unique_ptr keeps the unit movable.)
  std::unique_ptr<std::atomic<std::uint64_t>> enumerated;
  std::shared_ptr<const AntichainAnalysis> result;
  std::string error;
  double total_ms = 0.0;
};

EnumerateOptions enumerate_options_for(const SelectOptions& select) {
  EnumerateOptions eo;
  eo.max_size = select.capacity;
  eo.span_limit = select.span_limit;
  eo.collect_members = false;  // cached analyses never carry member lists
  eo.parallel = false;         // the engine shards; no nested fan-out
  return eo;
}

/// The registry instruments EngineStats reads. The engine.* ones are
/// counted by Engine::account(); the rest where their events happen.
struct StatsInstruments {
  obs::Registry& registry = obs::Registry::global();
  obs::Counter& dispatches = registry.counter("engine.dispatches");
  obs::Counter& jobs = registry.counter("engine.jobs");
  obs::Counter& jobs_succeeded = registry.counter("engine.jobs_succeeded");
  obs::Counter& analyses_computed = registry.counter("engine.analyses.computed");
  obs::Counter& analyses_reused = registry.counter("engine.analyses.reused");
  obs::Histogram& dispatch_ms = registry.histogram("engine.dispatch_ms");
  obs::Counter& graph_hits = registry.counter("cache.graph.hits");
  obs::Counter& graph_misses = registry.counter("cache.graph.misses");
  obs::Counter& mem_hits = registry.counter("cache.mem.hits");
  obs::Counter& mem_misses = registry.counter("cache.mem.misses");
  obs::Counter& disk_hits = registry.counter("cache.disk.hits");
  obs::Counter& disk_misses = registry.counter("cache.disk.misses");
  obs::Counter& submitted = registry.counter("queue.submitted");
  obs::Counter& cancelled = registry.counter("queue.cancelled");
  obs::Gauge& max_queue_depth = registry.gauge("queue.max_depth");
};

const StatsInstruments& instruments() {
  static const StatsInstruments instance;
  return instance;
}

/// Copies the dispatch and cache fields of EngineStats from the registry.
/// Sums only, no differences, so no field can underflow (even when a
/// caller reads a CacheStore directly).
void read_boundary_counters(EngineStats& stats, bool disk_tier) {
  const StatsInstruments& m = instruments();
  stats.batches = m.dispatches.value();
  stats.jobs = m.jobs.value();
  stats.jobs_succeeded = m.jobs_succeeded.value();
  stats.analyses_computed = m.analyses_computed.value();
  stats.analyses_reused = m.analyses_reused.value();
  stats.cache.graph_hits = m.graph_hits.value();
  stats.cache.graph_misses = m.graph_misses.value();
  stats.cache.analysis_hits = m.mem_hits.value() + m.disk_hits.value();
  stats.cache.analysis_misses = disk_tier ? m.disk_misses.value() : m.mem_misses.value();
}

/// What a batch's results add up to: the jobs that succeeded, and the
/// per-job analysis attribution (JobResult::analysis_source).
struct ResultCounts {
  std::size_t succeeded = 0;
  std::size_t analyses_computed = 0;
  std::size_t analyses_reused = 0;
};

ResultCounts count_results(const std::vector<JobResult>& results) {
  ResultCounts counts;
  for (const JobResult& r : results) {
    if (r.success) ++counts.succeeded;
    if (r.analysis_source == AnalysisSource::Computed) ++counts.analyses_computed;
    else if (r.analysis_source == AnalysisSource::Reused) ++counts.analyses_reused;
  }
  return counts;
}

/// The disk tier `options` ask for: nullptr without a cache_dir. Rejects
/// a cache_dir on a disabled cache before the store creates the directory.
std::shared_ptr<CacheStore> disk_tier_for(const EngineOptions& options) {
  if (options.cache_dir.empty()) return nullptr;
  // An engine that silently ran without its requested persistence would
  // defeat the point of asking for it, so bad cache_dir configurations
  // throw (like any bad option): a directory that cannot be used, or a
  // directory combined with use_cache=false — with the cache off nothing
  // would ever read or write the store.
  if (!options.use_cache)
    throw std::invalid_argument(
        "EngineOptions: cache_dir requires use_cache (a disk tier on a disabled "
        "cache would never be read or written)");
  return std::make_shared<CacheStore>(options.cache_dir);
}

}  // namespace

/// Greedy LPT — roots in descending estimated cost, each onto the
/// currently lightest shard. A root heavier than the average naturally
/// ends up alone in its shard; light roots coalesce around it.
/// Deterministic: ties break on lower root id, then lower shard index, so
/// the plan is a pure function of the cost vector.
std::vector<std::vector<NodeId>> pack_roots_by_cost(
    const std::vector<std::uint64_t>& costs, std::size_t target_shards) {
  const std::size_t node_count = costs.size();
  const std::size_t shards =
      std::clamp<std::size_t>(target_shards, 1, std::max<std::size_t>(node_count, 1));

  std::vector<NodeId> order(node_count);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](NodeId a, NodeId b) { return costs[a] > costs[b]; });

  std::vector<std::vector<NodeId>> roots(shards);
  // Min-heap of (load, shard index): pop = lightest shard, lowest index on
  // ties (std::greater on the pair compares load first, then index).
  using Slot = std::pair<std::uint64_t, std::size_t>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> heap;
  for (std::size_t s = 0; s < shards; ++s) heap.push({0, s});
  for (const NodeId r : order) {
    auto [load, shard] = heap.top();
    heap.pop();
    roots[shard].push_back(r);
    heap.push({load + costs[r], shard});
  }
  // Ascending roots within a shard: enumeration order inside a shard does
  // not affect the merged result, but keeping it sorted makes shard
  // contents canonical for a given plan.
  for (auto& shard : roots) std::sort(shard.begin(), shard.end());
  return roots;
}

std::size_t BatchResult::succeeded() const { return count_results(jobs).succeeded; }

Engine::Engine(EngineOptions options)
    : options_(std::move(options)), cache_(disk_tier_for(options_)) {
  if (options_.threads > 0) owned_pool_ = std::make_unique<ThreadPool>(options_.threads);
  read_boundary_counters(stats_, cache_.disk_store() != nullptr);
  queue_ = std::make_unique<SubmissionQueue>(
      [this](std::vector<Job> jobs) { return execute_batch(jobs); });
}

Engine::~Engine() { shutdown(); }

ThreadPool& Engine::pool() {
  return owned_pool_ ? *owned_pool_ : ThreadPool::shared();
}

void Engine::shutdown() { queue_->shutdown(); }

EngineStats Engine::stats() {
  // The dispatch and cache fields come from the copy account() made at the
  // last dispatch boundary; reading them live here could land between two
  // lookups of a running dispatch.
  EngineStats snapshot;
  {
    std::lock_guard lock(stats_mutex_);
    snapshot = stats_;
  }
  const StatsInstruments& m = instruments();
  snapshot.jobs_submitted = m.submitted.value();
  snapshot.jobs_cancelled = m.cancelled.value();
  snapshot.coalesced_dispatches = coalesced_dispatches();
  snapshot.max_queue_depth =
      static_cast<std::uint64_t>(std::max<std::int64_t>(0, m.max_queue_depth.value()));
  snapshot.queue_depth = queue_->depth();
  return snapshot;
}

Ticket Engine::submit_batch(std::vector<Job> jobs) {
  return queue_->submit_batch(std::move(jobs));
}

JobResult Engine::run(Job job) {
  std::vector<Job> one;
  one.push_back(std::move(job));
  return std::move(run_batch(std::move(one)).jobs.front());
}

BatchResult Engine::run_batch(std::vector<Job> jobs) {
  Timer wall;
  BatchResult batch = summarize(queue_->run(std::move(jobs)));
  batch.wall_ms = wall.millis();
  return batch;
}

BatchResult Engine::collect(Ticket ticket) { return summarize(ticket.take()); }

BatchResult Engine::summarize(std::vector<JobResult> results) {
  BatchResult batch;
  batch.jobs = std::move(results);
  const ResultCounts counts = count_results(batch.jobs);
  batch.analyses_computed = counts.analyses_computed;
  batch.analyses_reused = counts.analyses_reused;
  // Every dispatch behind these results copied stats_.cache under
  // stats_mutex_ before handing them back, so this snapshot covers their
  // cache traffic and nothing half-way through another dispatch.
  std::lock_guard lock(stats_mutex_);
  batch.cache_stats = stats_.cache;
  return batch;
}

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// ThreadPool::parallel_for, except that with nothing to run no
/// std::function is built (building one may allocate).
template <typename Fn>
void fan_out(ThreadPool& workers, std::size_t n, const Fn& fn) {
  if (n > 0) workers.parallel_for(n, fn);
}

/// For each of `n` items, the first item equal to it (itself when none
/// is), by linear probing over item indices: two allocations however many
/// items are distinct. `hash(i)` must agree with `equal(a, b)`; an item
/// unequal to itself (a NaN option) stays alone.
template <typename Hash, typename Equal>
std::vector<std::size_t> first_equal(std::size_t n, const Hash& hash, const Equal& equal) {
  if (n == 0) return {};
  const std::size_t mask = std::bit_ceil(2 * n) - 1;  // a power of two slots, at least 2n
  std::vector<std::size_t> table(mask + 1, kNone);
  std::vector<std::size_t> first(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t slot = hash(i) & mask;
    while (table[slot] != kNone && !equal(table[slot], i)) slot = (slot + 1) & mask;
    if (table[slot] == kNone) table[slot] = i;
    first[i] = table[slot];
  }
  return first;
}

/// first_equal over the keys `key_of(i)` when `share` is set (the cache
/// is on); otherwise every item is its own first.
template <typename Hash, typename KeyOf>
std::vector<std::size_t> first_with_key(std::size_t n, bool share, const KeyOf& key_of) {
  if (!share) {
    std::vector<std::size_t> alone(n);
    std::iota(alone.begin(), alone.end(), std::size_t{0});
    return alone;
  }
  return first_equal(
      n, [&](std::size_t i) { return Hash{}(key_of(i)); },
      [&](std::size_t a, std::size_t b) { return key_of(a) == key_of(b); });
}

/// Whether two jobs are the same work: one graph block and equal
/// options, so every phase from resolve to solve gives both the same
/// outcome. Names and workload labels are echoes and may differ.
bool same_work(const Job& a, const Job& b) {
  return a.dfg.identity() == b.dfg.identity() && a.transforms == b.transforms &&
         a.backend == b.backend && a.select == b.select && a.schedule == b.schedule &&
         a.refine == b.refine && a.refinement == b.refinement;
}

/// Hashes what same_work compares first: the graph block's identity and a
/// few integral options, so one graph under many options does not put
/// all of them on one probe chain. A field left out only lengthens a
/// chain, never joins two groups.
std::size_t work_hash(const Job& job) {
  std::uint64_t h = reinterpret_cast<std::uintptr_t>(job.dfg.identity());
  for (const std::uint64_t v :
       {std::uint64_t{job.select.pattern_count}, std::uint64_t{job.select.capacity},
        job.schedule.seed, std::uint64_t{job.refine}})
    h = splitmix64(h) ^ v;
  return static_cast<std::size_t>(splitmix64(h));
}

/// Jobs doing the same work (same_work) in one dispatch. Every phase
/// from resolve to solve runs once per group, on its first job's graph
/// and options; the fan-out copies the outcome to each member.
struct Group {
  std::size_t first = 0;  ///< its first job
  std::size_t size = 0;   ///< its job count
  const SchedulerBackend* backend = nullptr;
  /// The effective (post-transform) graph: every phase after the first —
  /// keys, levels/closure, enumeration, backend — consumes it, never
  /// Job::dfg. With no transforms it shares the job's graph (a Dfg copy is
  /// a pointer copy).
  Dfg graph;
  CacheKey graph_key;  ///< content keys, with the cache on
  CacheKey key;        ///< analysis key
  std::shared_ptr<const PreparedGraph> prepared;
  std::shared_ptr<const AntichainAnalysis> analysis;
  std::size_t unit = kNone;  ///< the analysis unit it consumes, if any
  std::shared_ptr<const SolvedEntry> solved;
  std::string error;  ///< the phase that failed it, and why
};

/// One shared dispatch, phase by phase. The grouping pass puts jobs doing
/// the same work into one group; every later phase runs per group, skips
/// the groups an earlier phase failed, and shares across groups by
/// content: one prepared graph per graph key, one analysis unit per
/// analysis key, one backend call per SolveKey. Only the analysis probe
/// and the final JobResult fill run per job. Work shared by several jobs
/// is timed onto the first of them. With the cache off every job is its
/// own group and four things differ: nothing is keyed, the probe never
/// runs, publishing never stores, and every group computes its own
/// levels, closure, analysis and backend call.
struct Dispatch {
  Dispatch(const std::vector<Job>& jobs, const EngineOptions& options,
           ThreadPool& workers, AnalysisCache& cache)
      : jobs(jobs), options(options), workers(workers), cache(cache), results(jobs.size()) {}

  void group();
  void resolve_and_transform();
  void key_and_prepare();
  void probe();
  void plan();
  void enumerate();
  void merge_and_publish();
  void solve();
  void fill_results();
  bool run_backend(const Group& g, SolvedResult& s);

  /// The timings of the job a group's shared work is charged to.
  PhaseTimings& timings_of(const Group& g) { return results[g.first].timings; }

  const std::vector<Job>& jobs;
  const EngineOptions& options;
  ThreadPool& workers;
  AnalysisCache& cache;
  std::vector<JobResult> results;  ///< per job

  std::vector<Group> groups;          ///< ordered by first job
  std::vector<std::size_t> group_of;  ///< per job

  // -- per analysis to compute, and one task per shard of each -----------
  struct ShardTask {
    std::size_t unit;
    std::size_t shard;
  };
  std::vector<AnalysisUnit> units;
  std::vector<ShardTask> tasks;
};

/// Puts jobs doing the same work into one group, with the cache on: a
/// hash of the graph block's identity and some options, then a comparison
/// of all of them. Copies of one graph (a corpus reader's or the daemon's
/// GraphIntern hands every job of one spec the same block) group without
/// their graphs being hashed; equal graphs in separate blocks form
/// separate groups, which later phases still share by content key. With
/// the cache off every job is its own group.
void Dispatch::group() {
  group_of.resize(jobs.size());
  groups.reserve(jobs.size());
  const auto add = [&](std::size_t i) {
    group_of[i] = groups.size();
    groups.emplace_back().first = i;
  };
  if (!options.use_cache) {
    for (std::size_t i = 0; i < jobs.size(); ++i) add(i);
  } else {
    const std::vector<std::size_t> first = first_equal(
        jobs.size(), [&](std::size_t i) { return work_hash(jobs[i]); },
        [&](std::size_t a, std::size_t b) { return same_work(jobs[a], jobs[b]); });
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (first[i] == i) add(i);
      else group_of[i] = group_of[first[i]];
    }
  }
  for (const std::size_t g : group_of) ++groups[g].size;
}

/// Resolves each group's backend and transform stack on the thread
/// running the dispatch; only the groups with a transform stack go to the
/// pool, to run it. Unknown names fail only that group. An empty stack
/// shares the job's graph, so the default pipeline costs a registry
/// lookup here and wakes no worker.
void Dispatch::resolve_and_transform() {
  std::vector<std::size_t> transformed;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    Group& group = groups[g];
    const Job& job = jobs[group.first];
    Timer t;
    try {
      group.backend = &get_backend(job.backend);
      if (job.transforms.empty()) group.graph = job.dfg;
      else transformed.push_back(g);
    } catch (const std::exception& e) {
      group.error = std::string("pipeline: ") + e.what();
    }
    timings_of(group).prepare_ms = t.millis();
  }
  fan_out(workers, transformed.size(), [&](std::size_t k) {
    Group& group = groups[transformed[k]];
    const Job& job = jobs[group.first];
    Timer t;
    try {
      group.graph = apply_transforms(job.transforms, job.dfg);
    } catch (const std::exception& e) {
      group.error = std::string("pipeline: ") + e.what();
    }
    timings_of(group).prepare_ms += t.millis();
  });
}

/// Content keys on the thread running the dispatch (a graph hashes once,
/// then its key is a load: Dfg::content_hash), then levels + closure once
/// per graph key. With the cache on, groups with equal graph keys share
/// one prepared graph, so their (expensive, O(V·E/64)) closure is
/// computed once even on a cold cache, and a key the cache holds is
/// served here; only the misses go to the pool. With it off nothing is
/// keyed and every group prepares its own graph on the pool.
void Dispatch::key_and_prepare() {
  if (options.use_cache) {
    obs::Span key_span("engine.key");
    for (Group& group : groups) {
      if (!group.error.empty()) continue;
      const Job& job = jobs[group.first];
      Timer t;
      try {
        std::tie(group.graph_key, group.key) = AnalysisCache::content_keys(
            group.graph, job.select.generation, job.select.capacity, job.select.span_limit,
            pipeline_cache_tag(job.transforms, job.backend));
      } catch (const std::exception& e) {
        group.error = std::string("prepare: ") + e.what();
      }
      timings_of(group).prepare_ms += t.millis();
    }
  }

  std::vector<std::size_t> live;  // the groups no phase has failed
  live.reserve(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g)
    if (groups[g].error.empty()) live.push_back(g);
  const std::vector<std::size_t> first = first_with_key<CacheKeyHash>(
      live.size(), options.use_cache,
      [&](std::size_t k) -> const CacheKey& { return groups[live[k]].graph_key; });
  std::vector<std::size_t> misses;  // indices into `live` of graphs to prepare
  for (std::size_t k = 0; k < live.size(); ++k) {
    if (first[k] != k) continue;
    if (options.use_cache) {
      Group& group = groups[live[k]];
      if ((group.prepared = cache.find_graph(group.graph_key)) != nullptr) continue;
    }
    misses.push_back(k);
  }
  fan_out(workers, misses.size(), [&](std::size_t m) {
    Group& group = groups[live[misses[m]]];
    Timer t;
    try {
      group.prepared = std::make_shared<const PreparedGraph>(
          PreparedGraph{compute_levels(group.graph), Reachability(group.graph)});
      if (options.use_cache) cache.store_graph(group.graph_key, group.prepared);
    } catch (const std::exception& e) {
      group.error = std::string("prepare: ") + e.what();
    }
    // Charge the shared computation to the first job only, so summing
    // prepare_ms across a results file reflects work actually done.
    timings_of(group).prepare_ms += t.millis();
  });
  for (std::size_t k = 0; k < live.size(); ++k) {
    if (first[k] == k) continue;
    const Group& exemplar = groups[live[first[k]]];
    groups[live[k]].prepared = exemplar.prepared;
    groups[live[k]].error = exemplar.error;
  }
}

/// Probes the cache for every job that needs an analysis, then gathers
/// the groups whose first job missed into units, one per analysis to
/// compute: with the cache on, groups sharing an analysis key share a
/// unit (intra-batch deduplication). A group's first job's probe decides
/// the group; every job still probes once, because cache.mem.* and
/// cache.disk.* count probes. Groups whose backend composes its own
/// patterns (needs_analysis == false) skip enumeration entirely: no unit,
/// no cache traffic, analysis_source stays None. With a disk tier
/// attached a memory miss reads a file, so each probe is timed and
/// charged to its job's analysis_ms; a memory-only probe is a map lookup
/// and reads no clock.
void Dispatch::probe() {
  const bool disk_tier = cache.disk_store() != nullptr;
  const auto probe = [&](std::size_t i, const CacheKey& key) {
    if (!disk_tier) return cache.find_analysis(key);
    const Timer timer;
    auto found = cache.find_analysis(key);
    results[i].timings.analysis_ms += timer.millis();
    return found;
  };
  std::vector<std::size_t> missed;  // groups whose first job missed
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Group& group = groups[group_of[i]];
    if (!group.error.empty() || !group.backend->needs_analysis) continue;
    if (options.use_cache) {
      auto found = probe(i, group.key);
      results[i].analysis_cache_hit = found != nullptr;
      if (i == group.first) group.analysis = std::move(found);
    }
    if (i == group.first && group.analysis == nullptr) missed.push_back(group_of[i]);
  }

  const std::vector<std::size_t> first = first_with_key<CacheKeyHash>(
      missed.size(), options.use_cache,
      [&](std::size_t k) -> const CacheKey& { return groups[missed[k]].key; });
  for (std::size_t k = 0; k < missed.size(); ++k) {
    Group& group = groups[missed[k]];
    if (first[k] == k) {
      AnalysisUnit& unit = units.emplace_back();
      unit.exemplar = missed[k];
      unit.key = group.key;
      group.unit = units.size() - 1;
    } else {
      group.unit = groups[missed[first[k]]].unit;
    }
  }

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Group& group = groups[group_of[i]];
    if (!group.error.empty() || !group.backend->needs_analysis) continue;
    const bool computes = i == group.first && group.unit != kNone &&
                          units[group.unit].exemplar == group_of[i];
    results[i].analysis_source = computes ? AnalysisSource::Computed : AnalysisSource::Reused;
  }
}

/// Splits every unit into root shards and lays all shards of all units
/// out as one flat task list. An enumerated unit is packed by estimated
/// root cost into ~shards_per_thread × workers shards; the closed-form
/// analytic count is one cheap task. The estimate validates the same
/// options the enumeration would, so bad options (capacity 0, a negative
/// span limit) fail the unit here, with the enumeration's error text.
void Dispatch::plan() {
  const std::size_t worker_count = workers.thread_count() + 1;  // pool + caller
  const std::size_t target_shards = worker_count * options.shards_per_thread;
  for (std::size_t u = 0; u < units.size(); ++u) {
    AnalysisUnit& unit = units[u];
    const Group& group = groups[unit.exemplar];
    const Job& job = jobs[group.first];
    if (job.select.generation == PatternGeneration::SpanLimitedEnumeration) {
      try {
        // Estimation runs on the thread running this dispatch (the
        // dispatcher or a blocking caller), before the shard fan-out and
        // outside any pool task, so it may fan out on the engine's own
        // pool; the shard tasks themselves must not (parallel = false
        // there).
        EnumerateOptions estimate_options = enumerate_options_for(job.select);
        estimate_options.parallel = true;
        unit.shard_roots = pack_roots_by_cost(
            estimate_root_costs(group.graph, group.prepared->levels, group.prepared->reach,
                                estimate_options, &workers),
            target_shards);
      } catch (const std::exception& e) {
        unit.error = std::string("analysis: ") + e.what();
        continue;
      }
    } else {
      unit.shard_roots.resize(1);
    }
    const std::size_t shards = unit.shard_roots.size();
    unit.shard_results.resize(shards);
    unit.shard_errors.resize(shards);
    unit.shard_ms.resize(shards);
    unit.enumerated = std::make_unique<std::atomic<std::uint64_t>>(0);
    for (std::size_t s = 0; s < shards; ++s) tasks.push_back({u, s});
  }
}

/// Runs every shard of every unit in one dynamically balanced fan-out.
void Dispatch::enumerate() {
  static obs::Histogram& shard_ms_metric =
      obs::Registry::global().histogram("engine.shard_ms");
  static obs::Histogram& shard_cpu_ms_metric =
      obs::Registry::global().histogram("engine.shard_cpu_ms");
  fan_out(workers, tasks.size(), [&](std::size_t t) {
    AnalysisUnit& unit = units[tasks[t].unit];
    const std::size_t s = tasks[t].shard;
    const Group& group = groups[unit.exemplar];
    const Job& job = jobs[group.first];
    const PreparedGraph& graph = *group.prepared;
    obs::Span enumerate_span("engine.enumerate",
                             obs::tracing_enabled()
                                 ? job.workload + " shard " + std::to_string(s)
                                 : std::string());
    Timer timer;
    const double cpu_start = thread_cpu_ms();
    try {
      if (job.select.generation == PatternGeneration::SpanLimitedEnumeration) {
        unit.shard_results[s] =
            enumerate_antichain_roots(group.graph, graph.levels, graph.reach,
                                      enumerate_options_for(job.select),
                                      unit.shard_roots[s], unit.enumerated.get());
      } else {
        unit.shard_results[s] =
            analytic_level_analysis(group.graph, graph.levels, job.select.capacity);
      }
    } catch (const std::exception& e) {
      unit.shard_errors[s] = e.what();
    }
    unit.shard_ms[s] = timer.millis();
    shard_ms_metric.record(unit.shard_ms[s]);
    shard_cpu_ms_metric.record(thread_cpu_ms() - cpu_start);
  });
}

/// Merges and publishes each unit in parallel: merging is per-unit CPU
/// work, and with a disk tier attached store_analysis writes a file —
/// neither belongs on one thread while the pool idles after the shard
/// phase. (Publication order across units is irrelevant: keys are
/// distinct, and consumers read unit.result, not the cache.) Then hands
/// every consuming group its unit's result or error.
void Dispatch::merge_and_publish() {
  fan_out(workers, units.size(), [&](std::size_t u) {
    AnalysisUnit& unit = units[u];
    for (std::size_t s = 0; s < unit.shard_errors.size(); ++s)
      if (unit.error.empty() && !unit.shard_errors[s].empty())
        unit.error = "analysis: " + unit.shard_errors[s];
    for (const double ms : unit.shard_ms) unit.total_ms += ms;
    if (!unit.error.empty()) return;
    const Group& group = groups[unit.exemplar];
    {
      obs::Span merge_span("engine.merge",
                           obs::tracing_enabled() ? jobs[group.first].workload : std::string());
      unit.result = std::make_shared<AntichainAnalysis>(
          unit.shard_results.size() == 1
              ? std::move(unit.shard_results.front())
              : merge_antichain_analyses(std::move(unit.shard_results),
                                         group.graph.node_count()));
    }
    if (options.use_cache) cache.store_analysis(unit.key, unit.result);
  });

  for (AnalysisUnit& unit : units) {
    // Same convention as prepare_ms: shared work is charged to the
    // exemplar only, so summing timings over a results file reflects
    // work actually done.
    const Group& exemplar = groups[unit.exemplar];
    timings_of(exemplar).analysis_ms += unit.total_ms;
    results[exemplar.first].shard_ms = std::move(unit.shard_ms);
  }
  for (Group& group : groups) {
    if (group.unit == kNone) continue;
    const AnalysisUnit& unit = units[group.unit];
    group.analysis = unit.result;
    if (!unit.error.empty()) group.error = unit.error;
  }
}

/// Runs a group's scheduler backend into `s`, charging its select/
/// schedule/refine time to the group's first job. Returns false when the
/// backend threw: `s` then reports the exception as a failure that must
/// not be memoized.
bool Dispatch::run_backend(const Group& g, SolvedResult& s) {
  const Job& job = jobs[g.first];
  const Dfg& dfg = g.graph;
  try {
    s.critical_path = g.prepared->levels.critical_path_length();

    BackendRequest request;
    request.dfg = &dfg;
    request.analysis = g.analysis.get();  // null for self-contained backends
    request.select = job.select;
    request.schedule = job.schedule;
    request.refine = job.refine;
    request.refinement = job.refinement;
    request.trace_detail = job.workload;
    BackendResult out = g.backend->solve(request);

    PhaseTimings& timings = timings_of(g);
    timings.select_ms = out.select_ms;
    timings.schedule_ms = out.schedule_ms;
    timings.refine_ms = out.refine_ms;
    s.antichains = out.antichains;
    s.candidate_patterns = out.candidate_patterns;
    s.refine_swaps = out.refine_swaps;
    if (!out.success) {
      s.error = out.error;
      return true;
    }

    s.success = true;
    s.cycles = out.cycles;
    for (const Pattern& p : out.patterns) s.patterns.push_back(p.to_string(dfg));
    s.node_cycles.resize(dfg.node_count());
    for (NodeId n = 0; n < dfg.node_count(); ++n)
      s.node_cycles[n] = out.schedule.cycle_of(n);
    return true;
  } catch (const std::exception& e) {
    s.success = false;
    s.error = e.what();
    return false;
  }
}

/// Solves every live group once per distinct SolveKey. With the cache on,
/// a group the memo holds is served from it, and the other groups run
/// their backend once per distinct key (in parallel) and memoize what the
/// backend returned, rendered on the same worker. Every group sharing a
/// key then holds the same entry. With the cache off each group (one job)
/// runs its own backend and the memo is neither read nor written.
void Dispatch::solve() {
  static obs::Counter& computed =
      obs::Registry::global().counter("engine.solve.computed");
  static obs::Counter& reused = obs::Registry::global().counter("engine.solve.reused");
  std::vector<SolveKey> solve_keys;  // per entry of `misses`, with the cache on
  std::vector<std::size_t> misses;   // live groups the memo does not hold
  std::size_t live_jobs = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    Group& group = groups[g];
    if (!group.error.empty()) continue;
    live_jobs += group.size;
    if (options.use_cache) {
      const Job& job = jobs[group.first];
      SolveKey key{group.key, job.select, job.schedule, job.refine, job.refinement};
      if ((group.solved = cache.find_solved(key)) != nullptr) continue;
      solve_keys.push_back(std::move(key));
    }
    misses.push_back(g);
  }

  // One backend call per distinct key; a NaN option's key equals nothing,
  // so such a group always solves alone.
  const std::vector<std::size_t> first = first_with_key<SolveKeyHash>(
      misses.size(), options.use_cache,
      [&](std::size_t k) -> const SolveKey& { return solve_keys[k]; });
  std::vector<std::size_t> solvers;  // indices into `misses`
  for (std::size_t k = 0; k < misses.size(); ++k)
    if (first[k] == k) solvers.push_back(k);
  fan_out(workers, solvers.size(), [&](std::size_t m) {
    const std::size_t k = solvers[m];
    Group& group = groups[misses[k]];
    auto entry = std::make_shared<SolvedEntry>();
    if (run_backend(group, entry->result) && options.use_cache) {
      entry->text = render_solved(entry->result);
      cache.store_solved(solve_keys[k], entry);
    }
    group.solved = std::move(entry);
  });
  for (std::size_t k = 0; k < misses.size(); ++k)
    if (first[k] != k) groups[misses[k]].solved = groups[misses[first[k]]].solved;
  computed.add(solvers.size());
  reused.add(live_jobs - solvers.size());
}

/// Fills every job's result from its group: the job's own echo fields,
/// the effective graph's size, and the group's error or solved result,
/// with a reference to the memo entry when the memo holds it (only an
/// entry handed to the memo carries text).
void Dispatch::fill_results() {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const Group& group = groups[group_of[i]];
    JobResult& r = results[i];
    r.job = job.resolved_name();
    r.workload = job.workload;
    r.backend = job.backend;
    r.transforms = job.transforms;
    r.nodes = group.graph.node_count();
    r.edges = group.graph.edge_count();
    if (group.solved == nullptr) {
      r.error = group.error;
      continue;
    }
    static_cast<SolvedResult&>(r) = group.solved->result;
    if (!group.solved->text.empty()) r.memo = group.solved;
  }
}

}  // namespace

std::vector<JobResult> Engine::execute_batch(const std::vector<Job>& jobs) {
  Timer wall;
  obs::Span dispatch_span("engine.dispatch",
                          obs::tracing_enabled()
                              ? std::to_string(jobs.size()) + " jobs"
                              : std::string());
  Dispatch dispatch(jobs, options_, pool(), cache_);
  {
    obs::Span prepare_span("engine.prepare");
    {
      obs::Span group_span("engine.group");
      dispatch.group();
    }
    dispatch.resolve_and_transform();
    dispatch.key_and_prepare();
  }
  {
    obs::Span probe_span("engine.probe");
    dispatch.probe();
  }
  {
    obs::Span plan_span("engine.plan");
    dispatch.plan();
  }
  dispatch.enumerate();
  dispatch.merge_and_publish();
  {
    obs::Span solve_span("engine.solve");
    dispatch.solve();
  }
  {
    obs::Span fanout_span("engine.fanout");
    dispatch.fill_results();
  }

  account(dispatch.results, wall.millis());
  return std::move(dispatch.results);
}

void Engine::account(const std::vector<JobResult>& results, double wall_ms) {
  const StatsInstruments& m = instruments();
  const ResultCounts counts = count_results(results);
  m.dispatches.add();
  m.jobs.add(results.size());
  m.jobs_succeeded.add(counts.succeeded);
  m.analyses_computed.add(counts.analyses_computed);
  m.analyses_reused.add(counts.analyses_reused);
  m.dispatch_ms.record(wall_ms);
  // Every count of this dispatch has landed (its lookups ran on this
  // thread, its stores inside joined fan-outs), so the copy made under
  // the lock stats() and collect() read under never reports the dispatch
  // without the cache traffic it produced.
  std::lock_guard lock(stats_mutex_);
  read_boundary_counters(stats_, cache_.disk_store() != nullptr);
}

}  // namespace mpsched::engine

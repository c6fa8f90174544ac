#include "engine/engine.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <tuple>
#include <unordered_map>

#include "antichain/analytic.hpp"
#include "antichain/enumerate.hpp"
#include "engine/cache_store.hpp"
#include "graph/transform.hpp"
#include "io/result_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace mpsched::engine {

namespace {

/// One analysis to compute this batch: a unique (graph, options) content
/// key, the jobs consuming it, and its root shards.
struct AnalysisUnit {
  CacheKey key;
  std::size_t exemplar_job = 0;  ///< index whose dfg/options define the unit
  std::vector<std::size_t> consumers;
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

std::size_t BatchResult::succeeded() const {
  std::size_t n = 0;
  for (const JobResult& r : jobs)
    if (r.success) ++n;
  return n;
}

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  // An engine that silently ran without its requested persistence would
  // defeat the point of asking for it, so bad cache_dir configurations
  // throw (like any bad option): a directory that cannot be used, or a
  // directory combined with use_cache=false — with the cache off nothing
  // would ever read or write the store.
  if (!options_.cache_dir.empty() && !options_.use_cache)
    throw std::invalid_argument(
        "EngineOptions: cache_dir requires use_cache (a disk tier on a disabled "
        "cache would never be read or written)");
  if (options_.threads > 0) owned_pool_ = std::make_unique<ThreadPool>(options_.threads);
  if (options_.cache == nullptr) owned_cache_ = std::make_unique<AnalysisCache>();
  if (!options_.cache_dir.empty())
    cache().attach_store(std::make_shared<CacheStore>(options_.cache_dir));
  read_boundary_counters(stats_, cache().disk_store() != nullptr);
  queue_ = std::make_unique<SubmissionQueue>(
      [this](std::vector<Job> jobs) { return std::move(execute_batch(jobs).jobs); });
}

Engine::~Engine() { shutdown(); }

ThreadPool& Engine::pool() {
  return owned_pool_ ? *owned_pool_ : ThreadPool::shared();
}

AnalysisCache& Engine::cache() {
  return options_.cache != nullptr ? *options_.cache : *owned_cache_;
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
  for (const JobResult& r : batch.jobs) {
    if (r.analysis_source == AnalysisSource::Computed) ++batch.analyses_computed;
    else if (r.analysis_source == AnalysisSource::Reused) ++batch.analyses_reused;
  }
  // Every dispatch behind these results copied stats_.cache under
  // stats_mutex_ before handing them back, so this snapshot covers their
  // cache traffic and nothing half-way through another dispatch.
  std::lock_guard lock(stats_mutex_);
  batch.cache_stats = stats_.cache;
  return batch;
}

namespace {

/// Groups job indices into sets that share one computation: jobs with
/// equal keys when `share` is set, one job per group otherwise. Groups
/// are ordered by their first member.
template <typename Hash, typename Key>
std::vector<std::vector<std::size_t>> share_groups(const std::vector<std::size_t>& members,
                                                   const std::vector<Key>& keys,
                                                   bool share) {
  std::vector<std::vector<std::size_t>> groups;
  std::unordered_map<Key, std::size_t, Hash> group_of;
  for (const std::size_t i : members) {
    std::size_t g = groups.size();
    if (share) g = group_of.try_emplace(keys[i], g).first->second;
    if (g == groups.size()) groups.emplace_back();
    groups[g].push_back(i);
  }
  return groups;
}

/// One shared dispatch, phase by phase. Per-job state lives in slots
/// indexed like `jobs`; each phase reads what earlier phases filled and
/// skips the jobs an earlier phase failed. With the cache off the same
/// phases run, and three things differ: the probe never hits, publishing
/// never stores, and every job is its own unit with its own levels,
/// closure and backend call.
struct Dispatch {
  Dispatch(const std::vector<Job>& jobs, const EngineOptions& options,
           ThreadPool& workers, AnalysisCache& cache)
      : jobs(jobs), options(options), workers(workers), cache(cache),
        backends(jobs.size(), nullptr), graphs(jobs.size()), keys(jobs.size()),
        prepared(jobs.size()), analysis(jobs.size()) {
    batch.jobs.resize(jobs.size());
  }

  void resolve_and_transform();
  void key_and_prepare();
  void probe_and_group();
  void plan();
  void enumerate();
  void merge_and_publish();
  void solve();
  bool run_backend(std::size_t i, SolvedResult& s);

  bool failed(std::size_t i) const { return !batch.jobs[i].error.empty(); }

  const std::vector<Job>& jobs;
  const EngineOptions& options;
  ThreadPool& workers;
  AnalysisCache& cache;
  BatchResult batch;

  // -- per job -----------------------------------------------------------
  std::vector<const SchedulerBackend*> backends;
  /// The effective (post-transform) graph: every phase after the first —
  /// keys, levels/closure, enumeration, backend — consumes it, never
  /// Job::dfg. With no transforms it shares the job's graph (a Dfg copy is
  /// a pointer copy).
  std::vector<Dfg> graphs;
  std::vector<CacheKey> keys;  ///< analysis keys
  std::vector<std::shared_ptr<const PreparedGraph>> prepared;
  std::vector<std::shared_ptr<const AntichainAnalysis>> analysis;

  // -- per analysis to compute, and one task per shard of each -----------
  struct ShardTask {
    std::size_t unit;
    std::size_t shard;
  };
  std::vector<AnalysisUnit> units;
  std::vector<ShardTask> tasks;
};

/// Resolves each job's backend and transform stack on the thread running
/// the dispatch; only the jobs with a transform stack go to the pool, to
/// run it. Unknown names fail only that job. An empty stack shares the
/// job's graph, so the default pipeline costs a registry lookup here and
/// wakes no worker.
void Dispatch::resolve_and_transform() {
  std::vector<std::size_t> transformed;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobResult& r = batch.jobs[i];
    r.job = jobs[i].resolved_name();
    r.workload = jobs[i].workload;
    r.backend = jobs[i].backend;
    r.transforms = jobs[i].transforms;
    Timer t;
    try {
      backends[i] = &get_backend(jobs[i].backend);
      if (jobs[i].transforms.empty()) {
        graphs[i] = jobs[i].dfg;
        r.nodes = graphs[i].node_count();
        r.edges = graphs[i].edge_count();
      } else {
        transformed.push_back(i);
      }
    } catch (const std::exception& e) {
      r.error = std::string("pipeline: ") + e.what();
    }
    r.timings.prepare_ms = t.millis();
  }
  workers.parallel_for(transformed.size(), [&](std::size_t k) {
    const std::size_t i = transformed[k];
    JobResult& r = batch.jobs[i];
    Timer t;
    try {
      graphs[i] = TransformPipeline::from_specs(jobs[i].transforms).apply(jobs[i].dfg);
      r.nodes = graphs[i].node_count();
      r.edges = graphs[i].edge_count();
    } catch (const std::exception& e) {
      r.error = std::string("pipeline: ") + e.what();
    }
    r.timings.prepare_ms += t.millis();
  });
}

/// Content keys on the thread running the dispatch (a graph hashes once,
/// then its key is a load: Dfg::content_hash), then levels + closure once
/// per group of jobs sharing a graph. With the cache on, duplicate graphs
/// form one group, so their (expensive, O(V·E/64)) closure is computed
/// once even on a cold cache, and a group the cache holds is served here;
/// only the misses go to the pool. With it off nothing is keyed and every job
/// prepares its own graph on the pool.
void Dispatch::key_and_prepare() {
  std::vector<CacheKey> graph_keys(jobs.size());
  if (options.use_cache) {
    obs::Span key_span("engine.key");
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (failed(i)) continue;
      Timer t;
      try {
        std::tie(graph_keys[i], keys[i]) = AnalysisCache::content_keys(
            graphs[i], jobs[i].select.generation, jobs[i].select.capacity,
            jobs[i].select.span_limit,
            pipeline_cache_tag(jobs[i].transforms, jobs[i].backend));
      } catch (const std::exception& e) {
        batch.jobs[i].error = std::string("prepare: ") + e.what();
      }
      batch.jobs[i].timings.prepare_ms += t.millis();
    }
  }

  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (!failed(i)) live.push_back(i);
  const std::vector<std::vector<std::size_t>> groups =
      share_groups<CacheKeyHash>(live, graph_keys, options.use_cache);
  std::vector<std::size_t> misses;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (options.use_cache) {
      if (auto hit = cache.find_graph(graph_keys[groups[g].front()])) {
        for (const std::size_t i : groups[g]) prepared[i] = hit;
        continue;
      }
    }
    misses.push_back(g);
  }
  workers.parallel_for(misses.size(), [&](std::size_t m) {
    const std::vector<std::size_t>& group = groups[misses[m]];
    const std::size_t exemplar = group.front();
    const Dfg& dfg = graphs[exemplar];
    Timer t;
    std::shared_ptr<const PreparedGraph> graph;
    std::string error;
    try {
      graph = std::make_shared<const PreparedGraph>(
          PreparedGraph{compute_levels(dfg), Reachability(dfg)});
      if (options.use_cache) cache.store_graph(graph_keys[exemplar], graph);
    } catch (const std::exception& e) {
      error = std::string("prepare: ") + e.what();
    }
    const double ms = t.millis();
    for (const std::size_t i : group) {
      prepared[i] = graph;
      if (!error.empty()) batch.jobs[i].error = error;
    }
    // Charge the shared computation to the exemplar only, so summing
    // prepare_ms across a results file reflects work actually done.
    batch.jobs[exemplar].timings.prepare_ms += ms;
  });
}

/// Probes the cache for every job that needs an analysis, then groups the
/// misses into units, one per analysis to compute: with the cache on, jobs
/// sharing an analysis key share a unit (intra-batch deduplication).
/// Jobs whose backend composes its own patterns (needs_analysis ==
/// false) skip enumeration entirely: no unit, no cache traffic,
/// analysis_source stays None. With a disk tier attached a memory miss
/// reads a file, so each probe is timed and charged to its job's
/// analysis_ms; a memory-only probe is a map lookup and reads no clock.
void Dispatch::probe_and_group() {
  const bool disk_tier = options.use_cache && cache.disk_store() != nullptr;
  const auto probe = [&](std::size_t i) {
    if (!disk_tier) return cache.find_analysis(keys[i]);
    const Timer timer;
    auto found = cache.find_analysis(keys[i]);
    batch.jobs[i].timings.analysis_ms += timer.millis();
    return found;
  };
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (failed(i) || !backends[i]->needs_analysis) continue;
    if (options.use_cache) {
      if (auto hit = probe(i)) {
        analysis[i] = std::move(hit);
        batch.jobs[i].analysis_cache_hit = true;
        batch.jobs[i].analysis_source = AnalysisSource::Reused;
        ++batch.analyses_reused;
        continue;
      }
    }
    misses.push_back(i);
  }
  for (std::vector<std::size_t>& group :
       share_groups<CacheKeyHash>(misses, keys, options.use_cache)) {
    AnalysisUnit& unit = units.emplace_back();
    unit.exemplar_job = group.front();
    unit.key = keys[unit.exemplar_job];
    for (const std::size_t i : group) {
      const bool exemplar = i == unit.exemplar_job;
      batch.jobs[i].analysis_source =
          exemplar ? AnalysisSource::Computed : AnalysisSource::Reused;
      if (!exemplar) ++batch.analyses_reused;
    }
    unit.consumers = std::move(group);
  }
  batch.analyses_computed = units.size();
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
    const Job& job = jobs[unit.exemplar_job];
    if (job.select.generation == PatternGeneration::SpanLimitedEnumeration) {
      try {
        const PreparedGraph& graph = *prepared[unit.exemplar_job];
        // Estimation runs on the thread running this dispatch (the
        // dispatcher or a blocking caller), before the shard fan-out and
        // outside any pool task, so it may fan out on the engine's own
        // pool; the shard tasks themselves must not (parallel = false
        // there).
        EnumerateOptions estimate_options = enumerate_options_for(job.select);
        estimate_options.parallel = true;
        unit.shard_roots = pack_roots_by_cost(
            estimate_root_costs(graphs[unit.exemplar_job], graph.levels, graph.reach,
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
  workers.parallel_for(tasks.size(), [&](std::size_t t) {
    AnalysisUnit& unit = units[tasks[t].unit];
    const std::size_t s = tasks[t].shard;
    const Job& job = jobs[unit.exemplar_job];
    const Dfg& unit_dfg = graphs[unit.exemplar_job];
    const PreparedGraph& graph = *prepared[unit.exemplar_job];
    obs::Span enumerate_span("engine.enumerate",
                             obs::tracing_enabled()
                                 ? job.workload + " shard " + std::to_string(s)
                                 : std::string());
    Timer timer;
    const double cpu_start = thread_cpu_ms();
    try {
      if (job.select.generation == PatternGeneration::SpanLimitedEnumeration) {
        unit.shard_results[s] =
            enumerate_antichain_roots(unit_dfg, graph.levels, graph.reach,
                                      enumerate_options_for(job.select),
                                      unit.shard_roots[s], unit.enumerated.get());
      } else {
        unit.shard_results[s] =
            analytic_level_analysis(unit_dfg, graph.levels, job.select.capacity);
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
/// every consumer its unit's result or error.
void Dispatch::merge_and_publish() {
  workers.parallel_for(units.size(), [&](std::size_t u) {
    AnalysisUnit& unit = units[u];
    for (std::size_t s = 0; s < unit.shard_errors.size(); ++s)
      if (unit.error.empty() && !unit.shard_errors[s].empty())
        unit.error = "analysis: " + unit.shard_errors[s];
    for (const double ms : unit.shard_ms) unit.total_ms += ms;
    if (!unit.error.empty()) return;
    {
      obs::Span merge_span("engine.merge", obs::tracing_enabled()
                                               ? jobs[unit.exemplar_job].workload
                                               : std::string());
      unit.result = std::make_shared<AntichainAnalysis>(
          unit.shard_results.size() == 1
              ? std::move(unit.shard_results.front())
              : merge_antichain_analyses(std::move(unit.shard_results),
                                         graphs[unit.exemplar_job].node_count()));
    }
    if (options.use_cache) cache.store_analysis(unit.key, unit.result);
  });

  for (const AnalysisUnit& unit : units) {
    for (const std::size_t i : unit.consumers) {
      analysis[i] = unit.result;
      // Same convention as prepare_ms: shared work is charged to the
      // exemplar only, so summing timings over a results file reflects
      // work actually done.
      if (i == unit.exemplar_job) {
        batch.jobs[i].timings.analysis_ms += unit.total_ms;
        batch.jobs[i].shard_ms = unit.shard_ms;
      }
      if (!unit.error.empty()) batch.jobs[i].error = unit.error;
    }
  }
}

/// Runs job i's scheduler backend into `s`, charging its select/schedule/
/// refine time to job i. Returns false when the backend threw: `s` then
/// reports the exception as a failure that must not be memoized.
bool Dispatch::run_backend(std::size_t i, SolvedResult& s) {
  const Job& job = jobs[i];
  const Dfg& dfg = graphs[i];
  try {
    s.critical_path = prepared[i]->levels.critical_path_length();

    BackendRequest request;
    request.dfg = &dfg;
    request.analysis = analysis[i].get();  // null for self-contained backends
    request.select = job.select;
    request.schedule = job.schedule;
    request.refine = job.refine;
    request.refinement = job.refinement;
    request.trace_detail = job.workload;
    BackendResult out = backends[i]->solve(request);

    PhaseTimings& timings = batch.jobs[i].timings;
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

/// Solves every live job once per distinct SolveKey. With the cache on,
/// jobs sharing a key form one group; a group the memo holds is served
/// from it, and every other group runs its backend once (in parallel) and
/// memoizes what the backend returned, rendered on the same worker. Every
/// job of a group then gets the same SolvedResult and, when the memo
/// holds it, a reference to the entry. With the cache off each job is its
/// own group and the memo is neither read nor written.
void Dispatch::solve() {
  static obs::Counter& computed =
      obs::Registry::global().counter("engine.solve.computed");
  static obs::Counter& reused = obs::Registry::global().counter("engine.solve.reused");
  std::vector<std::size_t> live;
  std::vector<SolveKey> solve_keys(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (failed(i)) continue;
    live.push_back(i);
    if (options.use_cache)
      solve_keys[i] = {keys[i], jobs[i].select, jobs[i].schedule, jobs[i].refine,
                       jobs[i].refinement};
  }
  const std::vector<std::vector<std::size_t>> groups =
      share_groups<SolveKeyHash>(live, solve_keys, options.use_cache);

  // Only an entry handed to the memo carries text.
  std::vector<std::shared_ptr<const SolvedEntry>> solved(groups.size());
  std::vector<std::size_t> misses;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (options.use_cache) solved[g] = cache.find_solved(solve_keys[groups[g].front()]);
    if (solved[g] == nullptr) misses.push_back(g);
  }
  workers.parallel_for(misses.size(), [&](std::size_t m) {
    const std::size_t g = misses[m];
    const std::size_t solver = groups[g].front();
    auto entry = std::make_shared<SolvedEntry>();
    if (run_backend(solver, entry->result) && options.use_cache) {
      entry->text = render_solved(entry->result);
      cache.store_solved(solve_keys[solver], entry);
    }
    solved[g] = std::move(entry);
  });

  for (std::size_t g = 0; g < groups.size(); ++g)
    for (const std::size_t i : groups[g]) {
      static_cast<SolvedResult&>(batch.jobs[i]) = solved[g]->result;
      if (!solved[g]->text.empty()) batch.jobs[i].memo = solved[g];
    }
  computed.add(misses.size());
  reused.add(live.size() - misses.size());
}

}  // namespace

BatchResult Engine::execute_batch(const std::vector<Job>& jobs) {
  Timer wall;
  obs::Span dispatch_span("engine.dispatch",
                          obs::tracing_enabled()
                              ? std::to_string(jobs.size()) + " jobs"
                              : std::string());
  Dispatch dispatch(jobs, options_, pool(), cache());
  {
    obs::Span prepare_span("engine.prepare");
    dispatch.resolve_and_transform();
    dispatch.key_and_prepare();
  }
  {
    obs::Span probe_span("engine.probe");
    dispatch.probe_and_group();
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

  BatchResult batch = std::move(dispatch.batch);
  batch.wall_ms = wall.millis();
  account(batch);
  return batch;
}

void Engine::account(BatchResult& batch) {
  const StatsInstruments& m = instruments();
  m.dispatches.add();
  m.jobs.add(batch.jobs.size());
  m.jobs_succeeded.add(batch.succeeded());
  m.analyses_computed.add(batch.analyses_computed);
  m.analyses_reused.add(batch.analyses_reused);
  m.dispatch_ms.record(batch.wall_ms);
  // Every count of this dispatch has landed (its lookups ran on this
  // thread, its stores inside joined fan-outs), so the copy made under
  // the lock stats() and collect() read under never reports the dispatch
  // without the cache traffic it produced.
  const bool disk_tier = cache().disk_store() != nullptr;
  std::lock_guard lock(stats_mutex_);
  read_boundary_counters(stats_, disk_tier);
  batch.cache_stats = stats_.cache;
}

}  // namespace mpsched::engine

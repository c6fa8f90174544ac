// Content-addressed cache of per-graph analyses (batch engine, src/engine).
//
// The expensive inputs to pattern selection — transitive closure, ASAP/ALAP
// levels, and above all the antichain analysis — depend only on the graph's
// structure and the generation options, not on which Job asked. The same
// graphs recur constantly (the two paper graphs appear in a dozen
// harnesses; sweeps re-run one graph under many selection parameters), so
// the engine memoizes:
//
//   PreparedGraph  keyed by  H(canonical DFG text)
//   AntichainAnalysis  keyed by  H(canonical DFG text ‖ generation options)
//
// "Content-addressed" means the key is a hash of the graph's canonical
// structure — the per-node color-name sequence and the edge list, both in
// their semantics-bearing insertion order; graph/node display names are
// excluded — never an object identity. Two independently-built but
// structurally identical graphs share one cache line. Keys are 128-bit
// (two independent FNV-1a streams over length-delimited fields) so
// accidental collision is out of the question at any realistic corpus size.
// content_keys() is the one key function: the graph part is
// Dfg::content_hash(), which the graph memoizes, so a graph shared by many
// jobs is serialized for hashing once, and the analysis key extends that
// hash state with the options.
//
// Each engine owns one cache. Its disk tier, a CacheStore
// (engine/cache_store.hpp), is fixed when the cache is built: analysis
// lookups that miss in memory fall through to the cache directory, and
// stores write through to it, so analyses persist across processes.
// Disk-served lookups are published into the memory tier.
//
// Beside the analyses sits a memory-only memo of solved results: pattern
// selection and scheduling are deterministic in the analysis and the
// job's options, so
//
//   SolvedEntry  keyed by  SolveKey (analysis key ‖ every job option)
//
// lets a repeated job skip its scheduler backend entirely. An entry holds
// the SolvedResult and its members rendered once as compact JSON
// (engine/job.hpp), so a warm response writes no field of it again. The
// memo never touches the disk tier.
//
// Counters: the cache holds no counts of its own. Lookups are counted in
// the metrics registry (cache.graph.hits/misses, cache.mem.hits/misses;
// the disk tier counts cache.disk.*), and the engine's CacheStats
// snapshot is read from there (engine/engine.hpp).
//
// Thread safety: all methods are safe to call concurrently; values are
// immutable once published (shared_ptr<const T>).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "antichain/enumerate.hpp"
#include "core/mp_schedule.hpp"
#include "core/refine.hpp"
#include "core/select.hpp"
#include "engine/job.hpp"
#include "graph/closure.hpp"
#include "graph/dfg.hpp"
#include "graph/levels.hpp"

namespace mpsched::engine {

class CacheStore;

/// 128-bit content hash.
struct CacheKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  bool operator==(const CacheKey&) const = default;
  /// Hex rendering for logs and result diagnostics.
  std::string to_string() const;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL));
  }
};

/// Key of the solved-result memo: the job's analysis key (graph content,
/// generation options, transforms, backend) plus every option its backend
/// reads. The defaulted comparisons of the option structs make a field
/// added to any of them part of the key automatically.
struct SolveKey {
  CacheKey analysis;
  SelectOptions select;
  MpScheduleOptions schedule;
  bool refine = false;
  RefineOptions refinement;

  bool operator==(const SolveKey&) const = default;
};

/// Hashes the analysis key and a few integral options. A field it leaves
/// out only makes keys share a bucket, never a result: lookups compare
/// with operator==.
struct SolveKeyHash {
  std::size_t operator()(const SolveKey& k) const noexcept;
};

/// Levels + reachability bundle; everything downstream of the bare DFG.
struct PreparedGraph {
  Levels levels;
  Reachability reach;
};

class AnalysisCache {
 public:
  /// A memory-only cache, or one whose memory misses fall through to
  /// `store`, its disk tier for life.
  explicit AnalysisCache(std::shared_ptr<CacheStore> store = nullptr);

  /// Content keys of the graph and of (graph, generation strategy,
  /// enumeration options), from one graph hash; returns {graph_key,
  /// analysis_key}. Only the options that influence the analysis
  /// participate: generation mode, capacity/max_size, span limit.
  /// collect_members is forced off for cached analyses, and `parallel` is
  /// an execution detail. `pipeline_tag` (engine::pipeline_cache_tag)
  /// separates differently configured pipelines over the same graph
  /// content; the empty tag feeds nothing, so default-pipeline keys are
  /// byte-identical to pre-pipeline releases and warm disk caches stay
  /// valid.
  static std::pair<CacheKey, CacheKey> content_keys(const Dfg& dfg,
                                                    PatternGeneration generation,
                                                    std::size_t max_size,
                                                    std::optional<int> span_limit,
                                                    const std::string& pipeline_tag = {});

  /// Memoized levels+closure by graph key: nullptr on a miss. Each call
  /// counts one cache.graph.hits or cache.graph.misses. The engine computes a miss itself, off
  /// the dispatcher thread, and publishes it with store_graph().
  std::shared_ptr<const PreparedGraph> find_graph(const CacheKey& key);
  void store_graph(const CacheKey& key, std::shared_ptr<const PreparedGraph> value);

  /// Pure lookups — the engine orchestrates the (sharded) computation
  /// itself on a miss, then publishes with store_analysis(). With a disk
  /// tier, a memory miss falls through to disk before reporting one.
  std::shared_ptr<const AntichainAnalysis> find_analysis(const CacheKey& key);
  void store_analysis(const CacheKey& key, std::shared_ptr<const AntichainAnalysis> value);

  /// The solved-result memo (memory only): nullptr on a miss. A key with a
  /// NaN option never equals itself, so store_solved() drops it rather
  /// than hold an entry no lookup can reach.
  std::shared_ptr<const SolvedEntry> find_solved(const SolveKey& key) const;
  void store_solved(const SolveKey& key, std::shared_ptr<const SolvedEntry> value);

  /// The disk tier; nullptr when the cache is memory-only.
  CacheStore* disk_store() const noexcept { return store_.get(); }

  /// Number of cached analyses (not graphs) held in memory.
  std::size_t analysis_count() const;

 private:
  const std::shared_ptr<CacheStore> store_;  ///< read without mutex_: never reassigned
  mutable std::mutex mutex_;
  std::unordered_map<CacheKey, std::shared_ptr<const PreparedGraph>, CacheKeyHash> graphs_;
  std::unordered_map<CacheKey, std::shared_ptr<const AntichainAnalysis>, CacheKeyHash>
      analyses_;
  std::unordered_map<SolveKey, std::shared_ptr<const SolvedEntry>, SolveKeyHash> solved_;
};

}  // namespace mpsched::engine

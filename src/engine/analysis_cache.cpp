#include "engine/analysis_cache.hpp"

#include <cstdio>

#include "engine/cache_store.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fnv.hpp"

namespace mpsched::engine {

std::size_t SolveKeyHash::operator()(const SolveKey& k) const noexcept {
  std::size_t h = CacheKeyHash{}(k.analysis);
  for (const std::uint64_t v :
       {std::uint64_t{k.select.pattern_count}, k.schedule.seed, std::uint64_t{k.refine},
        std::uint64_t{k.refinement.max_sweeps}})
    h = (h ^ v) * 0x100000001b3ULL;
  return h;
}

std::string CacheKey::to_string() const {
  char buf[36];
  std::snprintf(buf, sizeof buf, "%016llx%016llx", static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

namespace {

/// A CacheKey view of an FNV-128 state (Dfg::content_hash() and the
/// streams that extend it).
CacheKey key_of(const Fnv128& h) { return CacheKey{h.lo, h.hi}; }

void feed_options(Fnv128& h, PatternGeneration generation, std::size_t max_size,
                  std::optional<int> span_limit) {
  h.feed_u64(generation == PatternGeneration::LevelAnalytic ? 2 : 1);
  h.feed_u64(static_cast<std::uint64_t>(max_size));
  // The analytic generator has no span-limit notion; keep its key stable
  // across span settings so sweeps share one entry.
  if (generation == PatternGeneration::SpanLimitedEnumeration)
    h.feed_u64(span_limit ? static_cast<std::uint64_t>(*span_limit) + 1 : 0);
}

/// The empty tag (default pipeline) feeds NOTHING, not a zero length:
/// default keys must stay byte-identical to pre-pipeline releases so warm
/// disk caches carry over. Non-empty tags are length-delimited like every
/// other variable-width field.
void feed_pipeline_tag(Fnv128& h, const std::string& pipeline_tag) {
  if (pipeline_tag.empty()) return;
  h.feed_u64(pipeline_tag.size());
  h.feed(pipeline_tag);
}

}  // namespace

AnalysisCache::AnalysisCache(std::shared_ptr<CacheStore> store) : store_(std::move(store)) {}

CacheKey AnalysisCache::graph_key(const Dfg& dfg) { return key_of(dfg.content_hash()); }

std::pair<CacheKey, CacheKey> AnalysisCache::content_keys(const Dfg& dfg,
                                                          PatternGeneration generation,
                                                          std::size_t max_size,
                                                          std::optional<int> span_limit,
                                                          const std::string& pipeline_tag) {
  Fnv128 h = dfg.content_hash();
  const CacheKey graph = key_of(h);
  feed_options(h, generation, max_size, span_limit);  // extends the graph's stream
  feed_pipeline_tag(h, pipeline_tag);
  return {graph, key_of(h)};
}

std::shared_ptr<const PreparedGraph> AnalysisCache::find_graph(const CacheKey& key) {
  static obs::Counter& hits = obs::Registry::global().counter("cache.graph.hits");
  static obs::Counter& misses = obs::Registry::global().counter("cache.graph.misses");
  std::lock_guard lock(mutex_);
  const auto it = graphs_.find(key);
  if (it == graphs_.end()) {
    misses.add();
    return nullptr;
  }
  hits.add();
  return it->second;
}

void AnalysisCache::store_graph(const CacheKey& key,
                                std::shared_ptr<const PreparedGraph> value) {
  std::lock_guard lock(mutex_);
  graphs_[key] = std::move(value);
}

std::shared_ptr<const AntichainAnalysis> AnalysisCache::find_analysis(const CacheKey& key) {
  // Memory-tier counters only (the disk tier counts its own): a probe this
  // cheap gets a relaxed increment, never a trace span.
  static obs::Counter& mem_hits =
      obs::Registry::global().counter("cache.mem.hits");
  static obs::Counter& mem_misses =
      obs::Registry::global().counter("cache.mem.misses");
  {
    std::lock_guard lock(mutex_);
    const auto it = analyses_.find(key);
    if (it != analyses_.end()) {
      mem_hits.add();
      return it->second;
    }
  }
  mem_misses.add();
  // Memory miss: fall through to the disk tier outside the lock (file IO
  // must not serialize concurrent memory hits). A racing duplicate load is
  // harmless — identical content, last writer wins.
  if (store_ == nullptr) return nullptr;
  auto loaded = store_->load(key);
  if (loaded != nullptr) {
    std::lock_guard lock(mutex_);
    analyses_[key] = loaded;
  }
  return loaded;
}

void AnalysisCache::store_analysis(const CacheKey& key,
                                   std::shared_ptr<const AntichainAnalysis> value) {
  {
    obs::Span span("cache.mem.store");
    std::lock_guard lock(mutex_);
    analyses_[key] = value;
  }
  if (store_ != nullptr) store_->store(key, *value);
}

std::shared_ptr<const SolvedEntry> AnalysisCache::find_solved(const SolveKey& key) const {
  std::lock_guard lock(mutex_);
  const auto it = solved_.find(key);
  return it != solved_.end() ? it->second : nullptr;
}

void AnalysisCache::store_solved(const SolveKey& key,
                                 std::shared_ptr<const SolvedEntry> value) {
  if (!(key == key)) return;  // a NaN option: no lookup could ever match it
  std::lock_guard lock(mutex_);
  solved_[key] = std::move(value);
}

std::size_t AnalysisCache::analysis_count() const {
  std::lock_guard lock(mutex_);
  return analyses_.size();
}

}  // namespace mpsched::engine

// Job / JobResult — the unit of work of the batch engine (src/engine).
//
// A Job bundles everything the nine-module pipeline needs for one graph:
// the DFG itself, how to generate candidate patterns (SelectOptions folds
// in the EnumerateOptions knobs: capacity, span limit, generation
// strategy), how to schedule, and whether to run the refinement loop.
// A JobResult captures the full outcome — selected patterns, schedule
// length, the per-node cycle assignment, antichain totals — plus
// diagnostics (per-phase timings, cache hit) that are *not* part of the
// deterministic result surface (io/result_io excludes them by default).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/mp_schedule.hpp"
#include "core/refine.hpp"
#include "core/select.hpp"
#include "graph/dfg.hpp"
#include "sched/backend.hpp"

namespace mpsched::engine {

struct Job {
  /// Display name; resolved_name() back-fills when empty.
  std::string name;
  /// Workload spec (workloads/corpus.hpp) this graph came from; empty for
  /// graphs supplied directly. Carried through to results and corpus files.
  std::string workload;
  /// Shares its storage with every copy (graph/dfg.hpp), so copying a job
  /// never copies its graph.
  Dfg dfg;
  /// Transform pipeline (graph/transform.hpp) applied to `dfg` in the
  /// engine's prepare phase, in order. Empty = run the graph as-is.
  std::vector<std::string> transforms;
  /// Scheduler backend (sched/backend.hpp) that turns the transformed
  /// graph into a schedule. The default reproduces the paper flow.
  std::string backend = std::string(kDefaultBackend);
  SelectOptions select{};
  MpScheduleOptions schedule{};
  bool refine = false;
  RefineOptions refinement{};

  /// `name`, else the workload spec, else the graph's own name. The engine
  /// and the corpus writer both use this, so a job is called the same
  /// thing in results whether it ran from memory or through a corpus file.
  std::string resolved_name() const;

  /// Builds a job from a workload spec (name defaults to the spec).
  static Job from_workload(const std::string& spec);
};

/// Canonical cache-key tag of a job's pipeline configuration: empty for
/// the default pipeline (no transforms, default backend) so default cache
/// keys — and warm disk-cache tiers — stay byte-compatible with
/// pre-pipeline releases, "t1,t2|backend" otherwise.
std::string pipeline_cache_tag(const std::vector<std::string>& transforms,
                               const std::string& backend);

/// Wall-clock milliseconds per pipeline phase. `analysis_ms` is summed
/// over the job's enumeration shards, so it reads as CPU-ms when the job
/// was sharded across workers; 0.0 when the analysis came from the memory
/// cache. With a disk tier attached, every job's cache probe (a file read
/// on a memory miss) is added to it too.
/// Every phase is charged to the job that did its work: work shared by
/// duplicate jobs in one dispatch (prepare, analysis, select/schedule/
/// refine alike) lands on the group's first job only, and a job served
/// by the analysis cache or the solved-result memo reads 0.0 for that
/// phase. Summing a phase across a results file reflects work actually
/// done.
struct PhaseTimings {
  double prepare_ms = 0.0;   ///< levels + transitive closure + hashing
  double analysis_ms = 0.0;  ///< antichain enumeration / analytic counting
  double select_ms = 0.0;
  double schedule_ms = 0.0;
  double refine_ms = 0.0;

  double total_ms() const {
    return prepare_ms + analysis_ms + select_ms + schedule_ms + refine_ms;
  }
};

/// Diagnostic attribution of a job's antichain analysis within its
/// dispatch: Computed for the one job that ran (or would have run) the
/// analysis fresh, Reused for cache hits and intra-dispatch duplicates,
/// None when the job failed before the analysis phase or its backend
/// composes its own patterns (needs_analysis == false, so no analysis
/// ever ran for it). Summing these over
/// any set of JobResults reproduces the batch-level analyses_computed /
/// analyses_reused counters — which is how the synchronous run_batch()
/// wrapper and the service layer account per-request work when requests
/// share a coalesced dispatch.
enum class AnalysisSource { None, Computed, Reused };

/// The deterministic outcome of solving a job: what its scheduler backend
/// returned, plus the graph's critical path. It depends only on the
/// effective graph, the analysis and the job's options, which is what
/// lets the engine's solved-result memo (engine/analysis_cache.hpp) hand
/// one solve to every job with the same key.
struct SolvedResult {
  bool success = false;
  std::string error;  ///< set when !success

  /// Selected patterns in pick order, text form ("aabcc").
  std::vector<std::string> patterns;
  std::size_t cycles = 0;       ///< multi-pattern schedule length
  int critical_path = 0;        ///< cycle-count lower bound
  /// The schedule itself: cycle_of[node id] of the effective graph (after
  /// the transform pipeline); empty on failure.
  std::vector<int> node_cycles;

  std::uint64_t antichains = 0;         ///< total enumerated (or counted)
  std::size_t candidate_patterns = 0;   ///< distinct patterns found
  std::size_t refine_swaps = 0;         ///< 0 unless Job::refine

 private:
  /// Compares every field, so a field added above joins by itself. Only
  /// same_solved() calls it: JobResult inherits it, and a public one would
  /// let two JobResults compare equal on their solved part alone.
  bool operator==(const SolvedResult&) const = default;
  friend bool same_solved(const SolvedResult& a, const SolvedResult& b);
};

/// Whether two solved results hold the same value in every field.
inline bool same_solved(const SolvedResult& a, const SolvedResult& b) { return a == b; }

/// One entry of the solved-result memo (engine/analysis_cache.hpp): a
/// result and its members as compact JSON text (io/result_io
/// render_solved), rendered once by the worker that solved it, before the
/// entry is shared. Immutable once stored.
struct SolvedEntry {
  SolvedResult result;
  std::string text;
};

/// A job's full outcome. `error` is also where earlier phases (pipeline,
/// prepare, analysis) report a failure before the job is ever solved.
struct JobResult : SolvedResult {
  std::string job;       ///< Job::resolved_name()
  std::string workload;  ///< Job::workload (may be empty)
  std::string backend;   ///< Job::backend echo
  std::vector<std::string> transforms;  ///< Job::transforms echo
  /// Node/edge counts of the *effective* graph the backend scheduled
  /// (after the transform pipeline; identical to the input graph for the
  /// default pipeline).
  std::size_t nodes = 0;
  std::size_t edges = 0;

  // -- diagnostics (excluded from deterministic serialization) -----------
  bool analysis_cache_hit = false;
  AnalysisSource analysis_source = AnalysisSource::None;
  PhaseTimings timings{};
  /// Measured wall ms per enumeration shard of this job's analysis.
  /// Exemplar-charged like analysis_ms: populated only on the job that
  /// computed the analysis fresh; empty on cache hits and duplicates.
  std::vector<double> shard_ms;

  // -- serialization aid (never serialized itself) ------------------------
  /// The memo entry this result's solved fields were copied from; null
  /// when the memo does not hold them (cache off, a backend that threw, a
  /// result built by hand). A compact write_result splices the entry's
  /// text while the fields still equal the entry's, and writes them
  /// otherwise.
  std::shared_ptr<const SolvedEntry> memo;
};

}  // namespace mpsched::engine

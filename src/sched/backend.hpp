// Scheduler backends: every way this repo can turn a DFG into a schedule,
// one constant table of plain entries selected per Job by string key (like
// the transform passes in graph/transform.hpp).
//
// Backends:
//   multi_pattern  — the paper's flow: §5.2 pattern selection over the
//                    antichain analysis, optional refinement, §4
//                    multi-pattern list scheduler. The default; its output
//                    is byte-identical to the pre-registry engine.
//   list           — classic capacity-C list scheduling (any color mix),
//                    reporting the induced per-cycle patterns.
//   force_directed — Paulin-Knight force-directed scheduling wrapped in a
//                    latency search until capacity C fits.
//   exhaustive     — quality oracle for small graphs: best covering
//                    Pdef-subset of the full pattern universe under the §4
//                    scheduler.
//
// Backends that compose their own patterns (list / force_directed /
// exhaustive) do not consume the antichain analysis; the engine skips
// enumeration entirely for such jobs (needs_analysis == false).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/mp_schedule.hpp"
#include "core/refine.hpp"
#include "core/select.hpp"
#include "graph/dfg.hpp"
#include "pattern/pattern_set.hpp"
#include "sched/schedule.hpp"

namespace mpsched {

/// Everything a backend may consume for one job. `dfg` is the *effective*
/// graph (after the job's transform pipeline); `analysis` is non-null iff
/// the backend declares needs_analysis.
struct BackendRequest {
  const Dfg* dfg = nullptr;
  const AntichainAnalysis* analysis = nullptr;
  SelectOptions select{};
  MpScheduleOptions schedule{};
  bool refine = false;
  RefineOptions refinement{};
  /// Detail string for obs spans (the engine passes the workload spec);
  /// empty disables per-job span labelling.
  std::string trace_detail;
};

/// What a backend produced. On success `schedule` covers every node of the
/// request's graph and `patterns` is the set the schedule runs under
/// (selected, induced, or exhaustively chosen depending on the backend).
struct BackendResult {
  bool success = false;
  std::string error;  ///< set when !success
  PatternSet patterns;
  Schedule schedule;
  std::size_t cycles = 0;
  std::uint64_t antichains = 0;        ///< enumerated during selection (0 when unused)
  std::size_t candidate_patterns = 0;  ///< distinct candidates considered
  std::size_t refine_swaps = 0;
  double select_ms = 0.0;
  double schedule_ms = 0.0;
  double refine_ms = 0.0;
};

/// One registry entry.
struct SchedulerBackend {
  /// Registry key (stable; serialized in corpus/results JSON).
  std::string_view name;
  /// One-line human description for --list-backends.
  std::string_view description;
  /// True when solve consumes a precomputed antichain analysis; the engine
  /// only enumerates (or hits the cache) for such backends.
  bool needs_analysis;
  /// Runs the backend. Throws only on programmer error; expected failures
  /// (unschedulable, option conflicts) come back as success == false.
  BackendResult (*solve)(const BackendRequest& request);
};

/// The backend every Job uses unless it says otherwise.
inline constexpr std::string_view kDefaultBackend = "multi_pattern";

/// Looks a backend up by name; nullptr when unknown.
const SchedulerBackend* find_backend(std::string_view name);

/// Like find_backend but throws std::invalid_argument on unknown names.
const SchedulerBackend& get_backend(std::string_view name);

/// Names of all registered backends, in registration order.
std::vector<std::string> backend_names();

}  // namespace mpsched

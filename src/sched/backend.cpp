#include "sched/backend.hpp"

#include <exception>
#include <utility>

#include "core/exhaustive.hpp"
#include "obs/trace.hpp"
#include "sched/force_directed.hpp"
#include "sched/list_schedule.hpp"
#include "util/registry.hpp"
#include "util/timer.hpp"

namespace mpsched {

namespace {

/// Runs one step of a backend under the obs span `span_name` (labelled
/// with the request's trace detail) and charges its wall time to `ms`, also
/// when the step throws.
template <typename Step>
auto timed_step(const char* span_name, const BackendRequest& request, double& ms, Step step) {
  const Timer t;
  try {
    const obs::Span span(span_name, obs::tracing_enabled() ? request.trace_detail : std::string());
    auto result = step();
    ms = t.millis();
    return result;
  } catch (...) {
    ms = t.millis();
    throw;
  }
}

/// The failure a backend that picks its own patterns returns for a request
/// with refinement on.
BackendResult refinement_rejected(std::string_view backend, std::string_view reason) {
  BackendResult out;
  out.error.append("backend '").append(backend).append("' ").append(reason).append(
      "; refinement is not applicable");
  return out;
}

/// Fills `out` from a schedule that reports the patterns its cycles induce.
template <typename Scheduled>
void take_induced(Scheduled& scheduled, BackendResult& out) {
  out.success = true;
  out.cycles = scheduled.cycles;
  out.candidate_patterns = scheduled.induced.size();
  out.patterns = std::move(scheduled.induced);
  out.schedule = std::move(scheduled.schedule);
}

/// The paper's flow, moved verbatim from the engine's old phase 2 so the
/// default pipeline's output (and its obs spans) stay byte-identical.
BackendResult solve_multi_pattern(const BackendRequest& request) {
  BackendResult out;
  SelectionResult selection = timed_step("engine.select", request, out.select_ms, [&] {
    return select_patterns(*request.dfg, *request.analysis, request.select);
  });
  out.antichains = selection.antichains_enumerated;
  out.candidate_patterns = selection.candidate_patterns;

  PatternSet patterns = std::move(selection.patterns);
  if (request.refine) {
    const Timer t;
    RefineOptions refinement = request.refinement;
    refinement.schedule = request.schedule;
    RefineResult refined =
        refine_pattern_set(*request.dfg, *request.analysis, patterns, refinement);
    out.refine_ms = t.millis();
    out.refine_swaps = refined.swaps_accepted;
    patterns = std::move(refined.patterns);
  }

  MpScheduleResult scheduled = timed_step("engine.schedule", request, out.schedule_ms, [&] {
    return multi_pattern_schedule(*request.dfg, patterns, request.schedule);
  });
  if (!scheduled.success) {
    out.error = "schedule: " + scheduled.error;
    return out;
  }
  out.success = true;
  out.cycles = scheduled.cycles;
  out.patterns = std::move(patterns);
  out.schedule = std::move(scheduled.schedule);
  return out;
}

BackendResult solve_list(const BackendRequest& request) {
  if (request.refine) return refinement_rejected("list", "composes its own patterns");
  BackendResult out;
  ListScheduleOptions options;
  options.capacity = request.select.capacity;
  ListScheduleResult scheduled = timed_step("engine.schedule", request, out.schedule_ms,
                                            [&] { return list_schedule(*request.dfg, options); });
  take_induced(scheduled, out);
  return out;
}

BackendResult solve_force_directed(const BackendRequest& request) {
  if (request.refine) return refinement_rejected("force_directed", "composes its own patterns");
  BackendResult out;
  FdsOptions options;
  options.capacity = request.select.capacity;
  FdsResult scheduled = timed_step("engine.schedule", request, out.schedule_ms, [&] {
    return force_directed_capacity_schedule(*request.dfg, options);
  });
  if (!scheduled.success) {
    out.error = "force-directed search exhausted its latency budget";
    return out;
  }
  take_induced(scheduled, out);
  return out;
}

/// The search schedules every covering set and keeps the winner's
/// schedule, so its whole time is charged to select_ms.
BackendResult solve_exhaustive(const BackendRequest& request) {
  if (request.refine)
    return refinement_rejected("exhaustive", "already optimises over pattern sets");
  BackendResult out;
  ExhaustiveOptions options;
  options.capacity = request.select.capacity;
  options.pattern_count = request.select.pattern_count;
  options.schedule = request.schedule;
  try {
    ExhaustiveResult best = timed_step("engine.select", request, out.select_ms, [&] {
      return exhaustive_pattern_search(*request.dfg, options);
    });
    out.success = true;
    out.cycles = best.cycles;
    out.candidate_patterns = best.best.size();
    out.patterns = std::move(best.best);
    out.schedule = std::move(best.schedule);
  } catch (const std::exception& e) {
    // Combination guard and friends: an expected failure, not a crash.
    out.error = std::string("exhaustive: ") + e.what();
  }
  return out;
}

constexpr SchedulerBackend kBackends[] = {
    {"multi_pattern",
     "paper flow: antichain-driven selection (+ optional refine) + multi-pattern scheduler",
     true, &solve_multi_pattern},
    {"list", "capacity-C list scheduling, any color mix; reports induced patterns", false,
     &solve_list},
    {"force_directed", "force-directed scheduling searched to the smallest capacity-C latency",
     false, &solve_force_directed},
    {"exhaustive", "oracle: best covering Pdef-subset of the pattern universe (small graphs)",
     false, &solve_exhaustive},
};

}  // namespace

const SchedulerBackend* find_backend(std::string_view name) {
  return find_entry(kBackends, name);
}

const SchedulerBackend& get_backend(std::string_view name) {
  return get_entry(kBackends, "backend", name);
}

std::vector<std::string> backend_names() { return entry_names(kBackends); }

}  // namespace mpsched

// Asynchronous submission vs. the per-job blocking loop, on the demo
// corpus — what the admission queue buys a stream of small independent
// submissions:
//
//   run() loop    one blocking run() per job: every job pays its own
//                 dispatch (8 jobs -> 8 dispatches), the status quo for a
//                 caller without batches.
//   submit stream a one-job submit_batch() per job on a default engine:
//                 the first job dispatches at once, and the rest queue
//                 behind that dispatch and share the next flush — dedup
//                 and root sharding work *across* the callers' jobs
//                 again.
//
// Hard gates: the stream executes strictly fewer dispatches than jobs
// (with at least one genuinely shared dispatch), its results are
// byte-identical to both the run() loop's and a plain run_batch() — the
// determinism contract that makes coalescing safe to apply to anyone's
// traffic — and per-ticket attribution sums reproduce the engine's
// analysis counters. The per-job latency delta is reported but not gated
// (it is machine noise on a loaded CI box; the dispatch-count reduction
// is the structural claim). The engine counters are process-wide (the
// metrics registry), so each section reads what its run added.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "io/result_io.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workloads/corpus.hpp"

using namespace mpsched;

namespace {

std::string fingerprint(const std::vector<engine::JobResult>& results) {
  std::string out;
  for (const engine::JobResult& r : results) out += result_to_json(r).dump(-1) + "\n";
  return out;
}

/// The counters a run added: `after` minus `before`, field by field.
engine::EngineStats added(const engine::EngineStats& after, const engine::EngineStats& before) {
  engine::EngineStats d;
  d.batches = after.batches - before.batches;
  d.jobs_submitted = after.jobs_submitted - before.jobs_submitted;
  d.coalesced_dispatches = after.coalesced_dispatches - before.coalesced_dispatches;
  d.analyses_computed = after.analyses_computed - before.analyses_computed;
  d.analyses_reused = after.analyses_reused - before.analyses_reused;
  return d;
}

}  // namespace

int main() {
  bench::banner("Engine submit stream — per-job run() loop vs coalesced submit()",
                "8-job demo corpus submitted as a stream of single jobs");

  std::vector<engine::Job> jobs;
  for (const std::string& spec : workloads::demo_corpus_specs())
    jobs.push_back(engine::Job::from_workload(spec));

  bench::Gate gate("engine_submit");

  // Reference: one plain batched execution.
  engine::Engine reference;
  const engine::BatchResult batched = reference.run_batch(jobs);
  const std::string expected = fingerprint(batched.jobs);

  // ---- A: blocking run() per job — one dispatch each --------------------
  std::vector<engine::JobResult> loop_results;
  double loop_ms = 0.0;
  engine::EngineStats loop_stats;
  {
    engine::Engine eng;
    const engine::EngineStats before = eng.stats();
    Timer t;
    for (const engine::Job& job : jobs) loop_results.push_back(eng.run(job));
    loop_ms = t.millis();
    loop_stats = added(eng.stats(), before);
  }

  // ---- B: one-job submit_batch() stream on a default engine -------------
  // The first submit dispatches at once; the other 7 arrive while that
  // cold dispatch runs and queue behind it, so the stream of 8 single
  // submits shares dispatches instead of paying 8.
  std::vector<engine::JobResult> stream_results;
  double stream_ms = 0.0;
  engine::EngineStats stream_stats;
  {
    engine::Engine eng;
    const engine::EngineStats before = eng.stats();
    Timer t;
    std::vector<engine::Ticket> tickets;
    for (const engine::Job& job : jobs) tickets.push_back(eng.submit_batch({job}));
    for (engine::Ticket& ticket : tickets)
      stream_results.push_back(std::move(ticket.take().front()));
    stream_ms = t.millis();
    stream_stats = added(eng.stats(), before);
  }

  TextTable table({"execution", "wall ms", "ms/job", "dispatches", "coalesced"});
  const auto row = [&](const char* name, double ms, const engine::EngineStats& s) {
    char wall[32], per[32];
    std::snprintf(wall, sizeof wall, "%.1f", ms);
    std::snprintf(per, sizeof per, "%.2f", ms / static_cast<double>(jobs.size()));
    table.add(name, wall, per, std::to_string(s.batches),
              std::to_string(s.coalesced_dispatches));
  };
  row("run() loop", loop_ms, loop_stats);
  row("submit() stream", stream_ms, stream_stats);
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("per-job latency delta: %+.1f%% (reported, not gated)\n\n",
              loop_ms > 0 ? 100.0 * (stream_ms - loop_ms) / loop_ms : 0.0);

  // ---- gates ------------------------------------------------------------
  gate.check(fingerprint(loop_results) == expected,
             "run() loop results byte-match run_batch()");
  gate.check(fingerprint(stream_results) == expected,
             "coalesced submit() stream results byte-match run_batch()");
  gate.check_eq(static_cast<long long>(jobs.size()),
                static_cast<long long>(loop_stats.batches),
                "run() loop pays one dispatch per job");
  // The dispatch count depends on thread timing, so it rides in an info
  // cell; the gated cell's name must not change from run to run.
  gate.info("coalesced stream dispatches", static_cast<double>(stream_stats.batches));
  gate.check(stream_stats.batches < jobs.size(), "coalesced stream dispatches < job count");
  gate.check(stream_stats.coalesced_dispatches >= 1,
             "at least one dispatch carried more than one job");
  gate.check_eq(static_cast<long long>(jobs.size()),
                static_cast<long long>(stream_stats.jobs_submitted),
                "every stream job went through the admission queue");

  // Attribution: per-ticket analysis sources must sum to the engine's own
  // counters — the invariant the service layer relies on to report
  // per-request work out of shared dispatches.
  std::size_t computed = 0, reused = 0;
  for (const engine::JobResult& r : stream_results) {
    if (r.analysis_source == engine::AnalysisSource::Computed) ++computed;
    else if (r.analysis_source == engine::AnalysisSource::Reused) ++reused;
  }
  gate.check_eq(static_cast<long long>(stream_stats.analyses_computed),
                static_cast<long long>(computed),
                "per-ticket 'computed' attribution sums to the engine counter");
  gate.check_eq(static_cast<long long>(stream_stats.analyses_reused),
                static_cast<long long>(reused),
                "per-ticket 'reused' attribution sums to the engine counter");

  return gate.finish("engine submit stream coalescing");
}

// Engine batch throughput vs. the one-job-at-a-time loop every harness
// used to hand-wire, on an 8-job mixed corpus with duplicate graphs (the
// realistic case: the paper graphs recur across a dozen harnesses).
//
// Measures three executions of the same corpus:
//   sequential  enumerate → select → schedule per job, one after another
//               (per-graph shared-pool fan-out, exactly the status quo)
//   engine      batched: content-addressed dedup + root-sharded
//               enumeration interleaving all jobs on one pool
//   engine/cold engine with the cache disabled (no dedup) — isolates what
//               sharding alone buys
//
// Two further comparisons ride on the same corpus: a second run on one
// engine, which the solved-result memo must answer without solving a
// single job (its compact results document, written by splicing each
// memo entry's pre-rendered text, is timed against writing every member
// again), and a cold run populating a --cache-dir vs. a fresh engine
// (a second process, effectively) warming from it — the warm run must
// recompute nothing and byte-match. A third batch has the serve daemon's
// warm shape: 64 jobs drawn from 23 specs, copies of one spec sharing
// one graph, all answered from memory; its heap allocations on the
// calling thread are counted by this binary's operator new.
//
// Hard gates: engine results equal the sequential results job-for-job,
// engine wall time ≤ sequential wall time (the acceptance criterion),
// results JSON is byte-identical across thread counts 1/2/8, cache
// on/off/disk-warm and memo hits, the warm engine rerun solves zero jobs,
// its spliced results are the rendered bytes and at least 3x faster to
// write, the warm 64-job dispatch allocates at most 3.5 times per job,
// and the warm-disk run recomputes zero analyses.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "antichain/enumerate.hpp"
#include "core/mp_schedule.hpp"
#include "core/select.hpp"
#include "engine/cache_store.hpp"
#include "engine/engine.hpp"
#include "io/result_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workloads/corpus.hpp"

using namespace mpsched;

namespace {

/// Heap allocations made by this thread while `t_counting` is set. Only
/// the calling thread counts, so a pool worker's allocations never land
/// in a count.
thread_local bool t_counting = false;
thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t size) noexcept {
  if (t_counting) ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// Every replaceable non-aligned form, so that no allocation of one pair
// is released by the other (the aligned forms keep their own pair).
void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

/// The serve daemon's warm working set (perfbench's warm_serve specs).
constexpr const char* kWarmSpecs[] = {
    "fir(28)",       "paper_3dft",    "bitonic(8)",  "dct8",
    "layered(42)",   "small_example", "dft3",        "dft5",
    "fft(4)",        "fft(8)",        "direct_dft(3)", "direct_dft(4)",
    "fir(12)",       "iir(3)",        "matmul(3)",   "horner(10)",
    "stencil5(3,3)", "layered(7)",    "layered(21)", "series_parallel(11)",
    "series_parallel(12)", "expr_tree(5)", "expr_tree(9)"};

struct SequentialOutcome {
  std::size_t cycles = 0;
  std::uint64_t antichains = 0;
};

/// The status quo: run the nine-module pipeline per job, one job at a time.
std::vector<SequentialOutcome> run_sequential(const std::vector<engine::Job>& jobs) {
  std::vector<SequentialOutcome> out;
  for (const engine::Job& job : jobs) {
    const SelectionResult selection = select_patterns(job.dfg, job.select);
    const MpScheduleResult scheduled =
        multi_pattern_schedule(job.dfg, selection.patterns, job.schedule);
    out.push_back({scheduled.success ? scheduled.cycles : 0,
                   selection.antichains_enumerated});
  }
  return out;
}

}  // namespace

int main() {
  bench::banner("Engine batch throughput — 8-job mixed corpus",
                "sequential per-job loop vs. batched engine (dedup + root sharding)");

  std::vector<engine::Job> jobs;
  for (const std::string& spec : workloads::demo_corpus_specs())
    jobs.push_back(engine::Job::from_workload(spec));
  std::printf("corpus:");
  for (const engine::Job& job : jobs) std::printf(" %s", job.workload.c_str());
  std::printf("\n\n");

  bench::Gate gate("engine_batch");

  // Warm-up pass so first-touch effects (pool spin-up, page faults) hit
  // neither contestant. Timings take the best of two passes each, so one
  // unlucky scheduling on a loaded CI runner cannot flip the throughput
  // gate below.
  run_sequential({jobs.front()});

  std::vector<SequentialOutcome> seq;
  double seq_ms = 0;
  for (int pass = 0; pass < 2; ++pass) {
    Timer t;
    seq = run_sequential(jobs);
    seq_ms = pass == 0 ? t.millis() : std::min(seq_ms, t.millis());
  }

  engine::BatchResult batched;
  double engine_ms = 0;
  for (int pass = 0; pass < 3; ++pass) {  // engine passes are cheap: one extra
    engine::Engine warm_engine;  // fresh each pass: shared pool, cold cache
    batched = warm_engine.run_batch(jobs);
    engine_ms = pass == 0 ? batched.wall_ms : std::min(engine_ms, batched.wall_ms);
  }

  engine::EngineOptions cold_options;
  cold_options.use_cache = false;
  engine::Engine cold_engine(cold_options);
  const engine::BatchResult cold = cold_engine.run_batch(jobs);
  const double cold_ms = cold.wall_ms;

  TextTable table({"execution", "wall ms", "jobs/s", "analyses computed"});
  const auto row = [&](const char* name, double ms, std::size_t computed) {
    char wall[32], rate[32];
    std::snprintf(wall, sizeof wall, "%.1f", ms);
    std::snprintf(rate, sizeof rate, "%.1f", ms > 0 ? 1e3 * static_cast<double>(jobs.size()) / ms : 0.0);
    table.add(name, wall, rate, std::to_string(computed));
  };
  row("sequential loop", seq_ms, jobs.size());
  row("engine (cache on)", engine_ms, batched.analyses_computed);
  row("engine (cache off)", cold_ms, cold.analyses_computed);
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("speedup vs sequential: %.2fx (cache on), %.2fx (cache off)\n\n",
              seq_ms / engine_ms, seq_ms / cold_ms);

  // ---- correctness gates ------------------------------------------------
  gate.check(batched.succeeded() == jobs.size(), "every engine job succeeded");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    gate.check_eq(static_cast<long long>(seq[i].cycles),
                  static_cast<long long>(batched.jobs[i].cycles),
                  "cycles(" + batched.jobs[i].job + ") engine == sequential");
    gate.check_eq(static_cast<long long>(seq[i].antichains),
                  static_cast<long long>(batched.jobs[i].antichains),
                  "antichains(" + batched.jobs[i].job + ") engine == sequential");
  }
  gate.check(batched.analyses_reused > 0,
             "duplicate graphs were deduplicated (analyses_reused > 0)");

  // ---- the acceptance criterion: throughput >= one-job-at-a-time --------
  // The metric string must be run-independent (it keys the BENCH_*.json
  // trajectory cell); the measured times ride along as info cells.
  std::printf("engine batch %.3f ms vs sequential loop %.3f ms\n", engine_ms, seq_ms);
  gate.info("engine batch ms", engine_ms);
  gate.info("sequential loop ms", seq_ms);
  gate.check(engine_ms <= seq_ms, "engine batch is no slower than the sequential loop");

  // ---- determinism: identical JSON across threads and cache settings ----
  std::string reference = batch_to_json(batched).dump();
  gate.check(batch_to_json(cold).dump() == reference,
             "cache off produces identical results JSON");
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    engine::EngineOptions options;
    options.threads = threads;
    engine::Engine eng(options);
    const engine::BatchResult run = eng.run_batch(jobs);
    gate.check(batch_to_json(run).dump() == reference,
               "threads=" + std::to_string(threads) + " produces identical results JSON");
  }

  // ---- solved-result memo: a rerun on one engine solves nothing ---------
  {
    engine::Engine eng;
    eng.run_batch(jobs);
    const obs::Counter& solves = obs::Registry::global().counter("engine.solve.computed");
    const std::uint64_t before = solves.value();
    const engine::BatchResult rerun = eng.run_batch(jobs);
    const std::uint64_t solved = solves.value() - before;
    std::printf("warm engine rerun: %.3f ms, %llu jobs solved\n", rerun.wall_ms,
                static_cast<unsigned long long>(solved));
    gate.check(batch_to_json(rerun).dump() == reference,
               "warm engine rerun produces identical results JSON");
    gate.check_eq(0, static_cast<long long>(solved),
                  "warm engine rerun solved zero jobs (engine.solve.computed delta)");
    gate.info("warm engine rerun ms", rerun.wall_ms);

    // Compact serialization of the warm results, as served (each result
    // splices its memo entry's text) and with every memo reference
    // dropped (each result writes its members again): best of N passes.
    engine::BatchResult rendered = rerun;
    for (engine::JobResult& r : rendered.jobs) r.memo = nullptr;
    const auto write_us = [](const engine::BatchResult& batch, std::string& text) {
      constexpr int kWrites = 20;
      double best = 0;
      for (int pass = 0; pass < 50; ++pass) {
        Timer t;
        for (int w = 0; w < kWrites; ++w) {
          text.clear();
          JsonWriter out(text);
          write_batch(out, batch);
        }
        const double us = t.millis() * 1e3 / kWrites;
        best = pass == 0 ? us : std::min(best, us);
      }
      return best;
    };
    std::string spliced_text, rendered_text;
    const double spliced_us = write_us(rerun, spliced_text);
    const double rendered_us = write_us(rendered, rendered_text);
    std::printf("warm results write_batch: %.2f us spliced, %.2f us rendered (%.1fx)\n",
                spliced_us, rendered_us, rendered_us / spliced_us);
    gate.check(spliced_text == rendered_text,
               "warm write_batch splicing memo text writes the rendered bytes");
    gate.check_min(3.0, rendered_us / spliced_us,
                   "warm write_batch rendered/spliced time ratio (best of 50)");
    gate.info("warm write_batch spliced us", spliced_us);
    gate.info("warm write_batch rendered us", rendered_us);
  }

  // ---- a warm 64-job dispatch of the daemon's shape ----------------------
  // Every job is a memory hit, so the dispatch runs on this thread (the
  // queue is idle) and wakes no pool worker: the count is the dispatch's
  // own bookkeeping, and it is deterministic. The job vectors are built
  // before each count or timing starts.
  {
    std::vector<engine::Job> specs;
    for (const char* spec : kWarmSpecs) specs.push_back(engine::Job::from_workload(spec));
    std::vector<engine::Job> batch;
    std::mt19937 draw(64);
    for (int i = 0; i < 64; ++i) batch.push_back(specs[draw() % specs.size()]);
    engine::Engine eng;
    eng.run_batch(specs);
    eng.run_batch(batch);  // first-use statics and registry lookups

    std::vector<engine::Job> counted = batch;
    t_allocations = 0;
    t_counting = true;
    const engine::BatchResult warm = eng.run_batch(std::move(counted));
    t_counting = false;
    const double per_job =
        static_cast<double>(t_allocations) / static_cast<double>(batch.size());
    double best_us = 0;
    for (int pass = 0; pass < 200; ++pass) {
      std::vector<engine::Job> timed = batch;
      Timer t;
      eng.run_batch(std::move(timed));
      const double us = t.millis() * 1e3;
      best_us = pass == 0 ? us : std::min(best_us, us);
    }
    std::printf("\nwarm 64-job run_batch (23 specs): %llu allocations (%.2f per job), "
                "best of 200 %.1f us\n",
                static_cast<unsigned long long>(t_allocations), per_job, best_us);
    gate.check(warm.succeeded() == batch.size() && warm.analyses_reused == batch.size(),
               "warm 64-job run_batch: every job succeeded from the cache");
    gate.check_max(3.5, per_job, "warm 64-job run_batch heap allocations per job");
    gate.info("warm 64-job run_batch us (best of 200)", best_us);
  }

  // ---- observability is a spectator: identical JSON with obs toggled ----
  // Tracing and metrics must never leak into results — a traced run and a
  // metrics-dark run both byte-match the reference. Fresh engine each
  // time so the comparison covers a full cold dispatch, not a cache hit.
  {
    obs::set_tracing_enabled(true);
    engine::Engine traced;
    const engine::BatchResult traced_run = traced.run_batch(jobs);
    obs::set_tracing_enabled(false);
    gate.check(batch_to_json(traced_run).dump() == reference,
               "tracing enabled produces identical results JSON");
    gate.check(obs::trace_span_count() > 0,
               "traced run recorded spans into the ring buffer");
    obs::clear_trace();

    obs::set_metrics_enabled(false);
    engine::Engine dark;
    const engine::BatchResult dark_run = dark.run_batch(jobs);
    obs::set_metrics_enabled(true);
    gate.check(batch_to_json(dark_run).dump() == reference,
               "metrics disabled produces identical results JSON");
  }

  // ---- disk tier: cold populate vs. warm second "process" ----------------
  namespace fs = std::filesystem;
  const fs::path cache_dir = fs::path("bench_engine_batch.cache");
  fs::remove_all(cache_dir);
  {
    engine::EngineOptions disk_options;
    disk_options.cache_dir = cache_dir.string();

    engine::Engine disk_cold(disk_options);
    const engine::BatchResult populate = disk_cold.run_batch(jobs);
    const double disk_cold_ms = populate.wall_ms;

    // A fresh engine on the same directory models the second process: its
    // memory tier is empty, so every analysis must come off the disk.
    engine::Engine disk_warm(disk_options);
    const obs::Counter& corrupt = obs::Registry::global().counter("cache.disk.corrupt");
    const std::uint64_t corrupt_before = corrupt.value();
    const engine::BatchResult warm = disk_warm.run_batch(jobs);
    const double disk_warm_ms = warm.wall_ms;

    std::printf("\ndisk cache tier (%zu entries): cold %.1f ms -> warm %.1f ms (%.2fx)\n",
                disk_warm.cache().disk_store()->entry_count(), disk_cold_ms, disk_warm_ms,
                disk_warm_ms > 0 ? disk_cold_ms / disk_warm_ms : 0.0);
    gate.check(batch_to_json(populate).dump() == reference,
               "cold disk-cache run produces identical results JSON");
    gate.check(batch_to_json(warm).dump() == reference,
               "warm disk-cache run produces identical results JSON");
    gate.info("warm disk-cache analyses computed",
              static_cast<double>(warm.analyses_computed));
    gate.check(warm.analyses_computed == 0,
               "warm disk-cache run recomputed zero analyses");
    gate.check(corrupt.value() == corrupt_before, "no cache entry was flagged corrupt");
  }
  fs::remove_all(cache_dir);

  return gate.finish("engine batch throughput + disk tier + determinism");
}

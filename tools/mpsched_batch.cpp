// mpsched_batch — batch scheduling CLI over the engine (src/engine).
//
// Loads a JSON scenario corpus (job list), executes it on the engine, and
// writes a JSON results file. The results are deterministic: the same
// corpus produces byte-identical output at any --threads value and with
// the cache on or off (memory or disk).
//
// Usage:
//   mpsched_batch --corpus FILE --out FILE [--threads N] [--no-cache]
//                 [--cache-dir DIR] [--cache-stats] [--require-full-cache]
//                 [--diagnostics] [--compact] [--transforms LIST]
//                 [--backend NAME]
//   mpsched_batch --demo FILE        write the built-in 8-job demo corpus
//   mpsched_batch --list             list accepted workload specs
//   mpsched_batch --list-workloads   workload specs + corpus groups
//   mpsched_batch --list-backends    registered scheduler backends
//   mpsched_batch --list-transforms  registered graph transforms
//   mpsched_batch --selftest         in-memory corpus round-trip +
//                                    determinism check (used by ctest)
//   mpsched_batch --cache-dir DIR --cache-trim [--trim-age SECONDS]
//                 [--trim-max-bytes BYTES]
//                                    cache maintenance: sweep orphaned
//                                    temp files, drop entries by age,
//                                    evict oldest-first to a size cap
//
// --transforms/--backend override the pipeline of every job in the corpus
// for the run ("run this corpus under that configuration"); per-job specs
// live in the corpus JSON itself.
//
// --cache-dir persists analyses across runs: a second run on the same
// directory recomputes nothing and emits a byte-identical results file.
// --require-full-cache turns that expectation into an exit status (used
// by the shared-cache CI flow).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "engine/cache_store.hpp"
#include "engine/engine.hpp"
#include "io/result_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workloads/corpus.hpp"

using namespace mpsched;
using cli::size_flag;

namespace {

int usage(const char* argv0) {
  std::printf(
      "usage:\n"
      "  %s --corpus FILE --out FILE [--threads N] [--no-cache]\n"
      "     [--cache-dir DIR] [--cache-stats] [--require-full-cache]\n"
      "     [--diagnostics] [--compact]\n"
      "     [--trace-out FILE] [--transforms t1,t2|none] [--backend NAME]\n"
      "  %s --demo FILE\n"
      "  %s --list | --list-workloads | --list-backends | --list-transforms\n"
      "  %s --selftest\n"
      "  %s --cache-dir DIR --cache-trim [--trim-age SECONDS] [--trim-max-bytes BYTES]\n",
      argv0, argv0, argv0, argv0, argv0);
  return 2;
}

std::vector<engine::Job> demo_jobs() {
  std::vector<engine::Job> jobs;
  for (const std::string& spec : workloads::demo_corpus_specs())
    jobs.push_back(engine::Job::from_workload(spec));
  return jobs;
}

void print_summary(const engine::BatchResult& batch) {
  TextTable t({"job", "nodes", "patterns", "cycles", "lower bound", "antichains", "status"});
  for (const engine::JobResult& r : batch.jobs)
    t.add(r.job, std::to_string(r.nodes), join(r.patterns, " "),
          r.success ? std::to_string(r.cycles) : "-", std::to_string(r.critical_path),
          std::to_string(r.antichains), r.success ? "ok" : ("FAILED: " + r.error));
  std::fputs(t.to_string().c_str(), stdout);
  std::printf("%zu/%zu jobs succeeded in %.1f ms (analyses: %zu computed, %zu reused)\n",
              batch.succeeded(), batch.jobs.size(), batch.wall_ms,
              batch.analyses_computed, batch.analyses_reused);
}

/// A registry counter's value (the process runs one engine, so these are
/// its counts).
unsigned long long count(const char* name) {
  return obs::Registry::global().counter(name).value();
}

void print_cache_stats(engine::Engine& eng) {
  const engine::CacheStats m = eng.stats().cache;
  std::printf("cache: analyses %llu hits / %llu misses, graphs %llu hits / %llu "
              "misses\n",
              static_cast<unsigned long long>(m.analysis_hits),
              static_cast<unsigned long long>(m.analysis_misses),
              static_cast<unsigned long long>(m.graph_hits),
              static_cast<unsigned long long>(m.graph_misses));
  if (const engine::CacheStore* store = eng.cache().disk_store()) {
    std::printf("cache: disk %llu hits / %llu misses (%llu corrupt), %llu stores "
                "(%llu failed), %zu entries in %s\n",
                count("cache.disk.hits"), count("cache.disk.misses"),
                count("cache.disk.corrupt"), count("cache.disk.stores"),
                count("cache.disk.store_failures"), store->entry_count(),
                store->directory().c_str());
  }
}

/// Corpus → JSON → corpus → JSON fixpoint, plus engine determinism across
/// thread counts, cache settings and a rerun on the same engine (served by
/// the solved-result memo when the cache is on). Exercises exactly the
/// properties the results file promises.
int selftest() {
  const std::vector<engine::Job> jobs = demo_jobs();

  const std::string corpus1 = corpus_to_json(jobs).dump(2);
  const std::string corpus2 = corpus_to_json(corpus_from_json(Json::parse(corpus1))).dump(2);
  if (corpus1 != corpus2) {
    std::printf("FAIL: corpus JSON round-trip is not a fixpoint\n");
    return 1;
  }
  std::printf("corpus round-trip: %zu jobs, %zu bytes, fixpoint ok\n", jobs.size(),
              corpus1.size());

  std::string reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    for (const bool use_cache : {true, false}) {
      engine::EngineOptions options;
      options.threads = threads;
      options.use_cache = use_cache;
      engine::Engine eng(options);
      for (const int run : {1, 2}) {
        const engine::BatchResult batch = eng.run_batch(jobs);
        if (batch.succeeded() != batch.jobs.size()) {
          std::printf("FAIL: %zu jobs failed (threads=%zu cache=%d run=%d)\n",
                      batch.jobs.size() - batch.succeeded(), threads, use_cache, run);
          return 1;
        }
        const std::string out = batch_to_json(batch).dump(2);
        if (reference.empty()) reference = out;
        if (out != reference) {
          std::printf("FAIL: results differ at threads=%zu cache=%d run=%d\n", threads,
                      use_cache, run);
          return 1;
        }
      }
    }
  }
  std::printf(
      "determinism: identical results JSON across threads {1,2} x cache {on,off} x "
      "runs {1,2}\n");
  std::printf("selftest passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string corpus_path, out_path, demo_path, cache_dir, trace_out, backend;
  std::vector<std::string> transforms;
  std::size_t threads = 0, trim_age = 0, trim_max_bytes = 0;
  bool no_cache = false, diagnostics = false, compact = false, list = false,
       run_selftest = false, cache_stats = false, require_full_cache = false,
       cache_trim = false, have_transforms = false, list_workloads = false,
       list_backends = false, list_transforms = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&] { return cli::flag_value(argc, argv, i, arg); };
      if (arg == "--corpus") corpus_path = value();
      else if (arg == "--out") out_path = value();
      else if (arg == "--demo") demo_path = value();
      else if (arg == "--threads") threads = size_flag(arg, value(), ThreadPool::kMaxThreads);
      else if (arg == "--no-cache") no_cache = true;
      else if (arg == "--cache-dir") cache_dir = value();
      else if (arg == "--cache-stats") cache_stats = true;
      else if (arg == "--cache-trim") cache_trim = true;
      else if (arg == "--trim-age")
        trim_age = size_flag(arg, value(), cli::kMaxTrimAgeSeconds);
      else if (arg == "--trim-max-bytes")
        trim_max_bytes = size_flag(arg, value(), cli::kMaxTrimBytes);
      else if (arg == "--require-full-cache") require_full_cache = true;
      else if (arg == "--diagnostics") diagnostics = true;
      else if (arg == "--compact") compact = true;
      else if (arg == "--trace-out") trace_out = value();
      else if (arg == "--transforms") {
        transforms = cli::transforms_flag(value());
        have_transforms = true;
      }
      else if (arg == "--backend") backend = cli::backend_flag(value());
      else if (arg == "--list") list = true;
      else if (arg == "--list-workloads") list_workloads = true;
      else if (arg == "--list-backends") list_backends = true;
      else if (arg == "--list-transforms") list_transforms = true;
      else if (arg == "--selftest") run_selftest = true;
      else if (arg == "--help" || arg == "-h") return usage(argv[0]);
      else {
        std::printf("error: unknown argument '%s'\n", arg.c_str());
        return usage(argv[0]);
      }
    }

    if (run_selftest) return selftest();

    if (list) {
      std::printf("workload specs:\n");
      for (const std::string& u : workloads::workload_usage())
        std::printf("  %s\n", u.c_str());
      return 0;
    }

    if (list_workloads) {
      std::printf("workload specs:\n");
      for (const std::string& u : workloads::workload_usage())
        std::printf("  %s\n", u.c_str());
      std::printf("corpus groups:\n");
      for (const workloads::CorpusGroup& g : workloads::corpus_groups())
        std::printf("  %-8s %s: %s\n", g.name.c_str(), g.description.c_str(),
                    join(g.specs, ", ").c_str());
      return 0;
    }
    if (list_backends) {
      std::printf("scheduler backends:\n");
      for (const std::string& name : backend_names())
        std::printf("  %-16s %s%s\n", name.c_str(),
                    std::string(get_backend(name).description).c_str(),
                    name == kDefaultBackend ? " (default)" : "");
      return 0;
    }
    if (list_transforms) {
      std::printf("graph transforms:\n");
      for (const std::string& name : transform_names())
        std::printf("  %-24s %s\n", name.c_str(),
                    std::string(get_transform(name).description).c_str());
      return 0;
    }

    if (!demo_path.empty()) {
      const std::vector<engine::Job> jobs = demo_jobs();
      save_corpus(jobs, demo_path);
      std::printf("wrote %zu-job demo corpus to %s\n", jobs.size(), demo_path.c_str());
      return 0;
    }

    if (!cache_trim && (trim_age != 0 || trim_max_bytes != 0)) {
      std::printf("error: --trim-age/--trim-max-bytes require --cache-trim\n");
      return 2;
    }
    if (cache_trim) {
      if (cache_dir.empty()) {
        std::printf("error: --cache-trim requires --cache-dir\n");
        return 2;
      }
      if (!corpus_path.empty() || !out_path.empty()) {
        // Maintenance is its own mode; silently ignoring a supplied
        // corpus would look like a run that never happened.
        std::printf("error: --cache-trim cannot be combined with --corpus/--out\n");
        return 2;
      }
      // Opening the store already sweeps orphaned temp files; trim() then
      // applies the age/size limits to committed entries.
      engine::CacheStore store(cache_dir);
      engine::TrimOptions trim_options;
      trim_options.max_age_seconds = trim_age;
      trim_options.max_total_bytes = trim_max_bytes;
      const engine::TrimResult r = store.trim(trim_options);
      // Report the cumulative sweep counter, not r.temp_swept: the
      // open-time sweep already ran in the constructor above, so trim()'s
      // own sweep usually finds nothing left.
      std::printf("cache-trim: removed %zu entries (%llu bytes), kept %zu (%llu bytes), "
                  "swept %llu stale temp files in %s\n",
                  r.entries_removed, static_cast<unsigned long long>(r.bytes_removed),
                  r.entries_kept, static_cast<unsigned long long>(r.bytes_kept),
                  count("cache.disk.temp_swept"), cache_dir.c_str());
      return 0;
    }

    if (!trace_out.empty() && corpus_path.empty()) {
      std::printf("error: --trace-out requires --corpus (only a batch run records spans)\n");
      return 2;
    }

    if (corpus_path.empty() || out_path.empty()) return usage(argv[0]);

    if (no_cache && !cache_dir.empty()) {
      std::printf("error: --no-cache and --cache-dir are mutually exclusive\n");
      return 2;
    }

    // Tracing covers the whole run (queue waits, per-shard enumeration,
    // cache-tier access) and flushes once after the results are written.
    if (!trace_out.empty()) obs::set_tracing_enabled(true);

    std::vector<engine::Job> jobs = load_corpus(corpus_path);
    // Flag overrides apply to every job: "run this corpus under that
    // pipeline". Per-job pipelines belong in the corpus JSON.
    for (engine::Job& job : jobs) {
      if (!backend.empty()) job.backend = backend;
      if (have_transforms) job.transforms = transforms;
    }
    engine::EngineOptions options;
    options.threads = threads;
    options.use_cache = !no_cache;
    options.cache_dir = cache_dir;
    engine::Engine eng(options);
    const engine::BatchResult batch = eng.run_batch(std::move(jobs));

    print_summary(batch);
    if (cache_stats) print_cache_stats(eng);
    save_batch_results(batch, out_path, diagnostics, compact ? -1 : 2);
    std::printf("results written to %s\n", out_path.c_str());
    if (!trace_out.empty()) {
      if (!obs::write_trace(trace_out)) {
        std::printf("error: cannot write trace to %s\n", trace_out.c_str());
        return 1;
      }
      std::printf("trace written to %s (%zu spans, %zu dropped)\n", trace_out.c_str(),
                  obs::trace_span_count(), obs::trace_dropped());
    }
    if (require_full_cache && batch.analyses_computed != 0) {
      // Results are on disk for diffing; the exit status carries the
      // verdict the shared-cache CI flow asserts on.
      std::printf("error: --require-full-cache, but %zu analyses were computed instead of "
                  "served from the cache\n",
                  batch.analyses_computed);
      return 1;
    }
    return batch.succeeded() == batch.jobs.size() ? 0 : 1;
  } catch (const std::exception& e) {
    std::printf("error: %s\n", e.what());
    return 1;
  }
}

// perfbench_replay — the benchmark's C++ half (run.py drives it).
//
//   perfbench_replay check FILE
//       FILE holds one JSON object per line:
//         {"workload": SPEC, "capacity": C, "pattern_count": P, "result": {...}}
//       where "result" is one job entry of a results document as the
//       program returned it. Each graph is rebuilt from its spec and the
//       returned schedule is re-validated from scratch: node_cycles cover
//       every node, every node runs after its predecessors, every cycle
//       fits one of the returned patterns (paper §4), "cycles" equals the
//       schedule length, and the patterns respect C and Pdef. Then a copy
//       of the first valid entry with one node moved before a predecessor
//       must be rejected. Prints {"checked": N, "bad": [0-based lines],
//       "errors": [first few reasons], "corrupted_rejected": bool}.
//
//   perfbench_replay replay --input FILE --seconds S --trace-out FILE
//                           --results-out FILE
//       Replays one workload's inputs through each layer's public
//       functions, in the engine's phase order, on the calling thread:
//       parse → build → key → prepare → probe → estimate/plan → enumerate
//       shards → merge/store → backend solve → serialize. Every call is
//       wrapped in a span; the spans of one job share its id and sit under
//       a per-job parent span on that job's track. After one untimed
//       warm-up pass, each pass first sends the same inputs through an
//       in-process service::Server::handle_line, then runs a traced and an
//       untraced replay in alternating order (their wall difference is the
//       tracing overhead); passes repeat until S seconds are used, at least
//       one. Every pass starts from an empty cache and repeats the
//       daemon's prefill and untimed warm-up first. Spans stay in memory and
//       are written once, as Chrome trace-event JSON, at the end (the
//       recorder is this file's own, not obs::Span, so spans land on
//       per-job tracks and the program's tracing stays off). Prints
//       per-layer totals as one JSON object; the replayed result of every
//       timed job goes to --results-out, one compact JSON line each, so
//       run.py can compare it with what the program answered.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "antichain/enumerate.hpp"
#include "core/select.hpp"
#include "engine/analysis_cache.hpp"
#include "engine/engine.hpp"
#include "engine/job.hpp"
#include "graph/closure.hpp"
#include "graph/levels.hpp"
#include "io/json.hpp"
#include "io/result_io.hpp"
#include "pattern/parse.hpp"
#include "sched/backend.hpp"
#include "sched/schedule.hpp"
#include "service/server.hpp"
#include "workloads/corpus.hpp"

using namespace mpsched;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// check
// ---------------------------------------------------------------------------

/// Empty when the entry's schedule is valid, else the reason.
std::string check_entry(const Json& entry) {
  const std::string spec = entry.at("workload").as_string();
  const Json& result = entry.at("result");
  if (!result.at("success").as_bool()) return "job failed: " + result.at("error").as_string();
  if (result.at("workload").as_string() != spec) return "result is for another workload";
  const Dfg dfg = workloads::make_workload(spec);
  const Json::Array& cycles = result.at("node_cycles").as_array();
  if (cycles.size() != dfg.node_count()) return "node_cycles size mismatch";
  Schedule schedule(dfg.node_count());
  for (NodeId n = 0; n < dfg.node_count(); ++n) {
    const std::int64_t c = cycles[n].as_int();
    if (c < 0) return "unscheduled node";
    if (c > std::numeric_limits<int>::max()) return "cycle out of range";
    schedule.place(n, static_cast<int>(c));
  }
  const std::size_t capacity = static_cast<std::size_t>(entry.at("capacity").as_int());
  const std::size_t pattern_count =
      static_cast<std::size_t>(entry.at("pattern_count").as_int());
  PatternSet patterns;
  for (const Json& p : result.at("patterns").as_array()) {
    Pattern pattern = parse_pattern(dfg, p.as_string());
    if (pattern.size() > capacity) return "pattern larger than the capacity";
    patterns.insert(std::move(pattern));
  }
  if (patterns.size() > pattern_count) return "more patterns than Pdef";
  const ScheduleValidation v = validate_schedule(dfg, schedule, patterns);
  if (!v.ok) return v.summary();
  if (schedule.cycle_count() != static_cast<std::size_t>(result.at("cycles").as_int()))
    return "cycles differs from the schedule length";
  return {};
}

/// The validator's own test: a copy of a valid entry with one node moved
/// to the cycle before one of its predecessors. True when the copy is
/// rejected; false when it passes or no node can be moved that way.
bool corrupted_copy_rejected(Json entry) {
  const Dfg dfg = workloads::make_workload(entry.at("workload").as_string());
  Json result = entry.at("result");
  Json::Array cycles = result.at("node_cycles").as_array();
  for (NodeId v = 0; v < dfg.node_count(); ++v) {
    for (const NodeId u : dfg.preds(v)) {
      const std::int64_t before = cycles[u].as_int() - 1;
      if (before < 0) continue;
      cycles[v] = Json(before);
      result.set("node_cycles", Json(std::move(cycles)));
      entry.set("result", std::move(result));
      try {
        return !check_entry(entry).empty();
      } catch (const std::exception&) {
        return true;
      }
    }
  }
  return false;
}

int run_check(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::size_t checked = 0;
  Json bad = Json::array();
  Json errors = Json::array();
  std::optional<Json> first_valid;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string why;
    try {
      Json entry = Json::parse(line);
      why = check_entry(entry);
      if (why.empty() && !first_valid) first_valid = std::move(entry);
    } catch (const std::exception& e) {
      why = e.what();
    }
    if (!why.empty()) {
      bad.push_back(checked);
      if (errors.as_array().size() < 5)
        errors.push_back("line " + std::to_string(checked + 1) + ": " + why);
    }
    ++checked;
  }
  Json out = Json::object();
  out.set("checked", checked);
  out.set("bad", std::move(bad));
  out.set("errors", std::move(errors));
  out.set("corrupted_rejected", first_valid && corrupted_copy_rejected(*first_valid));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// replay: span recorder
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name;
  int tid;            ///< 0 = dispatch track, 1 + i = the track of job slot i
  std::uint64_t job;  ///< 0 on the dispatch track
  int depth;          ///< 0 = parent span (dispatch / job), 1 = layer call
  std::int64_t start_ns;
  std::int64_t end_ns;  ///< > start_ns, so a span's B always sorts before its E
};

SpanRecord make_span(const char* name, int tid, std::uint64_t job, int depth,
                     std::int64_t start_ns, std::int64_t end_ns) {
  return {name, tid, job, depth, start_ns, std::max(end_ns, start_ns + 1)};
}

struct LayerTotal {
  double ms = 0.0;
  std::uint64_t calls = 0;
};

/// Per-layer sums, split by whether the work was a timed input or the
/// untimed prefill that warms a serve daemon.
struct Totals {
  std::map<std::string, LayerTotal> layers;
  std::uint64_t jobs = 0;
  std::uint64_t analyses = 0;
  std::uint64_t antichains = 0;
  std::uint64_t shards = 0;
  double imbalance_sum = 0.0;
  std::uint64_t imbalance_units = 0;
  std::uint64_t response_bytes = 0;
  std::uint64_t hits = 0;        ///< probes answered by the cache
  std::uint64_t misses = 0;
  std::uint64_t duplicates = 0;  ///< misses deduplicated within a dispatch
  double select_ms = 0.0;        ///< the backend's own select/schedule timers
  double schedule_ms = 0.0;
};

class Recorder {
 public:
  /// Off → calls run unwrapped: the untraced baseline for the overhead.
  bool on = true;
  /// Off → spans are timed into `totals` but not kept for the trace file
  /// (the first traced pass is kept; later passes only add samples).
  bool keep = true;
  Totals* totals = nullptr;
  std::vector<SpanRecord> spans;

  template <class F>
  decltype(auto) span(const char* name, int tid, std::uint64_t job, F&& f) {
    if (!on) return f();
    struct Close {
      Recorder& self;
      const char* name;
      int tid;
      std::uint64_t job;
      std::int64_t start;
      ~Close() {
        const std::int64_t end = now_ns();
        if (self.keep) self.spans.push_back(make_span(name, tid, job, 1, start, end));
        LayerTotal& t = self.totals->layers[name];
        t.ms += static_cast<double>(end - start) / 1e6;
        ++t.calls;
      }
    } close{*this, name, tid, job, now_ns()};
    return f();
  }
};

/// Chrome trace-event JSON: B/E pairs sorted by time; at equal times ends
/// come before begins, inner ends before outer ends and outer begins
/// before inner begins, so every track nests.
Json trace_json(const std::vector<SpanRecord>& spans) {
  struct Event {
    std::int64_t ts;
    int order;  ///< 0 = E, 1 = B
    int depth_key;
    std::size_t span;
  };
  std::vector<Event> events;
  events.reserve(spans.size() * 2);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    events.push_back({spans[i].start_ns, 1, spans[i].depth, i});
    events.push_back({spans[i].end_ns, 0, -spans[i].depth, i});
  }
  std::stable_sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.order != b.order) return a.order < b.order;
    return a.depth_key < b.depth_key;
  });
  const std::int64_t epoch = events.empty() ? 0 : events.front().ts;
  Json arr = Json::array();
  for (const Event& e : events) {
    const SpanRecord& s = spans[e.span];
    Json ev = Json::object();
    ev.set("name", s.name);
    ev.set("cat", "perfbench");
    ev.set("ph", e.order == 1 ? "B" : "E");
    ev.set("ts", static_cast<double>(e.ts - epoch) / 1e3);
    ev.set("pid", 1);
    ev.set("tid", s.tid);
    if (e.order == 1 && s.job != 0) {
      Json args = Json::object();
      args.set("job", s.job);
      ev.set("args", std::move(args));
    }
    arr.push_back(std::move(ev));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(arr));
  doc.set("displayTimeUnit", "ms");
  return doc;
}

// ---------------------------------------------------------------------------
// replay: one dispatch through the layers, in the engine's phase order
// ---------------------------------------------------------------------------

/// Shards per analysis the daemon plans: (pool threads + dispatcher) ×
/// EngineOptions::shards_per_thread, with the --threads the bench passes.
std::size_t target_shards(std::size_t threads) {
  return (threads + 1) * engine::EngineOptions{}.shards_per_thread;
}

EnumerateOptions enumerate_options_for(const SelectOptions& select) {
  EnumerateOptions eo;
  eo.max_size = select.capacity;
  eo.span_limit = select.span_limit;
  eo.collect_members = false;
  eo.parallel = false;
  return eo;
}

class Replayer {
 public:
  Replayer(Recorder& rec, std::size_t threads) : rec_(rec), shards_(target_shards(threads)) {}

  /// Drops both memo tiers, as a fresh daemon or batch process starts.
  void reset_cache() {
    cache_ = std::make_unique<engine::AnalysisCache>();
    prepared_.clear();
  }

  /// Replays one document (a corpus file or a submit request line) as one
  /// dispatch. Returns the compact result JSON of each job.
  std::vector<std::string> dispatch(const std::string& text);

 private:
  struct Unit {
    engine::CacheKey key;
    std::size_t exemplar = 0;
    std::vector<std::vector<NodeId>> shard_roots;
    std::vector<AntichainAnalysis> shard_results;
    std::vector<double> shard_ms;
    std::shared_ptr<const AntichainAnalysis> result;
  };

  Recorder& rec_;
  std::size_t shards_;
  std::uint64_t next_job_ = 1;
  std::unique_ptr<engine::AnalysisCache> cache_ = std::make_unique<engine::AnalysisCache>();
  std::unordered_map<engine::CacheKey, std::shared_ptr<const engine::PreparedGraph>,
                     engine::CacheKeyHash>
      prepared_;
};

std::vector<std::string> Replayer::dispatch(const std::string& text) {
  Totals& totals = *rec_.totals;
  const std::size_t first_span = rec_.spans.size();
  const std::int64_t dispatch_start = now_ns();
  const Json doc = rec_.span("io.parse", 0, 0, [&] { return Json::parse(text); });
  // A corpus file holds "jobs" at the top; a submit request nests it.
  const Json* corpus = doc.find("corpus");
  const Json::Array& entries = (corpus != nullptr ? *corpus : doc).at("jobs").as_array();
  const std::size_t n = entries.size();
  std::vector<std::uint64_t> ids(n);
  for (std::uint64_t& id : ids) id = next_job_++;
  auto tid = [](std::size_t i) { return static_cast<int>(i) + 1; };

  std::vector<engine::Job> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs[i] = rec_.span("io.parse", tid(i), ids[i], [&] { return job_from_json(entries[i], i); });
    // job_from_json builds the graph itself; this call times that build
    // on its own, and run.py takes it out of io.parse's self time.
    rec_.span("workloads.build", tid(i), ids[i],
              [&] { return workloads::make_workload(jobs[i].workload).node_count(); });
  }

  // Phase 0: content keys, levels + closure per distinct graph, probe.
  std::vector<engine::CacheKey> graph_keys(n), keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [graph_key, key] = rec_.span("engine.key", tid(i), ids[i], [&] {
      return engine::AnalysisCache::content_keys(
          jobs[i].dfg, jobs[i].select.generation, jobs[i].select.capacity,
          jobs[i].select.span_limit,
          engine::pipeline_cache_tag(jobs[i].transforms, jobs[i].backend));
    });
    graph_keys[i] = graph_key;
    keys[i] = key;
  }
  std::vector<std::shared_ptr<const engine::PreparedGraph>> prepared(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto it = prepared_.find(graph_keys[i]);
    if (it == prepared_.end()) {
      auto graph = rec_.span("graph.prepare", tid(i), ids[i], [&] {
        return std::make_shared<const engine::PreparedGraph>(
            engine::PreparedGraph{compute_levels(jobs[i].dfg), Reachability(jobs[i].dfg)});
      });
      it = prepared_.emplace(graph_keys[i], std::move(graph)).first;
    }
    prepared[i] = it->second;
  }
  std::vector<std::shared_ptr<const AntichainAnalysis>> analysis(n);
  std::vector<Unit> units;
  std::vector<std::size_t> unit_of(n, SIZE_MAX);
  std::unordered_map<engine::CacheKey, std::size_t, engine::CacheKeyHash> unit_by_key;
  for (std::size_t i = 0; i < n; ++i) {
    analysis[i] =
        rec_.span("engine.probe", tid(i), ids[i], [&] { return cache_->find_analysis(keys[i]); });
    if (analysis[i] != nullptr) {
      ++totals.hits;
      continue;
    }
    ++totals.misses;
    const auto [it, inserted] = unit_by_key.try_emplace(keys[i], units.size());
    if (inserted) {
      units.push_back(Unit{});
      units.back().key = keys[i];
      units.back().exemplar = i;
    } else {
      ++totals.duplicates;  // reused within the dispatch, as the engine does
    }
    unit_of[i] = it->second;
  }

  // Phase 1: plan every unit, then enumerate every shard of every unit.
  for (Unit& unit : units) {
    const std::size_t e = unit.exemplar;
    EnumerateOptions estimate = enumerate_options_for(jobs[e].select);
    estimate.parallel = true;  // as the engine's dispatcher does
    const std::vector<std::uint64_t> costs = rec_.span("antichain.estimate", tid(e), ids[e], [&] {
      return estimate_root_costs(jobs[e].dfg, prepared[e]->levels, prepared[e]->reach, estimate);
    });
    unit.shard_roots = rec_.span("engine.plan", tid(e), ids[e],
                                 [&] { return engine::pack_roots_by_cost(costs, shards_); });
    unit.shard_results.resize(unit.shard_roots.size());
    unit.shard_ms.resize(unit.shard_roots.size());
  }
  for (Unit& unit : units) {
    const std::size_t e = unit.exemplar;
    std::atomic<std::uint64_t> enumerated{0};
    for (std::size_t s = 0; s < unit.shard_roots.size(); ++s) {
      const std::int64_t start = now_ns();
      unit.shard_results[s] = rec_.span("antichain.enumerate", tid(e), ids[e], [&] {
        return enumerate_antichain_roots(jobs[e].dfg, prepared[e]->levels, prepared[e]->reach,
                                         enumerate_options_for(jobs[e].select),
                                         unit.shard_roots[s], &enumerated);
      });
      unit.shard_ms[s] = static_cast<double>(now_ns() - start) / 1e6;
    }
  }
  for (Unit& unit : units) {
    const std::size_t e = unit.exemplar;
    const std::size_t shard_count = unit.shard_results.size();
    unit.result = rec_.span("antichain.merge", tid(e), ids[e], [&] {
      return std::make_shared<const AntichainAnalysis>(
          shard_count == 1 ? std::move(unit.shard_results.front())
                           : merge_antichain_analyses(std::move(unit.shard_results),
                                                      jobs[e].dfg.node_count()));
    });
    rec_.span("engine.store", tid(e), ids[e], [&] {
      cache_->store_analysis(unit.key, unit.result);
      return 0;
    });
    ++totals.analyses;
    totals.antichains += unit.result->total;
    totals.shards += shard_count;
    if (shard_count > 1) {
      double sum = 0.0, worst = 0.0;
      for (const double ms : unit.shard_ms) {
        sum += ms;
        worst = std::max(worst, ms);
      }
      if (sum > 0.0) {
        totals.imbalance_sum += worst / (sum / static_cast<double>(shard_count));
        ++totals.imbalance_units;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    if (unit_of[i] != SIZE_MAX) analysis[i] = units[unit_of[i]].result;

  // Phase 2: the scheduler backend. Its result carries its own timers
  // around select_patterns and multi_pattern_schedule, which give the
  // core layer's share without running either call a second time.
  std::vector<std::string> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const engine::Job& job = jobs[i];
    BackendRequest request;
    request.dfg = &job.dfg;
    request.analysis = analysis[i].get();
    request.select = job.select;
    request.schedule = job.schedule;
    request.refine = job.refine;
    request.refinement = job.refinement;
    request.trace_detail = job.workload;
    const BackendResult solved = rec_.span("sched.solve", tid(i), ids[i], [&] {
      return get_backend(job.backend).solve(request);
    });
    if (rec_.on) {
      totals.select_ms += solved.select_ms;
      totals.schedule_ms += solved.schedule_ms;
    }

    engine::JobResult r;
    r.job = job.resolved_name();
    r.workload = job.workload;
    r.backend = job.backend;
    r.transforms = job.transforms;
    r.nodes = job.dfg.node_count();
    r.edges = job.dfg.edge_count();
    r.critical_path = prepared[i]->levels.critical_path_length();
    r.antichains = solved.antichains;
    r.candidate_patterns = solved.candidate_patterns;
    r.refine_swaps = solved.refine_swaps;
    r.success = solved.success;
    if (!solved.success) {
      r.error = solved.error;
    } else {
      r.cycles = solved.cycles;
      for (const Pattern& p : solved.patterns) r.patterns.push_back(p.to_string(job.dfg));
      r.node_cycles.resize(job.dfg.node_count());
      for (NodeId v = 0; v < job.dfg.node_count(); ++v)
        r.node_cycles[v] = solved.schedule.cycle_of(v);
    }
    out[i] = rec_.span("io.serialize", tid(i), ids[i], [&] { return result_to_json(r).dump(); });
    totals.response_bytes += out[i].size();
  }
  totals.jobs += n;

  if (rec_.on && rec_.keep) {
    // Parent spans: the dispatch on track 0, and one per job spanning its
    // first to its last layer call (the engine runs phases across the
    // batch, so a job's calls interleave with its siblings').
    std::map<std::uint64_t, SpanRecord> parents;
    for (std::size_t k = first_span; k < rec_.spans.size(); ++k) {
      const SpanRecord& s = rec_.spans[k];
      if (s.job == 0) continue;
      auto [it, inserted] =
          parents.try_emplace(s.job, make_span("job", s.tid, s.job, 0, s.start_ns, s.end_ns));
      if (!inserted) {
        it->second.start_ns = std::min(it->second.start_ns, s.start_ns);
        it->second.end_ns = std::max(it->second.end_ns, s.end_ns);
      }
    }
    for (const auto& [id, parent] : parents) rec_.spans.push_back(parent);
    rec_.spans.push_back(make_span("dispatch", 0, 0, 0, dispatch_start, now_ns()));
  }
  return out;
}

struct ReplayInput {
  std::size_t threads = 2;
  std::string prefill;               ///< fills the cache, as the daemon's prefill
  std::vector<std::string> warmup;   ///< untimed requests before the timed ones
  std::vector<std::string> docs;     ///< timed replay inputs
  std::vector<std::string> lines;    ///< the same inputs as serve request lines
};

ReplayInput load_input(const std::string& path) {
  const Json doc = load_json(path);
  ReplayInput in;
  in.threads = static_cast<std::size_t>(doc.at("threads").as_int());
  if (const Json* p = doc.find("prefill"); p != nullptr && !p->is_null())
    in.prefill = p->as_string();
  for (const Json& w : doc.at("warmup").as_array()) in.warmup.push_back(w.as_string());
  for (const Json& d : doc.at("docs").as_array()) in.docs.push_back(d.as_string());
  for (const Json& l : doc.at("lines").as_array()) in.lines.push_back(l.as_string());
  return in;
}

Json totals_json(const Totals& t) {
  Json layers = Json::object();
  for (const auto& [name, total] : t.layers) {
    Json l = Json::object();
    l.set("ms", total.ms);
    l.set("calls", total.calls);
    layers.set(name, std::move(l));
  }
  Json j = Json::object();
  j.set("layers", std::move(layers));
  j.set("jobs", t.jobs);
  j.set("analyses", t.analyses);
  j.set("antichains", t.antichains);
  j.set("shards", t.shards);
  j.set("imbalance_sum", t.imbalance_sum);
  j.set("imbalance_units", t.imbalance_units);
  j.set("response_bytes", t.response_bytes);
  j.set("hits", t.hits);
  j.set("misses", t.misses);
  j.set("duplicates", t.duplicates);
  j.set("select_ms", t.select_ms);
  j.set("schedule_ms", t.schedule_ms);
  return j;
}

/// Sends the inputs through an in-process service front end — a fresh
/// server and engine, warmed by the same prefill — timing handle_line plus
/// the dump the daemon does before writing the socket. Appends one time per
/// line (and, given `spans`, one span each); returns jobs per dispatch.
double measure_handles(const ReplayInput& in, std::vector<SpanRecord>* spans,
                       std::vector<double>& handle_ms) {
  service::ServerOptions options;
  options.engine.threads = in.threads;
  service::Server server(options);
  if (!in.prefill.empty()) server.handle_line(in.prefill);
  for (const std::string& line : in.warmup) server.handle_line(line);
  const engine::EngineStats before = server.engine().stats();
  for (const std::string& line : in.lines) {
    const std::int64_t start = now_ns();
    const std::string response = server.handle_line(line).dump(-1);
    const std::int64_t end = now_ns();
    handle_ms.push_back(static_cast<double>(end - start) / 1e6);
    if (spans != nullptr) spans->push_back(make_span("service.handle", 0, 0, 0, start, end));
  }
  const engine::EngineStats after = server.engine().stats();
  return static_cast<double>(after.jobs - before.jobs) /
         static_cast<double>(std::max<std::uint64_t>(1, after.batches - before.batches));
}

int run_replay(const std::string& input_path, double seconds, const std::string& trace_out,
               const std::string& results_out) {
  const ReplayInput in = load_input(input_path);
  Totals prefill, timed, sink;
  Recorder rec;
  Replayer replayer(rec, in.threads);
  double traced_ms = 0.0, untraced_ms = 0.0;
  std::vector<double> handle_ms;
  double jobs_per_dispatch = 0.0;
  std::vector<std::string> first_results;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  std::size_t passes = 0;

  // One pass over the inputs in the daemon's order: prefill, untimed
  // warm-up, timed docs. Returns the timed docs' wall time in ms.
  auto pass = [&](bool traced) {
    replayer.reset_cache();
    rec.keep = traced && passes == 0;
    rec.on = traced;
    rec.totals = traced ? &prefill : &sink;
    if (!in.prefill.empty()) replayer.dispatch(in.prefill);
    rec.on = false;
    rec.totals = &sink;
    for (const std::string& text : in.warmup) replayer.dispatch(text);
    rec.on = traced;
    rec.totals = traced ? &timed : &sink;
    const std::int64_t start = now_ns();
    for (const std::string& text : in.docs) {
      std::vector<std::string> results = replayer.dispatch(text);
      if (traced && passes == 0)
        first_results.insert(first_results.end(), results.begin(), results.end());
    }
    return static_cast<double>(now_ns() - start) / 1e6;
  };

  pass(false);  // untimed warm-up of the replay process itself

  do {
    jobs_per_dispatch = measure_handles(in, passes == 0 ? &rec.spans : nullptr, handle_ms);
    // Alternate which replay goes first, so a drift in machine speed
    // within a pass does not read as tracing overhead.
    if (passes % 2 == 0) {
      traced_ms += pass(true);
      untraced_ms += pass(false);
    } else {
      untraced_ms += pass(false);
      traced_ms += pass(true);
    }

    ++passes;
  } while (Clock::now() < deadline && passes < 10);

  {
    std::ofstream results(results_out);
    for (const std::string& r : first_results) results << r << '\n';
    if (!results) throw std::runtime_error("cannot write " + results_out);
  }
  save_json(trace_json(rec.spans), trace_out, -1);

  Json out = Json::object();
  out.set("passes", passes);
  out.set("spans", rec.spans.size());
  out.set("timed", totals_json(timed));
  out.set("prefill", totals_json(prefill));
  out.set("traced_ms", traced_ms);
  out.set("untraced_ms", untraced_ms);
  Json handles = Json::array();
  for (const double ms : handle_ms) handles.push_back(ms);
  out.set("handle_ms", std::move(handles));
  out.set("jobs_per_dispatch", jobs_per_dispatch);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  perfbench_replay check FILE\n"
               "  perfbench_replay replay --input FILE --seconds S --trace-out FILE "
               "--results-out FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 3 && std::string(argv[1]) == "check") return run_check(argv[2]);
    if (argc >= 2 && std::string(argv[1]) == "replay") {
      std::string input, trace_out, results_out;
      double seconds = 1.0;
      for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--input") input = value;
        else if (flag == "--seconds") seconds = std::stod(value);
        else if (flag == "--trace-out") trace_out = value;
        else if (flag == "--results-out") results_out = value;
        else return usage();
      }
      if (input.empty() || trace_out.empty() || results_out.empty()) return usage();
      return run_replay(input, seconds, trace_out, results_out);
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_replay: %s\n", e.what());
    return 1;
  }
}

#include "io/result_io.hpp"

#include <limits>
#include <stdexcept>

#include "graph/transform.hpp"
#include "io/dfg_io.hpp"
#include "sched/backend.hpp"
#include "util/registry.hpp"

namespace mpsched {

namespace {

using engine::BatchResult;
using engine::Job;
using engine::JobResult;

// -- enum wire names --------------------------------------------------------

constexpr WireName<SizeBonus> kSizeBonuses[] = {
    {"quadratic", SizeBonus::Quadratic}, {"linear", SizeBonus::Linear}, {"none", SizeBonus::None}};
constexpr WireName<PatternGeneration> kGenerations[] = {
    {"enumeration", PatternGeneration::SpanLimitedEnumeration},
    {"analytic", PatternGeneration::LevelAnalytic}};
constexpr WireName<PatternRule> kRules[] = {{"F1", PatternRule::F1CoverCount},
                                            {"F2", PatternRule::F2PrioritySum}};
constexpr WireName<TieBreak> kTieBreaks[] = {{"stable", TieBreak::Stable},
                                             {"node_id_asc", TieBreak::NodeIdAsc},
                                             {"node_id_desc", TieBreak::NodeIdDesc},
                                             {"random", TieBreak::Random}};

// -- writers --------------------------------------------------------------

Json select_to_json(const SelectOptions& o) {
  Json j = Json::object();
  j.set("pattern_count", o.pattern_count);
  j.set("capacity", o.capacity);
  j.set("epsilon", o.epsilon);
  j.set("alpha", o.alpha);
  j.set("size_bonus", name_of(kSizeBonuses, o.size_bonus));
  j.set("span_limit", o.span_limit ? Json(std::int64_t{*o.span_limit}) : Json(nullptr));
  j.set("generation", name_of(kGenerations, o.generation));
  return j;
}

Json schedule_to_json(const MpScheduleOptions& o) {
  Json j = Json::object();
  j.set("rule", name_of(kRules, o.rule));
  j.set("tie_break", name_of(kTieBreaks, o.tie_break));
  // Bit-cast through int64 (appears negative above 2^63-1) so every
  // uint64 seed survives the round-trip; Json(uint64_t) would demote
  // out-of-int64-range values to a lossy double.
  j.set("seed", static_cast<std::int64_t>(o.seed));
  j.set("random_pattern_ties", o.random_pattern_ties);
  return j;
}

}  // namespace

Json job_to_json(const Job& job) {
  Json j = Json::object();
  // Normalize empty names at write time (same back-fill the reader and the
  // engine apply), so save → load → save is a byte-exact fixpoint.
  j.set("name", job.resolved_name());
  if (!job.workload.empty())
    j.set("workload", job.workload);
  else
    j.set("dfg", dfg_to_text(job.dfg));
  j.set("select", select_to_json(job.select));
  j.set("schedule", schedule_to_json(job.schedule));
  // Pipeline spec, always explicit (like select/schedule): the stack as a
  // string array, the backend by registry key.
  Json transforms = Json::array();
  for (const std::string& t : job.transforms) transforms.push_back(t);
  j.set("transforms", std::move(transforms));
  j.set("backend", job.backend);
  j.set("refine", job.refine);
  if (job.refine) {
    Json r = Json::object();
    r.set("candidate_pool", job.refinement.candidate_pool);
    r.set("max_sweeps", job.refinement.max_sweeps);
    j.set("refinement", std::move(r));
  }
  return j;
}

// -- readers --------------------------------------------------------------

void reject_unknown_keys(const Json& obj, std::initializer_list<const char*> allowed,
                         const std::string& where) {
  for (const auto& [key, value] : obj.as_object()) {
    bool known = false;
    for (const char* a : allowed) known = known || key == a;
    if (!known)
      throw std::invalid_argument(where + ": unknown key '" + key + "'");
  }
}

namespace {

/// A select or refinement integer, range-checked to [0, INT_MAX] before
/// the narrowing casts below, so a negative or huge value fails the parse
/// instead of wrapping into a silently different (or unbounded) job.
/// `where` names the block ("job #0.select").
int option_int(const Json& v, const std::string& where, const char* key) {
  const std::int64_t x = v.as_int();
  if (x < 0 || x > std::numeric_limits<int>::max())
    throw std::invalid_argument(where + ": " + key + " " + std::to_string(x) +
                                " is out of range");
  return static_cast<int>(x);
}

SelectOptions select_from_json(const Json& j, const std::string& where) {
  const std::string block = where + ".select";
  reject_unknown_keys(j, {"pattern_count", "capacity", "epsilon", "alpha", "size_bonus",
                          "span_limit", "generation"},
                      block);
  SelectOptions o;
  if (const Json* v = j.find("pattern_count"))
    o.pattern_count = static_cast<std::size_t>(option_int(*v, block, "pattern_count"));
  if (const Json* v = j.find("capacity"))
    o.capacity = static_cast<std::size_t>(option_int(*v, block, "capacity"));
  if (const Json* v = j.find("epsilon")) o.epsilon = v->as_double();
  if (const Json* v = j.find("alpha")) o.alpha = v->as_double();
  if (const Json* v = j.find("size_bonus"))
    o.size_bonus = value_of(kSizeBonuses, v->as_string(), "unknown size_bonus");
  if (const Json* v = j.find("span_limit"))
    o.span_limit = v->is_null() ? std::nullopt
                                : std::optional<int>(option_int(*v, block, "span_limit"));
  if (const Json* v = j.find("generation"))
    o.generation = value_of(kGenerations, v->as_string(), "unknown generation");
  return o;
}

MpScheduleOptions schedule_from_json(const Json& j, const std::string& where) {
  reject_unknown_keys(j, {"rule", "tie_break", "seed", "random_pattern_ties"},
                      where + ".schedule");
  MpScheduleOptions o;
  if (const Json* v = j.find("rule")) o.rule = value_of(kRules, v->as_string(), "unknown rule");
  if (const Json* v = j.find("tie_break"))
    o.tie_break = value_of(kTieBreaks, v->as_string(), "unknown tie_break");
  if (const Json* v = j.find("seed")) o.seed = static_cast<std::uint64_t>(v->as_int());
  if (const Json* v = j.find("random_pattern_ties")) o.random_pattern_ties = v->as_bool();
  return o;
}

}  // namespace

Job job_from_json(const Json& j, std::size_t index, GraphIntern& graphs) {
  const std::string where =
      "job #" + std::to_string(index) +
      (j.find("name") != nullptr ? " ('" + j.at("name").as_string() + "')" : "");
  reject_unknown_keys(j,
                      {"name", "workload", "dfg", "select", "schedule", "transforms",
                       "backend", "refine", "refinement"},
                      where);

  Job job;
  if (const Json* v = j.find("name")) job.name = v->as_string();
  const Json* workload = j.find("workload");
  const Json* dfg_text = j.find("dfg");
  if ((workload != nullptr) == (dfg_text != nullptr))
    throw std::invalid_argument(where + ": exactly one of 'workload' / 'dfg' is required");
  if (workload != nullptr) {
    job.workload = workload->as_string();
    job.dfg = graphs.workload(job.workload);
  } else {
    job.dfg = graphs.text(dfg_text->as_string());
  }
  if (job.name.empty()) job.name = workload != nullptr ? job.workload : job.dfg.name();

  if (const Json* v = j.find("select")) job.select = select_from_json(*v, where);
  if (const Json* v = j.find("schedule")) job.schedule = schedule_from_json(*v, where);
  if (const Json* v = j.find("transforms")) {
    // Validate against the registry at parse time: a corpus naming an
    // unknown pass should fail loudly here, not per-job at run time.
    for (const Json& t : v->as_array()) {
      const std::string name = t.as_string();
      if (find_transform(name) == nullptr)
        throw std::invalid_argument(where + ": unknown transform '" + name + "'");
      job.transforms.push_back(name);
    }
  }
  if (const Json* v = j.find("backend")) {
    job.backend = v->as_string();
    if (find_backend(job.backend) == nullptr)
      throw std::invalid_argument(where + ": unknown backend '" + job.backend + "'");
  }
  if (const Json* v = j.find("refine")) job.refine = v->as_bool();
  if (const Json* v = j.find("refinement")) {
    // A refinement block on an unrefined job would be parsed and then
    // silently dropped on re-serialization; that is a typo, not a request.
    if (!job.refine)
      throw std::invalid_argument(where + ": 'refinement' requires \"refine\": true");
    const std::string block = where + ".refinement";
    reject_unknown_keys(*v, {"candidate_pool", "max_sweeps"}, block);
    if (const Json* p = v->find("candidate_pool"))
      job.refinement.candidate_pool =
          static_cast<std::size_t>(option_int(*p, block, "candidate_pool"));
    if (const Json* p = v->find("max_sweeps"))
      job.refinement.max_sweeps = static_cast<std::size_t>(option_int(*p, block, "max_sweeps"));
  }
  return job;
}

Job job_from_json(const Json& j, std::size_t index) {
  GraphIntern graphs;
  return job_from_json(j, index, graphs);
}

namespace {

/// A solved result's members, written into the open object.
void write_solved(JsonWriter& out, const engine::SolvedResult& s) {
  out.field("success", s.success);
  if (!s.success) out.field("error", s.error);
  out.key("patterns").begin_array();
  for (const std::string& p : s.patterns) out.value(p);
  out.end_array();
  out.field("cycles", std::uint64_t{s.cycles});
  out.field("critical_path", s.critical_path);
  out.field("antichains", s.antichains);
  out.field("candidate_patterns", std::uint64_t{s.candidate_patterns});
  out.field("refine_swaps", std::uint64_t{s.refine_swaps});
  out.key("node_cycles").begin_array();
  for (const int c : s.node_cycles) out.value(c);
  out.end_array();
}

}  // namespace

std::string render_solved(const engine::SolvedResult& solved) {
  std::string text;
  JsonWriter out(text);
  out.begin_object();
  write_solved(out, solved);
  out.end_object();
  return text.substr(1, text.size() - 2);
}

void write_result(JsonWriter& out, const JobResult& r, bool include_diagnostics) {
  out.begin_object();
  out.field("job", r.job);
  out.field("workload", r.workload);
  // Pipeline echo, only when non-default: default-pipeline results files
  // stay byte-identical to pre-pipeline releases (a gated property).
  if (!r.backend.empty() && r.backend != kDefaultBackend) out.field("backend", r.backend);
  if (!r.transforms.empty()) {
    out.key("transforms").begin_array();
    for (const std::string& t : r.transforms) out.value(t);
    out.end_array();
  }
  out.field("nodes", std::uint64_t{r.nodes});
  out.field("edges", std::uint64_t{r.edges});
  // The entry's text is render_solved of the entry's fields: it stands in
  // for this result's members while they still match, on a compact writer.
  if (r.memo == nullptr || !engine::same_solved(r, r.memo->result) ||
      !out.splice(r.memo->text))
    write_solved(out, r);
  if (include_diagnostics) {
    out.field("cache_hit", r.analysis_cache_hit);
    out.key("timings").begin_object();
    out.field("prepare_ms", r.timings.prepare_ms);
    out.field("analysis_ms", r.timings.analysis_ms);
    out.field("select_ms", r.timings.select_ms);
    out.field("schedule_ms", r.timings.schedule_ms);
    out.field("refine_ms", r.timings.refine_ms);
    out.end_object();
    // Measured per-shard wall times (exemplar-charged, like analysis_ms);
    // omitted when empty — cache hits and duplicates ran no shards.
    if (!r.shard_ms.empty()) {
      out.key("shard_ms").begin_array();
      for (const double ms : r.shard_ms) out.value(ms);
      out.end_array();
    }
  }
  out.end_object();
}

Json result_to_json(const JobResult& r, bool include_diagnostics) {
  std::string text;
  JsonWriter out(text);
  write_result(out, r, include_diagnostics);
  return Json::parse(text);
}

Json corpus_to_json(const std::vector<Job>& jobs) {
  Json doc = Json::object();
  doc.set("schema", kCorpusSchema);
  Json arr = Json::array();
  for (const Job& job : jobs) arr.push_back(job_to_json(job));
  doc.set("jobs", std::move(arr));
  return doc;
}

std::vector<Job> corpus_from_json(const Json& doc, GraphIntern& graphs) {
  if (const Json* schema = doc.find("schema"); schema == nullptr ||
      schema->as_string() != kCorpusSchema)
    throw std::invalid_argument(std::string("corpus: expected schema '") + kCorpusSchema +
                                "'");
  std::vector<Job> jobs;
  const Json::Array& arr = doc.at("jobs").as_array();
  jobs.reserve(arr.size());
  for (std::size_t i = 0; i < arr.size(); ++i) jobs.push_back(job_from_json(arr[i], i, graphs));
  return jobs;
}

std::vector<Job> corpus_from_json(const Json& doc) {
  GraphIntern graphs;
  return corpus_from_json(doc, graphs);
}

void write_batch(JsonWriter& out, const BatchResult& batch, bool include_diagnostics) {
  out.begin_object();
  out.field("schema", kResultsSchema);
  out.key("summary").begin_object();
  out.field("jobs", std::uint64_t{batch.jobs.size()});
  out.field("succeeded", std::uint64_t{batch.succeeded()});
  out.end_object();
  if (include_diagnostics) {
    out.key("diagnostics").begin_object();
    out.field("wall_ms", batch.wall_ms);
    out.field("analyses_computed", std::uint64_t{batch.analyses_computed});
    out.field("analyses_reused", std::uint64_t{batch.analyses_reused});
    out.field("cache_graph_hits", batch.cache_stats.graph_hits);
    out.field("cache_analysis_hits", batch.cache_stats.analysis_hits);
    out.field("cache_analysis_misses", batch.cache_stats.analysis_misses);
    out.end_object();
  }
  out.key("jobs").begin_array();
  for (const JobResult& r : batch.jobs) write_result(out, r, include_diagnostics);
  out.end_array();
  out.end_object();
}

Json batch_to_json(const BatchResult& batch, bool include_diagnostics) {
  std::string text;
  JsonWriter out(text);
  write_batch(out, batch, include_diagnostics);
  return Json::parse(text);
}

void save_corpus(const std::vector<Job>& jobs, const std::string& path) {
  save_json(corpus_to_json(jobs), path);
}

std::vector<Job> load_corpus(const std::string& path) {
  return corpus_from_json(load_json(path));
}

void save_batch_results(const BatchResult& batch, const std::string& path,
                        bool include_diagnostics, int indent) {
  // Written in full before the file is opened, like save_json.
  std::string text;
  JsonWriter out(text, indent);
  write_batch(out, batch, include_diagnostics);
  save_json_text(text, path);
}

}  // namespace mpsched

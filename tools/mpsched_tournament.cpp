// mpsched_tournament — sweeps every registered scheduler backend × transform
// stack over a workload-zoo corpus and reports the quality/latency front.
//
// Usage:
//   mpsched_tournament --out FILE [--group NAME]... [--workload SPEC]...
//                      [--backends b1,b2,...] [--stacks "none;t1,t2;..."]
//                      [--threads N]
//   mpsched_tournament --check FILE   strict-validate an existing report
//   mpsched_tournament --list         list corpus groups / backends / stacks
//
// Defaults sweep ALL corpus groups × ALL registered backends × the stacks
// {none, strip_redundant_edges} — the full matrix the ROADMAP's
// "tournament harness" item asks for. Every cell runs on a fresh
// cold-cache engine so wall_ms is an honest per-configuration latency, and
// every successful schedule is re-validated from scratch by
// engine::check_result (transforms re-applied to the job's graph, §4
// dependency/capacity/completeness checks) before it may enter the
// report; any invalid schedule fails the run.
//
// The report is `mpsched.tournament/v1` JSON: header (workloads, backends,
// stacks), one cell per combination, and a per-workload Pareto front
// minimizing (cycles, wall_ms). --check re-validates a written report
// against the schema — unknown keys, missing cells, or coverage gaps fail
// — which is how CI gates the smoke run's artifact.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "engine/check.hpp"
#include "engine/engine.hpp"
#include "graph/transform.hpp"
#include "io/json.hpp"
#include "io/result_io.hpp"
#include "sched/backend.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "workloads/corpus.hpp"

using namespace mpsched;
using cli::size_flag;

namespace {

constexpr const char* kSchema = "mpsched.tournament/v1";

int usage(const char* argv0) {
  std::printf(
      "usage:\n"
      "  %s --out FILE [--group NAME]... [--workload SPEC]...\n"
      "     [--backends b1,b2,...] [--stacks \"none;t1,t2;...\"] [--threads N]\n"
      "  %s --check FILE\n"
      "  %s --list\n",
      argv0, argv0, argv0);
  return 2;
}

struct Cell {
  std::string workload;
  std::string backend;
  std::vector<std::string> stack;
  engine::JobResult result;
  double wall_ms = 0.0;
  bool valid = false;
  bool pareto = false;
};

/// Parses a --stacks value: stacks separated by ';', each a comma list of
/// transform names or "none" for the empty stack.
std::vector<std::vector<std::string>> parse_stacks(const std::string& value) {
  std::vector<std::vector<std::string>> stacks;
  for (const std::string& part : split(value, ';'))
    stacks.push_back(cli::transforms_flag(std::string(trim(part))));
  if (stacks.empty())
    throw std::invalid_argument("--stacks: at least one stack is required");
  return stacks;
}

std::string stack_label(const std::vector<std::string>& stack) {
  return stack.empty() ? "none" : join(stack, ",");
}

Json report_to_json(const std::vector<std::string>& specs,
                    const std::vector<std::string>& backends,
                    const std::vector<std::vector<std::string>>& stacks,
                    const std::vector<Cell>& cells) {
  Json doc = Json::object();
  doc.set("schema", kSchema);
  Json w = Json::array();
  for (const std::string& s : specs) w.push_back(s);
  doc.set("workloads", std::move(w));
  Json b = Json::array();
  for (const std::string& s : backends) b.push_back(s);
  doc.set("backends", std::move(b));
  Json st = Json::array();
  for (const std::vector<std::string>& stack : stacks) {
    Json one = Json::array();
    for (const std::string& t : stack) one.push_back(t);
    st.push_back(std::move(one));
  }
  doc.set("stacks", std::move(st));

  Json cell_arr = Json::array();
  for (const Cell& c : cells) {
    Json j = Json::object();
    j.set("workload", c.workload);
    j.set("backend", c.backend);
    Json transforms = Json::array();
    for (const std::string& t : c.stack) transforms.push_back(t);
    j.set("transforms", std::move(transforms));
    j.set("success", c.result.success);
    if (!c.result.success) j.set("error", c.result.error);
    j.set("nodes", c.result.nodes);
    j.set("edges", c.result.edges);
    j.set("patterns", c.result.patterns.size());
    j.set("cycles", c.result.cycles);
    j.set("critical_path", std::int64_t{c.result.critical_path});
    j.set("antichains", c.result.antichains);
    j.set("candidate_patterns", c.result.candidate_patterns);
    j.set("wall_ms", c.wall_ms);
    j.set("valid", c.valid);
    j.set("pareto", c.pareto);
    cell_arr.push_back(std::move(j));
  }
  doc.set("cells", std::move(cell_arr));

  // Per-workload quality/latency front: the Pareto-minimal cells under
  // (cycles, wall_ms), in ascending cycle order.
  Json fronts = Json::array();
  for (const std::string& spec : specs) {
    Json f = Json::object();
    f.set("workload", spec);
    Json entries = Json::array();
    for (const Cell& c : cells) {
      if (c.workload != spec || !c.pareto) continue;
      Json e = Json::object();
      e.set("backend", c.backend);
      Json transforms = Json::array();
      for (const std::string& t : c.stack) transforms.push_back(t);
      e.set("transforms", std::move(transforms));
      e.set("cycles", c.result.cycles);
      e.set("wall_ms", c.wall_ms);
      entries.push_back(std::move(e));
    }
    f.set("front", std::move(entries));
    fronts.push_back(std::move(f));
  }
  doc.set("fronts", std::move(fronts));
  return doc;
}

/// Strict schema validation of a written report: every object level
/// rejects unknown keys, every field is type-checked, and the cell matrix
/// must cover workloads × backends × stacks exactly once each.
void check_report(const Json& doc) {
  reject_unknown_keys(doc, {"schema", "workloads", "backends", "stacks", "cells", "fronts"},
                      "report");
  if (doc.at("schema").as_string() != kSchema)
    throw std::invalid_argument("report: schema is not " + std::string(kSchema));
  std::vector<std::string> specs, backends;
  for (const Json& s : doc.at("workloads").as_array()) specs.push_back(s.as_string());
  for (const Json& b : doc.at("backends").as_array()) {
    backends.push_back(b.as_string());
    if (find_backend(backends.back()) == nullptr)
      throw std::invalid_argument("report: unknown backend '" + backends.back() + "'");
  }
  std::vector<std::string> stack_labels;
  for (const Json& stack : doc.at("stacks").as_array()) {
    std::vector<std::string> names;
    for (const Json& t : stack.as_array()) {
      names.push_back(t.as_string());
      if (find_transform(names.back()) == nullptr)
        throw std::invalid_argument("report: unknown transform '" + names.back() + "'");
    }
    stack_labels.push_back(stack_label(names));
  }

  // Every (workload, backend, stack) combination exactly once.
  std::vector<std::string> expected, seen;
  for (const std::string& spec : specs)
    for (const std::string& label : stack_labels)
      for (const std::string& backend : backends)
        expected.push_back(spec + "|" + backend + "|" + label);
  for (const Json& cell : doc.at("cells").as_array()) {
    reject_unknown_keys(cell,
                        {"workload", "backend", "transforms", "success", "error", "nodes",
                         "edges", "patterns", "cycles", "critical_path", "antichains",
                         "candidate_patterns", "wall_ms", "valid", "pareto"},
                        "report.cell");
    std::vector<std::string> names;
    for (const Json& t : cell.at("transforms").as_array()) names.push_back(t.as_string());
    seen.push_back(cell.at("workload").as_string() + "|" +
                   cell.at("backend").as_string() + "|" + stack_label(names));
    if (!cell.at("success").as_bool() && cell.find("error") == nullptr)
      throw std::invalid_argument("report.cell: failed cell without 'error'");
    if (cell.at("success").as_bool() && !cell.at("valid").as_bool())
      throw std::invalid_argument("report.cell: successful cell failed validation: " +
                                  seen.back());
    (void)cell.at("wall_ms").as_double();
    (void)cell.at("cycles").as_int();
  }
  std::sort(expected.begin(), expected.end());
  std::sort(seen.begin(), seen.end());
  if (expected != seen)
    throw std::invalid_argument(
        "report: cells do not cover workloads x backends x stacks exactly once (" +
        std::to_string(seen.size()) + " cells, expected " +
        std::to_string(expected.size()) + ")");

  for (const Json& f : doc.at("fronts").as_array()) {
    reject_unknown_keys(f, {"workload", "front"}, "report.front");
    for (const Json& e : f.at("front").as_array())
      reject_unknown_keys(e, {"backend", "transforms", "cycles", "wall_ms"},
                          "report.front.entry");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path, check_path, backends_csv, stacks_spec;
  std::vector<std::string> groups, extra_workloads;
  std::size_t threads = 0;
  bool list = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&] { return cli::flag_value(argc, argv, i, arg); };
      if (arg == "--out") out_path = value();
      else if (arg == "--check") check_path = value();
      else if (arg == "--group") groups.push_back(value());
      else if (arg == "--workload") extra_workloads.push_back(value());
      else if (arg == "--backends") backends_csv = value();
      else if (arg == "--stacks") stacks_spec = value();
      else if (arg == "--threads") threads = size_flag(arg, value(), ThreadPool::kMaxThreads);
      else if (arg == "--list") list = true;
      else if (arg == "--help" || arg == "-h") return usage(argv[0]);
      else {
        std::printf("error: unknown argument '%s'\n", arg.c_str());
        return usage(argv[0]);
      }
    }

    if (list) {
      std::printf("corpus groups:\n");
      for (const workloads::CorpusGroup& g : workloads::corpus_groups())
        std::printf("  %-8s %s: %s\n", g.name.c_str(), g.description.c_str(),
                    join(g.specs, ", ").c_str());
      std::printf("backends: %s\n", join(backend_names(), ", ").c_str());
      std::printf("transforms: %s\n", join(transform_names(), ", ").c_str());
      return 0;
    }

    if (!check_path.empty()) {
      if (!out_path.empty()) {
        std::printf("error: --check is a standalone mode (no --out)\n");
        return 2;
      }
      check_report(load_json(check_path));
      std::printf("report %s: schema and coverage ok\n", check_path.c_str());
      return 0;
    }

    if (out_path.empty()) return usage(argv[0]);

    // Workload list: named groups (all of them by default) plus explicit
    // --workload specs, deduplicated in first-mention order.
    std::vector<std::string> specs;
    auto add_spec = [&](const std::string& spec) {
      if (std::find(specs.begin(), specs.end(), spec) == specs.end())
        specs.push_back(spec);
    };
    if (groups.empty() && extra_workloads.empty())
      for (const workloads::CorpusGroup& g : workloads::corpus_groups())
        for (const std::string& spec : g.specs) add_spec(spec);
    for (const std::string& name : groups)
      for (const std::string& spec : workloads::corpus_group(name).specs) add_spec(spec);
    for (const std::string& spec : extra_workloads) {
      if (!workloads::is_valid_workload(spec))
        throw std::invalid_argument("--workload: unknown spec '" + spec + "'");
      add_spec(spec);
    }

    std::vector<std::string> backends =
        backends_csv.empty() ? backend_names() : split(backends_csv, ',');
    for (std::string& b : backends) {
      b = std::string(trim(b));
      get_backend(b);  // throws on unknown names
    }
    const std::vector<std::vector<std::string>> stacks =
        stacks_spec.empty()
            ? std::vector<std::vector<std::string>>{{}, {"strip_redundant_edges"}}
            : parse_stacks(stacks_spec);

    std::printf("tournament: %zu workloads x %zu backends x %zu stacks = %zu cells\n",
                specs.size(), backends.size(), stacks.size(),
                specs.size() * backends.size() * stacks.size());

    std::vector<Cell> cells;
    std::size_t failures = 0, invalid = 0;
    for (const std::string& spec : specs) {
      for (const std::vector<std::string>& stack : stacks) {
        for (const std::string& backend : backends) {
          Cell cell;
          cell.workload = spec;
          cell.backend = backend;
          cell.stack = stack;
          engine::Job job = engine::Job::from_workload(spec);
          job.transforms = stack;
          job.backend = backend;
          // A fresh cold-cache engine per cell: wall_ms is the honest
          // end-to-end latency of this configuration, nothing amortized.
          engine::EngineOptions options;
          options.threads = threads;
          engine::Engine eng(options);
          Timer wall;
          cell.result = eng.run(job);
          cell.wall_ms = wall.millis();
          if (cell.result.success) {
            // list and force_directed report induced pattern sets, which
            // need not fit the tile's store, so only the §4 verdict gates.
            const std::string why = engine::check_result(job, cell.result).error;
            cell.valid = why.empty();
            if (!cell.valid) {
              ++invalid;
              std::printf("INVALID %s backend=%s stack=%s: %s\n", spec.c_str(),
                          backend.c_str(), stack_label(stack).c_str(), why.c_str());
            }
          } else {
            ++failures;
            std::printf("FAILED %s backend=%s stack=%s: %s\n", spec.c_str(),
                        backend.c_str(), stack_label(stack).c_str(),
                        cell.result.error.c_str());
          }
          cells.push_back(std::move(cell));
        }
      }
    }

    // Pareto marking per workload: a valid cell is on the front unless
    // another valid cell of the same workload dominates it (no worse in
    // both cycles and wall_ms, strictly better in one).
    for (Cell& c : cells) {
      if (!c.valid) continue;
      c.pareto = true;
      for (const Cell& other : cells) {
        if (&other == &c || !other.valid || other.workload != c.workload) continue;
        const bool no_worse = other.result.cycles <= c.result.cycles &&
                              other.wall_ms <= c.wall_ms;
        const bool better = other.result.cycles < c.result.cycles ||
                            other.wall_ms < c.wall_ms;
        if (no_worse && better) {
          c.pareto = false;
          break;
        }
      }
    }

    const Json doc = report_to_json(specs, backends, stacks, cells);
    check_report(doc);  // the writer holds itself to the --check contract
    save_json(doc, out_path, 2);
    std::printf("%zu cells (%zu failed, %zu invalid schedules) -> %s\n", cells.size(),
                failures, invalid, out_path.c_str());
    return invalid == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::printf("error: %s\n", e.what());
    return 1;
  }
}

// Workload specs — a tiny textual naming scheme over the src/workloads
// generators, so corpora (batch-engine job lists, CLI scenario files) can
// reference graphs by name instead of embedding edge lists.
//
// Grammar:  name  |  name(arg1,arg2,...)   with non-negative integer args.
// The generators are one table in corpus.cpp: each row holds a name, its
// parameter list and the call that builds the graph. workload_usage()
// lists the rows (`mpsched_batch --list` prints them), e.g. "dft3" takes no
// arguments and "stencil5(width,height)" takes two.
//
// Every spec is fully deterministic: the same string always produces the
// same graph, which is what makes specs usable as cache keys and corpus
// round-trips byte-exact.
#pragma once

#include <string>
#include <vector>

#include "graph/dfg.hpp"

namespace mpsched::workloads {

/// Instantiates the graph a spec names; throws std::invalid_argument on an
/// unknown name, malformed args, or an arg count mismatch.
Dfg make_workload(const std::string& spec);

/// True if `spec` parses, names a known generator, and instantiates cleanly.
bool is_valid_workload(const std::string& spec);

/// The accepted spec shapes, one usage string per generator in table order
/// (CLI --list).
std::vector<std::string> workload_usage();

/// An 8-job mixed corpus of specs used by the engine bench, the CLI demo
/// corpus, and tests. Contains deliberate duplicates (the common case in
/// practice: the paper graphs appear in a dozen harnesses) so the analysis
/// cache has something to hit.
std::vector<std::string> demo_corpus_specs();

/// A named, curated set of workload specs — the registry the tournament
/// harness sweeps. Groups are deterministic and every spec instantiates.
struct CorpusGroup {
  std::string name;
  std::string description;
  std::vector<std::string> specs;
};

/// All registered groups, in registration order.
const std::vector<CorpusGroup>& corpus_groups();

/// Looks a group up by name; throws std::invalid_argument when unknown.
const CorpusGroup& corpus_group(const std::string& name);

}  // namespace mpsched::workloads

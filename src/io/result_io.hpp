// JSON (de)serialization for the batch engine: corpus files (job lists
// in) and result files (outcomes out). Used by tools/mpsched_batch and the
// engine tests.
//
// Round-trip guarantees:
//  * corpus_to_json(corpus_from_json(x)).dump() == Json::parse(x).dump()
//    for documents produced by corpus_to_json — every option is emitted
//    explicitly in a fixed key order, so the fixpoint is reached after one
//    normalization pass (hand-written corpora may omit defaulted keys).
//  * The results document is deterministic: diagnostics that legitimately
//    vary between runs (timings, cache hits) are excluded unless
//    include_diagnostics is set, so two runs of the same corpus — at any
//    thread count, cache warm or cold — serialize byte-identically.
//
// One layout definition: write_result/write_batch write the results
// document straight to text through a JsonWriter. Every route to its
// bytes — results files, service responses, and the Json trees
// result_to_json/batch_to_json return (the parse of those bytes) — goes
// through them, so no second builder of the layout exists to drift.
#pragma once

#include <initializer_list>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/job.hpp"
#include "io/graph_intern.hpp"
#include "io/json.hpp"

namespace mpsched {

/// Schema tags embedded in the documents (checked on load).
inline constexpr const char* kCorpusSchema = "mpsched.batch.corpus/v1";
inline constexpr const char* kResultsSchema = "mpsched.batch.results/v1";

/// Strict-key validator shared by the corpus/results readers and the
/// service envelope (io/service_io): any key of `obj` not in `allowed`
/// throws std::invalid_argument naming `where` and the offending key.
void reject_unknown_keys(const Json& obj, std::initializer_list<const char*> allowed,
                         const std::string& where);

/// Single-entry (de)serializers underlying the corpus/results documents,
/// exposed for the service envelope (io/service_io): one corpus entry and
/// one results entry, with exactly the document semantics described above.
Json job_to_json(const engine::Job& job);
/// `index` only labels error messages ("job #3 ..."). The job's graph
/// comes from `graphs` (io/graph_intern.hpp); the overload without one
/// uses a fresh intern.
engine::Job job_from_json(const Json& doc, std::size_t index, GraphIntern& graphs);
engine::Job job_from_json(const Json& doc, std::size_t index = 0);
/// Writes one results entry.
void write_result(JsonWriter& out, const engine::JobResult& result,
                  bool include_diagnostics = false);
/// write_result's bytes, parsed.
Json result_to_json(const engine::JobResult& result, bool include_diagnostics = false);

/// Serializes a job list. Jobs built from a workload spec store the spec;
/// jobs with a hand-built graph embed its .dfg text.
Json corpus_to_json(const std::vector<engine::Job>& jobs);

/// Parses a corpus document, instantiating each job's graph (from its
/// workload spec or embedded dfg text) through `graphs`, or through one
/// fresh intern per document. Unknown keys are rejected; omitted option
/// keys keep their defaults. Throws std::invalid_argument /
/// std::runtime_error with the offending job's name.
std::vector<engine::Job> corpus_from_json(const Json& doc, GraphIntern& graphs);
std::vector<engine::Job> corpus_from_json(const Json& doc);

/// Writes the batch results document, index-aligned with the corpus.
void write_batch(JsonWriter& out, const engine::BatchResult& batch,
                 bool include_diagnostics = false);
/// write_batch's bytes, parsed.
Json batch_to_json(const engine::BatchResult& batch, bool include_diagnostics = false);

/// File wrappers.
void save_corpus(const std::vector<engine::Job>& jobs, const std::string& path);
std::vector<engine::Job> load_corpus(const std::string& path);
/// Writes the results document with `indent` (JsonWriter) to `path`.
void save_batch_results(const engine::BatchResult& batch, const std::string& path,
                        bool include_diagnostics = false, int indent = 2);

}  // namespace mpsched

// GraphIntern — a bounded, thread-safe memo from a graph's source to the
// graph it builds. A source is either a workload spec
// (workloads/corpus.hpp) or an inline .dfg text (io/dfg_io.hpp); the
// corpus and request parsers (io/result_io, io/service_io) resolve every
// job's graph through one.
//
// make_workload and dfg_from_text are pure, so handing out the graph an
// earlier build produced cannot change a result, a cache key or a byte
// of the results JSON. A Dfg copy is a pointer copy (graph/dfg.hpp), so a
// hit neither builds nor copies a graph, and dropping the jobs that hold
// it frees nothing while the intern still holds it.
//
// Ownership: whoever parses owns the intern. The serve daemon keeps one
// for its lifetime; the single-document parse wrappers make one per
// document, so a corpus that names a graph twice builds it once.
//
// Bound: at most kMaxGraphs graphs, and at most kMaxWeight summed weight
// (an entry weighs its node count plus its edge count plus its source
// length in bytes). An insert that would pass either bound first empties
// the intern; a source that alone outweighs kMaxWeight is built and
// returned without being held.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <unordered_map>

#include "graph/dfg.hpp"

namespace mpsched {

namespace obs {
class Counter;
}

class GraphIntern {
 public:
  static constexpr std::size_t kMaxGraphs = 1024;
  static constexpr std::size_t kMaxWeight = std::size_t{1} << 22;

  /// `built` and `reused`, when given, count builds and hits.
  explicit GraphIntern(obs::Counter* built = nullptr, obs::Counter* reused = nullptr)
      : built_(built), reused_(reused) {}

  GraphIntern(const GraphIntern&) = delete;
  GraphIntern& operator=(const GraphIntern&) = delete;

  /// workloads::make_workload(spec), built at most once while held.
  /// Throws what make_workload throws, and then holds nothing new.
  Dfg workload(const std::string& spec);
  /// dfg_from_text(text), built at most once while held. Throws what
  /// dfg_from_text throws, and then holds nothing new.
  Dfg text(const std::string& dfg_text);

  /// Graphs currently held (≤ kMaxGraphs).
  std::size_t size() const;

 private:
  using Map = std::unordered_map<std::string, Dfg>;
  template <typename Build>
  Dfg resolve(Map& map, const std::string& source, Build build);

  obs::Counter* built_;
  obs::Counter* reused_;
  mutable std::mutex mutex_;  ///< guards the two maps and weight_
  Map workloads_;
  Map texts_;
  std::size_t weight_ = 0;
};

}  // namespace mpsched

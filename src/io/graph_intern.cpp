#include "io/graph_intern.hpp"

#include "io/dfg_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads/corpus.hpp"

namespace mpsched {

Dfg GraphIntern::workload(const std::string& spec) {
  return resolve(workloads_, spec, [&] {
    obs::Span span("workloads.build", obs::tracing_enabled() ? spec : std::string());
    return workloads::make_workload(spec);
  });
}

Dfg GraphIntern::text(const std::string& dfg_text) {
  return resolve(texts_, dfg_text, [&] {
    obs::Span span("workloads.build", obs::tracing_enabled() ? "dfg text" : std::string());
    return dfg_from_text(dfg_text);
  });
}

std::size_t GraphIntern::size() const {
  std::lock_guard lock(mutex_);
  return workloads_.size() + texts_.size();
}

template <typename Build>
Dfg GraphIntern::resolve(Map& map, const std::string& source, Build build) {
  {
    std::lock_guard lock(mutex_);
    if (const auto it = map.find(source); it != map.end()) {
      if (reused_ != nullptr) reused_->add();
      return it->second;
    }
  }
  // Built outside the lock, so one slow build holds up no other lookup.
  // Two threads missing the same source both build; the first insert
  // wins, and both return its graph.
  Dfg graph = build();
  if (built_ != nullptr) built_->add();
  const std::size_t weight = graph.node_count() + graph.edge_count() + source.size();
  std::lock_guard lock(mutex_);
  if (const auto it = map.find(source); it != map.end()) return it->second;
  if (weight > kMaxWeight) return graph;
  if (workloads_.size() + texts_.size() >= kMaxGraphs || weight_ + weight > kMaxWeight) {
    workloads_.clear();
    texts_.clear();
    weight_ = 0;
  }
  weight_ += weight;
  return map.emplace(source, std::move(graph)).first->second;
}

}  // namespace mpsched

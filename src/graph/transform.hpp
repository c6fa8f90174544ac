// DFG transform passes: the paper's Transformation and Clustering phases
// (§1) as one pasched-style pipeline.
//
// A pass rewrites a graph before pattern selection/scheduling. Every pass
// keeps every precedence of the computation: it may drop an edge another
// path implies (strip_redundant_edges), merge nodes that compute the same
// value (cse), regroup an associative chain (rebalance_reductions) or fuse
// a producer into its only consumer (mac_fusion), but never lets a value
// be used before it is computed. Passes that merge or fuse change node ids,
// so results describe the effective graph (the pipeline's output): per-node
// cycles and patterns index it, not the submitted graph. Each pass keeps
// its old→new node map to itself.
//
// Passes are registered under string keys so jobs, corpus JSON and CLI
// flags can name them; `TransformPipeline` composes an ordered stack.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "graph/dfg.hpp"

namespace mpsched {

/// One registry entry.
struct DfgTransform {
  /// Registry key (stable; serialized in corpus/results JSON).
  std::string_view name;
  /// One-line human description for --list-transforms.
  std::string_view description;
  /// Rewrites a graph into a new one with the same precedences.
  Dfg (*apply)(const Dfg&);
};

/// Looks a transform up by name; nullptr when unknown.
const DfgTransform* find_transform(std::string_view name);

/// Like find_transform but throws std::invalid_argument on unknown names.
const DfgTransform& get_transform(std::string_view name);

/// Names of all registered transforms, in registration order.
std::vector<std::string> transform_names();

/// Transitive reduction of the precedence edges: drops every edge u→v for
/// which another path u ⤳ v exists. Unique for DAGs; reachability (and
/// therefore every antichain and every valid schedule) is unchanged.
/// Exposed directly for tests; jobs reach it via the "strip_redundant_edges"
/// registry entry.
Dfg strip_redundant_edges(const Dfg& dfg);

/// An ordered stack of transforms applied left to right.
class TransformPipeline {
 public:
  TransformPipeline() = default;

  /// Resolves each name against the registry; throws std::invalid_argument
  /// listing the offending name when one is unknown.
  static TransformPipeline from_specs(const std::vector<std::string>& names);

  void push_back(const DfgTransform& t) { stages_.push_back(&t); }

  bool empty() const noexcept { return stages_.empty(); }
  std::size_t size() const noexcept { return stages_.size(); }

  /// Runs every stage in order. The identity pipeline returns a copy.
  Dfg apply(const Dfg& dfg) const;

  /// Stage names in application order.
  std::vector<std::string> names() const;

 private:
  std::vector<const DfgTransform*> stages_;
};

}  // namespace mpsched

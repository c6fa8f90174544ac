// Data Flow Graph (DFG) — the substrate every algorithm in mpsched
// consumes (paper §3).
//
// A node represents one operation and carries a *color*: the type of the
// function it computes (paper notation l(n); e.g. 'a' = addition,
// 'b' = subtraction, 'c' = multiplication in the 3DFT example). A directed
// edge n1→n2 states that n2 consumes a value produced by n1, so n1 must be
// scheduled in an earlier clock cycle.
//
// Design notes:
//  * Node ids are dense indices [0, node_count) in insertion order; the
//    multi-pattern scheduler's FIFO tie-breaking (DESIGN.md §3) depends on
//    adjacency lists preserving insertion order, which this class
//    guarantees.
//  * Colors are interned: the graph owns a small alphabet of color names
//    (usually single letters) and nodes store a compact ColorId.
//  * The structure is append-only (nodes and edges can be added, never
//    removed); algorithms treat a finished graph as immutable.
//  * Copies share storage. A graph keeps its fields in one heap block, and
//    copying a Dfg copies a pointer to that block, so a graph can be handed
//    to many jobs, threads and caches without duplicating it. A block is
//    never written after its first copy: copying sets an atomic "shared"
//    flag in the block, and a mutator on a shared block first clones it
//    into a fresh, unshared one. Builders construct fresh graphs, so they
//    still edit in place. Sole ownership is never inferred from the
//    reference count: a relaxed use_count() of 1 does not order this
//    thread's writes after another thread's reads of a copy it just
//    dropped. Moves cost nothing, and a default-constructed or moved-from
//    graph holds no block (it reads as an empty graph named "dfg").
//  * The block memoizes the graph's content hash (content_hash()), so a
//    graph shared by many jobs, requests and caches is serialized for
//    hashing once. The memo may be written after the block is shared, so
//    it is published through an atomic state, none → computing → ready:
//    the first thread to claim "computing" stores the hash and then
//    releases "ready"; a reader that acquires "ready" returns the stored
//    hash, and a thread that finds another one computing hashes the graph
//    itself instead of waiting. No lock is taken. A mutator on an unshared
//    block resets the state to none, and a clone starts at none.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/fnv.hpp"
#include "util/require.hpp"

namespace mpsched {

using NodeId = std::uint32_t;
using ColorId = std::uint16_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = ~NodeId{0};

class Dfg {
 public:
  Dfg() noexcept = default;
  explicit Dfg(std::string name) { set_name(std::move(name)); }

  /// Shares `other`'s block and marks it shared; see the design notes.
  Dfg(const Dfg& other) noexcept : block_(other.block_) { mark_shared(); }
  Dfg& operator=(const Dfg& other) noexcept {
    block_ = other.block_;
    mark_shared();
    return *this;
  }
  Dfg(Dfg&&) noexcept = default;
  Dfg& operator=(Dfg&&) noexcept = default;

  const std::string& name() const noexcept;
  void set_name(std::string name) { edit().name = std::move(name); }

  // ------------------------------------------------------------------
  // Construction
  // ------------------------------------------------------------------

  /// Interns a color name and returns its id; idempotent.
  ColorId intern_color(std::string_view color_name);

  /// Adds a node with the given color; `node_name` must be unique when
  /// non-empty (empty names get an auto-generated "n<i>" label, or
  /// "n<i>_<k>" when a named node already holds "n<i>").
  NodeId add_node(ColorId color, std::string node_name = "");

  /// Convenience: interns the color by name first.
  NodeId add_node(std::string_view color_name, std::string node_name = "") {
    return add_node(intern_color(color_name), std::move(node_name));
  }

  /// Adds a dependency edge `from → to`. Duplicate edges and self-loops are
  /// rejected. Cycle detection is deferred to validate()/is_dag() so
  /// builders can insert edges in any order.
  void add_edge(NodeId from, NodeId to);

  // ------------------------------------------------------------------
  // Topology
  // ------------------------------------------------------------------

  std::size_t node_count() const noexcept { return block_ ? block_->colors.size() : 0; }
  std::size_t edge_count() const noexcept { return block_ ? block_->edge_count : 0; }
  std::size_t color_count() const noexcept {
    return block_ ? block_->color_names.size() : 0;
  }

  /// The block this graph's fields live in; null for a graph with none.
  /// Graphs with one identity are copies of one graph, equal in every
  /// field while both stay unchanged (a mutator on a shared block clones
  /// it first, so the block itself never changes after its first copy).
  const void* identity() const noexcept { return block_.get(); }

  ColorId color(NodeId n) const {
    MPSCHED_ASSERT(n < node_count());
    return block_->colors[n];
  }

  const std::string& color_name(ColorId c) const {
    MPSCHED_ASSERT(c < color_count());
    return block_->color_names[c];
  }

  const std::string& node_name(NodeId n) const {
    MPSCHED_ASSERT(n < node_count());
    return block_->node_names[n];
  }

  /// Predecessors Pred(n) in edge insertion order.
  const std::vector<NodeId>& preds(NodeId n) const {
    MPSCHED_ASSERT(n < node_count());
    return block_->preds[n];
  }

  /// Successors Succ(n) in edge insertion order.
  const std::vector<NodeId>& succs(NodeId n) const {
    MPSCHED_ASSERT(n < node_count());
    return block_->succs[n];
  }

  bool is_source(NodeId n) const { return preds(n).empty(); }
  bool is_sink(NodeId n) const { return succs(n).empty(); }

  /// Looks a node up by name.
  std::optional<NodeId> find_node(std::string_view node_name) const;

  /// Looks a color up by name.
  std::optional<ColorId> find_color(std::string_view color_name) const;

  /// The colors some node uses, in ascending ColorId order: the paper's
  /// color set L. A color interned but used by no node is left out.
  std::vector<ColorId> used_colors() const;

  /// True if there is an edge from → to.
  bool has_edge(NodeId from, NodeId to) const;

  // ------------------------------------------------------------------
  // Validation
  // ------------------------------------------------------------------

  /// True iff the graph is acyclic.
  bool is_dag() const;

  /// Throws std::runtime_error if the graph contains a cycle.
  void validate() const;

  /// One topological order (Kahn's algorithm, FIFO over node id so the
  /// order is deterministic). Throws if the graph has a cycle.
  std::vector<NodeId> topo_order() const;

  // ------------------------------------------------------------------
  // Content hash
  // ------------------------------------------------------------------

  /// The graph's canonical structural hash: util/fnv.hpp's 128-bit state
  /// after the node count, each node's length-prefixed color name (in node
  /// id order), the edge count, then every (node, successor) pair in edge
  /// insertion order (it is semantics-bearing for tie-breaking). Graph and
  /// node names are display metadata and stay out. Everything is
  /// length-delimited, so no string content can masquerade as structure,
  /// and equal per-node color-name sequences force equal color interning.
  /// The engine's cache keys (engine/analysis_cache) are this state, or
  /// extend it. Memoized in the block; see the design notes.
  Fnv128 content_hash() const;

 private:
  struct Fields {
    std::string name = "dfg";
    std::vector<ColorId> colors;
    std::vector<std::string> node_names;
    std::vector<std::vector<NodeId>> preds;
    std::vector<std::vector<NodeId>> succs;
    std::vector<std::string> color_names;
    std::unordered_map<std::string, ColorId> color_index;
    std::unordered_map<std::string, NodeId> node_index;
    std::size_t edge_count = 0;
  };
  /// The shared heap block: the fields plus the flag the first copy sets
  /// and the content-hash memo. A clone copies the fields and starts
  /// unshared, with no memo.
  struct Block : Fields {
    Block() = default;
    explicit Block(const Fields& fields) : Fields(fields) {}
    std::atomic<bool> shared{false};
    enum HashState : std::uint8_t { kHashNone, kHashComputing, kHashReady };
    std::atomic<std::uint8_t> hash_state{kHashNone};
    Fnv128 hash;  ///< valid once hash_state is kHashReady
  };

  void mark_shared() noexcept {
    if (block_) block_->shared.store(true);
  }
  /// The block a mutator may write: a new one when there is none, a clone
  /// when the current one is shared, else the current one with its hash
  /// memo cleared.
  Fields& edit();

  std::shared_ptr<Block> block_;
};

}  // namespace mpsched

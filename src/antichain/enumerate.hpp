// Antichain enumeration and per-pattern classification (paper §5.1).
//
// The pattern generation step of the selection algorithm:
//   1. find all antichains A of the DFG with |A| ≤ C and Span(A) ≤ limit,
//   2. classify them by their pattern (the multiset of member colors),
//   3. per pattern p̄, record the antichain count and the node frequency
//      vector h(p̄, n) = number of p̄-antichains containing node n.
//
// Implementation: depth-first extension over nodes in increasing id order.
// The running set keeps a compatibility bitset (the AND of every member's
// parallel mask), so testing whether node j can extend the antichain is a
// single bit probe, and candidate iteration enumerates set bits > max id.
// Span is monotone non-decreasing as a set grows, so the span limit prunes
// the subtree, not just the leaf; two per-level masks apply it word-wise.
// Each depth carries its prefix's pattern entry, and an entry maps a color
// to the entry of its pattern plus that color, so classification is a
// table load. The last level (depth C−1) is counted a word at a time from
// the prefix's candidate mask: popcounts give the leaf total, the span rows
// and the per-color counts, and the leaves' own frequencies go into
// bit-sliced counters flushed into the pattern entries, so a prefix costs
// O(words) however many leaves it has. Member collection and sparse
// prefixes walk their leaves one at a time instead.
//
// Parallelism: the search forest is partitioned by the antichain's minimum
// node id; each worker on the shared thread pool walks its roots with
// enumerate_antichain_roots, and merge_antichain_analyses joins the parts.
// Results are canonically sorted, so output is identical for any thread
// count.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/closure.hpp"
#include "graph/dfg.hpp"
#include "graph/levels.hpp"
#include "pattern/pattern.hpp"

namespace mpsched {

class ThreadPool;

/// Ceiling on EnumerateOptions::max_size (and the analytic analysis's),
/// far above any ALU count the selection targets (C ≤ 5): a larger C is
/// rejected up front rather than sizing per-size tables or cost series by
/// it.
inline constexpr std::size_t kMaxAntichainSize = 64;

struct EnumerateOptions {
  /// Maximum antichain size (C; 5 for the Montium), 1..kMaxAntichainSize.
  std::size_t max_size = 5;
  /// Span limit; nullopt = unlimited (equivalent to limit ASAPmax).
  std::optional<int> span_limit;
  /// Also store the explicit member lists per pattern (small graphs only —
  /// memory grows with the antichain count).
  bool collect_members = false;
  /// Use the shared thread pool. Off → strictly sequential.
  bool parallel = true;
  /// Safety valve: abort with an exception if more than this many
  /// antichains would be enumerated (guards accidental explosion).
  std::uint64_t max_antichains = 500'000'000;
};

/// Statistics for one pattern discovered in the DFG.
struct PatternAntichains {
  Pattern pattern;
  std::uint64_t antichain_count = 0;
  /// h(p̄, n) indexed by NodeId: how many antichains of this pattern
  /// contain node n (paper §5.2, Table 6).
  std::vector<std::uint64_t> node_frequency;
  /// Explicit antichains (ascending node ids), only if collect_members.
  std::vector<std::vector<NodeId>> members;
};

struct AntichainAnalysis {
  /// One entry per distinct pattern, sorted by Pattern::operator< (size
  /// first, then colors) for deterministic output.
  std::vector<PatternAntichains> per_pattern;
  /// Total antichains enumerated (all sizes 1..max_size).
  std::uint64_t total = 0;
  /// count_by_size_span[s][k] = number of antichains of size s (1-based,
  /// index 0 unused) whose exact span equals k. Powers Table 5, whose rows
  /// are cumulative over k.
  std::vector<std::vector<std::uint64_t>> count_by_size_span;

  /// Cumulative Table 5 cell: antichains of size `size` with span ≤ limit.
  std::uint64_t count_with_span_at_most(std::size_t size, int limit) const;

  /// Locates the stats for a pattern, if it occurred.
  const PatternAntichains* find(const Pattern& p) const;
};

/// Runs the enumeration. `levels` and `reach` must belong to `dfg`.
///
/// The walk runs on arena-style scratch: one preallocated
/// min(max_size, n) × word_count mask stack per worker (word-wise AND into
/// the next depth's slot — no allocation per node), a fused word-parallel
/// candidate probe with the span limit applied as level masks, a
/// word-parallel leaf level at depth C−1 (popcounts plus bit-sliced
/// frequency counters, with a per-leaf fallback), and chunk-batched
/// accounting against the shared max_antichains counter.
AntichainAnalysis enumerate_antichains(const Dfg& dfg, const Levels& levels,
                                       const Reachability& reach,
                                       const EnumerateOptions& options = {});

/// Validation oracle: the original copy-a-DynamicBitset-per-node,
/// bit-at-a-time recursion with one full classification per antichain,
/// strictly sequential (`options.parallel` is ignored). Kept so tests can
/// gate byte-identity of the kernel against the naive walk and
/// bench_perf_scaling can pin the speedups; never use it for real
/// workloads.
AntichainAnalysis enumerate_antichains_reference(const Dfg& dfg, const Levels& levels,
                                                const Reachability& reach,
                                                const EnumerateOptions& options = {});

/// Convenience overload computing levels and reachability internally.
AntichainAnalysis enumerate_antichains(const Dfg& dfg, const EnumerateOptions& options = {});

// ---------------------------------------------------------------------------
// Sharded enumeration — the batch engine's unit of work (src/engine).
//
// The search forest is a disjoint union of subtrees keyed by the
// antichain's minimum node id ("root"). enumerate_antichain_roots() walks
// only the subtrees of the given roots, sequentially, on the calling
// thread; merging the partial analyses of any partition of [0, n) with
// merge_antichain_analyses() reproduces enumerate_antichains() exactly.
// This lets a scheduler interleave shards of *different* graphs on one
// thread pool instead of being stuck with the per-graph fan-out above.
// ---------------------------------------------------------------------------

/// Enumerates the subtrees rooted at each id in `roots` (all < node_count,
/// duplicates forbidden). Ignores `options.parallel`. The max_antichains
/// safety valve counts through `shared_count` when given, so a scheduler
/// running many shards of one analysis keeps the limit global instead of
/// per-shard; with nullptr the limit applies to this call alone.
AntichainAnalysis enumerate_antichain_roots(const Dfg& dfg, const Levels& levels,
                                            const Reachability& reach,
                                            const EnumerateOptions& options,
                                            const std::vector<NodeId>& roots,
                                            std::atomic<std::uint64_t>* shared_count = nullptr);

/// Merges root-disjoint partial analyses of the same graph + options.
/// Associative and order-insensitive: any grouping of the same shard set
/// yields a bit-identical result.
AntichainAnalysis merge_antichain_analyses(std::vector<AntichainAnalysis> parts,
                                           std::size_t node_count);

/// Cheap cost estimates for the search subtrees rooted at every node (the
/// antichains whose minimum node id is the root), indexed by NodeId, for
/// cost-aware shard packing. The heuristic is a subtree's first level
/// after span pruning: with w = |{ j > root : parallelizable(root, j) ∧
/// Span({root, j}) ≤ limit }| — the subtree's branching width, which the
/// level structure caps through the span limit — a root's estimate is
/// Σ_{k=0}^{max_size-1} C(w, k): the subtree size if the whole first level
/// stayed mutually compatible, i.e. an upper-bound-shaped count whose
/// steep growth in w separates heavy roots from light ones (saturated at
/// 1e18). O(n) bit probes per root; only relative magnitudes matter (the
/// packer balances estimated totals), and the estimate never influences
/// results — any root partition merges to bit-identical output.
///
/// Validates once (not per root) and, when `options.parallel` and the
/// graph is large enough, fans the independent per-root estimates out on
/// `pool` (nullptr: the shared pool) — each root writes its own slot, so
/// the vector is byte-identical to the serial path. Must not be called
/// from inside a task of that pool.
std::vector<std::uint64_t> estimate_root_costs(const Dfg& dfg, const Levels& levels,
                                               const Reachability& reach,
                                               const EnumerateOptions& options,
                                               ThreadPool* pool = nullptr);

}  // namespace mpsched

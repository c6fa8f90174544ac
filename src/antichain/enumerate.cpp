#include "antichain/enumerate.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <unordered_map>

#include "antichain/span.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace mpsched {

namespace {

using Word = DynamicBitset::Word;
constexpr std::size_t kWordBits = DynamicBitset::kWordBits;

/// One walk's per-pattern tallies, emitted in canonical order at the end.
struct Accumulator {
  struct Entry {
    std::uint64_t count = 0;
    std::vector<std::uint64_t> node_frequency;
    std::vector<std::vector<NodeId>> members;
    /// Walker lookup table: by color c, the entry of this pattern plus c
    /// (null until first needed; sized only for patterns below max_size).
    std::vector<std::pair<const Pattern, Entry>*> plus_color;
    /// Walker leaf counters of a size-(C−1) pattern: node v's count of
    /// word-parallel leaves under prefixes of this pattern, bit-sliced
    /// (word-major, Walker::kCounterStride planes per word); `leaf_adds`
    /// masks added since the last flush into the children's frequencies.
    std::vector<Word> leaf_counter;
    std::uint32_t leaf_adds = 0;
  };
  using Map = std::unordered_map<Pattern, Entry, PatternHash>;
  Map per_pattern;
  std::vector<std::vector<std::uint64_t>> by_size_span;  // [size][span]
  std::uint64_t total = 0;

  Accumulator(std::size_t max_size, std::size_t max_span) {
    by_size_span.assign(max_size + 1, std::vector<std::uint64_t>(max_span + 1, 0));
  }
};

struct SearchContext {
  const Dfg& dfg;
  const Levels& levels;
  const Reachability& reach;
  const EnumerateOptions& options;
  int effective_span_limit;
  std::atomic<std::uint64_t>* global_count;
};

/// Chunked accounting against the shared max_antichains counter: each
/// worker batches kChunk recorded antichains locally and publishes them
/// with one fetch_add, so the hot path touches the shared cache line once
/// per chunk instead of once per antichain. The limit stays exact in the
/// threshold sense: partial sums only ever reach the true total, so a
/// flush observes a count above the limit iff the enumeration really
/// produced more than max_antichains — the same workloads trip it, the
/// same workloads pass (Walker::finish() guarantees the last pending batch
/// is always published).
class CountBudget {
 public:
  static constexpr std::uint64_t kChunk = 1024;

  CountBudget(std::atomic<std::uint64_t>* global, std::uint64_t limit)
      : global_(global), limit_(limit) {}

  /// Notes `k` more antichains (a whole leaf level at once).
  void note(std::uint64_t k) {
    pending_ += k;
    if (pending_ >= kChunk) flush();
  }

  void flush() {
    if (pending_ == 0) return;
    const std::uint64_t seen =
        global_->fetch_add(pending_, std::memory_order_relaxed) + pending_;
    pending_ = 0;
    MPSCHED_CHECK(seen <= limit_,
                  "antichain enumeration exceeded the max_antichains safety limit (" +
                      std::to_string(limit_) + ")");
  }

 private:
  std::atomic<std::uint64_t>* global_;
  std::uint64_t limit_;
  std::uint64_t pending_ = 0;
};

/// One worker's depth-first walk over the subtrees of its assigned roots,
/// on arena-style scratch: a preallocated max_depth × word_count mask
/// stack, a fused word-parallel AND+countr_zero candidate probe over raw
/// words, and the shared safety counter batched through CountBudget.
///
/// The probe ANDs in two level masks, so it yields only candidates within
/// the span limit. Each depth carries its prefix's accumulator entry, and
/// an entry maps each color to the entry of its pattern plus that color,
/// so classifying an antichain is one table load: the colors are gathered,
/// sorted and hashed only on a (pattern, color) pair's first sight.
///
/// The last level, depth C−1, counts a prefix's leaves from its candidate
/// mask a word at a time: leaves under one prefix differ only in their own
/// color, span and node. Popcounts of the mask give the total, the span
/// rows (differencing the counts with span ≤ k) and the per-color counts;
/// the leaves' own frequencies h(p̄, leaf) go into bit-sliced counters on
/// the prefix pattern's entry, flushed into the children before a lane can
/// overflow and at finish(). Member collection and sparse masks take a
/// per-leaf loop instead. The walk allocates only on a
/// (pattern, color) pair's first sight, once per leaf-counting prefix
/// pattern, and for the explicit member lists when collect_members is on.
class Walker {
 public:
  Walker(const SearchContext& ctx, Accumulator& acc)
      : ctx_(ctx),
        acc_(acc),
        budget_(ctx.global_count, ctx.options.max_antichains),
        word_count_(ctx.dfg.node_count() == 0
                        ? 0
                        : (ctx.dfg.node_count() + kWordBits - 1) / kWordBits),
        max_size_(ctx.options.max_size),
        span_limit_(ctx.effective_span_limit),
        max_level_(ctx.levels.asap_max),
        asap_(ctx.levels.asap.data()),
        alap_(ctx.levels.alap.data()) {
    const std::size_t n = ctx.dfg.node_count();
    // An antichain can never exceed node_count members, so the mask stack
    // depth is bounded by min(max_size, n) no matter how large the
    // configured max_size is.
    const std::size_t depth = std::min<std::size_t>(max_size_, n);
    masks_.assign(depth * word_count_, 0);
    stack_.reserve(depth);
    path_.reserve(depth);
    // Hot-path caches: the color table snapshot skips dfg.color()'s
    // always-on bounds assert, and the span-row pointers skip two vector
    // indexings per antichain (the Accumulator preallocates by_size_span
    // once; rows never move).
    color_of_.resize(n);
    pm_of_.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      color_of_[v] = ctx.dfg.color(v);
      pm_of_[v] = ctx.reach.parallel_mask(v).words();
    }
    span_rows_.resize(acc_.by_size_span.size());
    for (std::size_t s = 0; s < acc_.by_size_span.size(); ++s)
      span_rows_[s] = acc_.by_size_span[s].data();
    // Level masks, one row per level t: early_ holds the nodes with
    // asap ≤ t, late_ those with alap ≥ t (prefix ORs over the rows).
    const auto levels = static_cast<std::size_t>(max_level_) + 1;
    early_.assign(levels * word_count_, 0);
    late_.assign(levels * word_count_, 0);
    for (NodeId v = 0; v < n; ++v) {
      const Word bit = Word{1} << (v % kWordBits);
      early_[static_cast<std::size_t>(asap_[v]) * word_count_ + v / kWordBits] |= bit;
      const auto alap = std::min(static_cast<std::size_t>(alap_[v]), levels - 1);
      late_[alap * word_count_ + v / kWordBits] |= bit;
    }
    for (std::size_t t = 1; t < levels; ++t)
      for (std::size_t k = 0; k < word_count_; ++k) {
        early_[t * word_count_ + k] |= early_[(t - 1) * word_count_ + k];
        late_[(levels - 1 - t) * word_count_ + k] |= late_[(levels - t) * word_count_ + k];
      }
    const std::size_t colors = ctx.dfg.color_count();
    color_masks_.assign(colors * word_count_, 0);
    for (NodeId v = 0; v < n; ++v)
      color_masks_[color_of_[v] * word_count_ + v / kWordBits] |= Word{1} << (v % kWordBits);
    leaf_mask_.assign(word_count_, 0);
    singles_.assign(colors, nullptr);
    slots_.resize(colors);
    touched_.reserve(colors);
  }

  /// Enumerates every antichain whose minimum node id is `root`.
  void run_root(NodeId root) {
    stack_.assign(1, root);
    path_.assign(1, with_color(nullptr, color_of_[root]));
    // Size-1 antichains always have span U(asap - alap) = 0 (asap ≤ alap).
    record(0);
    descend(pm_of_[root], asap_[root], alap_[root]);
  }

  /// Flushes the leaf counters and publishes the last pending chunk (and
  /// trips the limit check if the total crossed it). Must be called once
  /// after the worker's last root.
  void finish() {
    for (Node* prefix : counted_) flush_leaf_counter(prefix);
    budget_.flush();
  }

 private:
  using Node = Accumulator::Map::value_type;

  /// Leaf counters, per mask word: each add goes branch-free into
  /// kLowPlanes bit planes, which spill into kHighPlanes planes every
  /// kLowCapacity adds; the high planes flush into node_frequency every
  /// kHighCapacity adds. Neither tier's lanes can overflow. (A ripple-carry
  /// add straight into 16 planes has a data-dependent loop per word, and
  /// measured slower.)
  static constexpr std::size_t kLowPlanes = 4;
  static constexpr std::size_t kHighPlanes = 16;
  static constexpr std::size_t kCounterStride = kLowPlanes + kHighPlanes;
  static constexpr std::uint32_t kLowCapacity = (1u << kLowPlanes) - 1;
  static constexpr std::uint32_t kHighCapacity = (1u << kHighPlanes) - 1;
  /// Leaf-level path choice (a measured break-even): a prefix with fewer
  /// than kMinWordLeaves candidates per nonzero mask word runs the
  /// per-leaf loop.
  static constexpr std::uint64_t kMinWordLeaves = 4;

  /// One leaf color's tally in the running leaf loop.
  struct LeafSlot {
    Accumulator::Entry* entry = nullptr;
    std::uint64_t* freq = nullptr;
    std::uint64_t count = 0;
  };

  /// Walks the children of the current antichain `stack_`. `compat` is
  /// the AND of the parallel masks of all members (word_count_ words, tail
  /// bits zero); `max_asap`/`min_alap` carry the members' span state
  /// (SpanTracker's fields, inlined).
  void descend(const Word* compat, int max_asap, int min_alap) {
    if (stack_.size() + 1 < max_size_) {
      extend(compat, max_asap, min_alap);
    } else if (stack_.size() + 1 == max_size_) {
      leaves(compat, max_asap, min_alap);
    }
  }

  /// Calls fn(node, wi, span) for each candidate above the last member in
  /// id order; `wi` is the node's word index and `span` the span of the
  /// set plus the node, max(max_asap, asap) - min(min_alap, alap) clamped
  /// at 0. Only ids greater than the last member are probed, so each
  /// antichain is produced exactly once (as its sorted id sequence). The
  /// span limit L is applied word-parallel: span ≤ L iff asap ≤ min_alap+L
  /// and alap ≥ max_asap−L (the set itself is within L), and span is
  /// monotone in membership, so an overrun prunes the whole subtree.
  template <typename Fn>
  void for_each_candidate(const Word* compat, int max_asap, int min_alap, Fn&& fn) const {
    const std::size_t from = stack_.back() + 1;
    std::size_t wi = from / kWordBits;
    if (wi >= word_count_) return;
    const Word* early = early_row(min_alap + span_limit_);
    const Word* late = late_row(max_asap - span_limit_);
    Word w = compat[wi] & early[wi] & late[wi] & (~Word{0} << (from % kWordBits));
    while (true) {
      while (w != 0) {
        const auto node =
            static_cast<NodeId>(wi * kWordBits +
                                static_cast<std::size_t>(std::countr_zero(w)));
        w &= w - 1;
        const int span = std::max(max_asap, asap_[node]) - std::min(min_alap, alap_[node]);
        fn(node, wi, span > 0 ? span : 0);
      }
      if (++wi >= word_count_) return;
      w = compat[wi] & early[wi] & late[wi];
    }
  }

  /// An inner level: each candidate is recorded and extended further.
  void extend(const Word* compat, int max_asap, int min_alap) {
    for_each_candidate(compat, max_asap, min_alap, [&](NodeId node, std::size_t wi, int span) {
      stack_.push_back(node);
      path_.push_back(with_color(path_.back(), color_of_[node]));
      record(span);
      // Word-wise AND into the next depth's arena slot. Words below wi
      // are never read deeper in this subtree (every candidate there has
      // id > node ≥ wi·64), so the suffix suffices.
      Word* next = masks_.data() + (stack_.size() - 1) * word_count_;
      const Word* pm = pm_of_[node];
      for (std::size_t k = wi; k < word_count_; ++k) next[k] = compat[k] & pm[k];
      descend(next, std::max(max_asap, asap_[node]), std::min(min_alap, alap_[node]));
      stack_.pop_back();
      path_.pop_back();
    });
  }

  /// early_ row t (nodes with asap ≤ t), t clamped to the last level.
  const Word* early_row(int t) const {
    return early_.data() + static_cast<std::size_t>(std::min(t, max_level_)) * word_count_;
  }

  /// late_ row t (nodes with alap ≥ t), t clamped at 0.
  const Word* late_row(int t) const {
    return late_.data() + static_cast<std::size_t>(std::max(t, 0)) * word_count_;
  }

  /// The leaf level: every candidate completes a size-C antichain. Builds
  /// the candidate mask (for_each_candidate's words) once, then counts it
  /// word-parallel or walks it leaf by leaf; both tally identically.
  void leaves(const Word* compat, int max_asap, int min_alap) {
    const std::size_t from = stack_.back() + 1;
    const std::size_t first = from / kWordBits;
    if (first >= word_count_) return;
    const Word* early = early_row(min_alap + span_limit_);
    const Word* late = late_row(max_asap - span_limit_);
    Word* mask = leaf_mask_.data();
    for (std::size_t k = first; k < word_count_; ++k) mask[k] = compat[k] & early[k] & late[k];
    mask[first] &= ~Word{0} << (from % kWordBits);
    std::uint64_t found = 0;
    for (std::size_t k = first; k < word_count_; ++k)
      found += static_cast<std::uint64_t>(popcount(mask[k]));
    if (found == 0) return;
    // Both paths run over the mask's nonzero words [lo, hi) only.
    std::size_t lo = first, hi = word_count_;
    while (mask[lo] == 0) ++lo;
    while (mask[hi - 1] == 0) --hi;
    if (ctx_.options.collect_members || found < kMinWordLeaves * (hi - lo)) {
      leaf_loop(mask, lo, hi, max_asap, min_alap);
    } else {
      count_leaves(mask, lo, hi, found, max_asap, min_alap);
    }
    acc_.total += found;
    budget_.note(found);
  }

  /// Per-leaf tally of the candidate mask: a leaf bumps its span row, its
  /// color slot's count and its own frequency; each touched color then
  /// adds its count to its entry and to the prefix members' frequencies.
  void leaf_loop(const Word* mask, std::size_t lo, std::size_t hi, int max_asap, int min_alap) {
    Node* prefix = path_.back();
    std::uint64_t* row = span_rows_[max_size_];
    const bool collect = ctx_.options.collect_members;
    for (std::size_t wi = lo; wi < hi; ++wi) {
      for (Word w = mask[wi]; w != 0; w &= w - 1) {
        const auto leaf =
            static_cast<NodeId>(wi * kWordBits + static_cast<std::size_t>(std::countr_zero(w)));
        const int span = std::max(max_asap, asap_[leaf]) - std::min(min_alap, alap_[leaf]);
        ++row[span > 0 ? span : 0];
        const ColorId c = color_of_[leaf];
        LeafSlot& slot = slots_[c];
        if (slot.count++ == 0) {
          touched_.push_back(c);
          slot.entry = &with_color(prefix, c)->second;
          slot.freq = slot.entry->node_frequency.data();
        }
        ++slot.freq[leaf];
        if (collect) {
          slot.entry->members.push_back(stack_);
          slot.entry->members.back().push_back(leaf);
        }
      }
    }
    for (const ColorId c : touched_) {
      LeafSlot& slot = slots_[c];
      slot.entry->count += slot.count;
      for (const NodeId m : stack_) slot.freq[m] += slot.count;
      slot.count = 0;
    }
    touched_.clear();
  }

  /// Word-parallel tally of the `found` candidates in words [lo, hi) of
  /// `mask`: a few O(words) passes, however many leaves.
  void count_leaves(const Word* mask, std::size_t lo, std::size_t hi, std::uint64_t found,
                    int max_asap, int min_alap) {
    Node* prefix = path_.back();
    // Span rows: a leaf has span ≤ k iff asap ≤ min_alap+k and alap ≥
    // max_asap−k (the probe's identity at k = L); difference the counts.
    // Spans are monotone, so every leaf's lies in [the prefix's own, L],
    // and the passes stop once all leaves are placed.
    std::uint64_t* row = span_rows_[max_size_];
    std::uint64_t below = 0;
    for (int k = std::max(max_asap - min_alap, 0); k < span_limit_ && below < found; ++k) {
      const Word* early = early_row(min_alap + k);
      const Word* late = late_row(max_asap - k);
      std::uint64_t at_most = 0;
      for (std::size_t wi = lo; wi < hi; ++wi)
        at_most += static_cast<std::uint64_t>(popcount(mask[wi] & early[wi] & late[wi]));
      row[k] += at_most - below;
      below = at_most;
    }
    row[span_limit_] += found - below;

    // Colors: one popcount pass per color, the last by subtraction. Each
    // count reaches its child entry and the prefix members' frequencies.
    const std::size_t colors = singles_.size();
    std::uint64_t left = found;
    for (ColorId c = 0; left > 0; ++c) {
      std::uint64_t k = left;
      if (static_cast<std::size_t>(c) + 1 < colors) {
        k = 0;
        const Word* cm = color_masks_.data() + static_cast<std::size_t>(c) * word_count_;
        for (std::size_t wi = lo; wi < hi; ++wi)
          k += static_cast<std::uint64_t>(popcount(mask[wi] & cm[wi]));
        if (k == 0) continue;
      }
      left -= k;
      Accumulator::Entry& child = with_color(prefix, c)->second;
      child.count += k;
      for (const NodeId m : stack_) child.node_frequency[m] += k;
    }

    // Leaf frequencies: add the mask to the prefix pattern's bit-sliced
    // counters. A leaf's color is its own, so one counter serves every
    // child pattern.
    Accumulator::Entry& entry = prefix->second;
    if (entry.leaf_counter.empty()) {
      entry.leaf_counter.assign(word_count_ * kCounterStride, 0);
      counted_.push_back(prefix);
    }
    for (std::size_t wi = lo; wi < hi; ++wi) {
      Word* low = entry.leaf_counter.data() + wi * kCounterStride;
      Word carry = mask[wi];
      for (std::size_t p = 0; p + 1 < kLowPlanes; ++p) {
        const Word out = low[p] & carry;
        low[p] ^= carry;
        carry = out;
      }
      low[kLowPlanes - 1] ^= carry;
    }
    if (++entry.leaf_adds % kLowCapacity == 0) spill_leaf_counter(entry);
    if (entry.leaf_adds == kHighCapacity) flush_leaf_counter(prefix);
  }

  /// Adds each word's low planes into its high planes (a ripple-carry add
  /// per low plane, stopping once the carry dies) and clears them.
  void spill_leaf_counter(Accumulator::Entry& entry) {
    for (std::size_t wi = 0; wi < word_count_; ++wi) {
      Word* low = entry.leaf_counter.data() + wi * kCounterStride;
      Word* high = low + kLowPlanes;
      for (std::size_t b = 0; b < kLowPlanes; ++b) {
        for (Word* plane = high + b; low[b] != 0; ++plane) {
          const Word out = *plane & low[b];
          *plane ^= low[b];
          low[b] = out;
        }
      }
    }
  }

  /// Adds each lane of `prefix`'s leaf counters to h(prefix + color(v), v)
  /// and clears them. Every nonzero lane's child entry already exists:
  /// count_leaves created it when it counted that leaf.
  void flush_leaf_counter(Node* prefix) {
    Accumulator::Entry& entry = prefix->second;
    spill_leaf_counter(entry);
    for (std::size_t wi = 0; wi < word_count_; ++wi) {
      Word* high = entry.leaf_counter.data() + wi * kCounterStride + kLowPlanes;
      Word any = 0;
      for (std::size_t p = 0; p < kHighPlanes; ++p) any |= high[p];
      for (; any != 0; any &= any - 1) {
        const int bit = std::countr_zero(any);
        std::uint64_t lane = 0;
        for (std::size_t p = 0; p < kHighPlanes; ++p) lane |= ((high[p] >> bit) & 1U) << p;
        const auto leaf = static_cast<NodeId>(wi * kWordBits + static_cast<std::size_t>(bit));
        with_color(prefix, color_of_[leaf])->second.node_frequency[leaf] += lane;
      }
      std::fill(high, high + kHighPlanes, Word{0});
    }
    entry.leaf_adds = 0;
  }

  /// Records the current inner antichain `stack_`, whose entry is
  /// path_.back().
  void record(int span) {
    acc_.total += 1;
    span_rows_[stack_.size()][static_cast<std::size_t>(span)] += 1;
    Accumulator::Entry& entry = path_.back()->second;
    entry.count += 1;
    std::uint64_t* freq = entry.node_frequency.data();
    for (const NodeId m : stack_) freq[m] += 1;
    if (ctx_.options.collect_members) entry.members.push_back(stack_);
    budget_.note(1);
  }

  /// The entry of pattern(parent) plus color `c`; a null parent stands
  /// for the empty pattern. A hit in the parent's table is one load; a
  /// miss (once per pair and worker) looks the pattern up in the
  /// accumulator and creates its entry on first sight. Entries never
  /// dangle: unordered_map references survive rehash, and nothing erases.
  Node* with_color(Node* parent, ColorId c) {
    Node*& child = (parent == nullptr ? singles_ : parent->second.plus_color)[c];
    if (child != nullptr) return child;
    std::vector<ColorId> colors;
    if (parent != nullptr) colors = parent->first.colors();
    colors.push_back(c);
    const auto [it, created] = acc_.per_pattern.try_emplace(Pattern(std::move(colors)));
    if (created) {
      it->second.node_frequency.assign(ctx_.dfg.node_count(), 0);
      if (it->first.size() < max_size_) it->second.plus_color.assign(singles_.size(), nullptr);
    }
    child = &*it;
    return child;
  }

  const SearchContext& ctx_;
  Accumulator& acc_;
  CountBudget budget_;
  std::size_t word_count_;
  std::size_t max_size_;
  int span_limit_;
  int max_level_;  // ASAPmax: the last row of early_/late_
  const int* asap_;
  const int* alap_;
  std::vector<Word> masks_;  // depth-major arena: one compat mask per depth
  std::vector<Word> early_;  // level-major: nodes with asap ≤ t
  std::vector<Word> late_;   // level-major: nodes with alap ≥ t
  std::vector<Word> color_masks_;  // color-major: nodes of color c
  std::vector<Word> leaf_mask_;    // the current prefix's candidate mask
  std::vector<NodeId> stack_;
  std::vector<Node*> path_;                // entry of each prefix of stack_
  std::vector<Node*> singles_;             // size-1 entries by color
  std::vector<Node*> counted_;             // entries holding leaf counters
  std::vector<LeafSlot> slots_;            // leaf loop: one slot per color
  std::vector<ColorId> touched_;           // colors counted in this loop
  std::vector<ColorId> color_of_;          // dfg color table snapshot
  std::vector<const Word*> pm_of_;         // parallel-mask word pointers
  std::vector<std::uint64_t*> span_rows_;  // by_size_span row pointers
};

// ---------------------------------------------------------------------------
// Reference enumerator — the original copy-per-node recursion, kept as the
// validation oracle for the Walker (byte-identity tests and the pinned
// speedup gates in bench_perf_scaling). Strictly sequential.
// ---------------------------------------------------------------------------

void record_reference(const SearchContext& ctx, Accumulator& acc,
                      const std::vector<NodeId>& stack, int span) {
  acc.total += 1;
  acc.by_size_span[stack.size()][static_cast<std::size_t>(span)] += 1;

  std::vector<ColorId> colors;
  colors.reserve(stack.size());
  for (const NodeId n : stack) colors.push_back(ctx.dfg.color(n));
  Pattern pattern(std::move(colors));

  auto& entry = acc.per_pattern[pattern];
  if (entry.node_frequency.empty()) entry.node_frequency.assign(ctx.dfg.node_count(), 0);
  entry.count += 1;
  for (const NodeId n : stack) entry.node_frequency[n] += 1;
  if (ctx.options.collect_members) entry.members.push_back(stack);

  const std::uint64_t seen = ctx.global_count->fetch_add(1, std::memory_order_relaxed) + 1;
  MPSCHED_CHECK(seen <= ctx.options.max_antichains,
                "antichain enumeration exceeded the max_antichains safety limit (" +
                    std::to_string(ctx.options.max_antichains) + ")");
}

void extend_reference(const SearchContext& ctx, Accumulator& acc, std::vector<NodeId>& stack,
                      const DynamicBitset& compat, SpanTracker tracker) {
  if (stack.size() >= ctx.options.max_size) return;
  const std::size_t n = ctx.dfg.node_count();
  for (std::size_t j = compat.find_next(stack.back() + 1); j < n; j = compat.find_next(j + 1)) {
    const auto node = static_cast<NodeId>(j);
    const int new_span = tracker.span_with(node, ctx.levels);
    if (new_span > ctx.effective_span_limit) continue;
    stack.push_back(node);
    record_reference(ctx, acc, stack, new_span);
    DynamicBitset next_compat = compat;
    next_compat &= ctx.reach.parallel_mask(node);
    extend_reference(ctx, acc, stack, next_compat, tracker.with(node, ctx.levels));
    stack.pop_back();
  }
}

void enumerate_from_root_reference(const SearchContext& ctx, Accumulator& acc, NodeId root) {
  std::vector<NodeId> stack{root};
  SpanTracker tracker;
  tracker = tracker.with(root, ctx.levels);
  record_reference(ctx, acc, stack, 0);
  extend_reference(ctx, acc, stack, ctx.reach.parallel_mask(root), tracker);
}

/// Folds one partial per-pattern record into a merge entry.
void accumulate_entry(Accumulator::Entry& dst, std::uint64_t count,
                      const std::vector<std::uint64_t>& node_frequency,
                      std::vector<std::vector<NodeId>>&& members,
                      std::size_t node_count) {
  dst.count += count;
  if (dst.node_frequency.empty()) dst.node_frequency.assign(node_count, 0);
  MPSCHED_REQUIRE(node_frequency.size() == node_count,
                  "node_frequency does not match node_count");
  for (std::size_t i = 0; i < node_count; ++i)
    dst.node_frequency[i] += node_frequency[i];
  for (auto& m : members) dst.members.push_back(std::move(m));
}

/// Shared precondition checks for every enumeration entry point; returns
/// the span limit clamped to ASAPmax (spans can never exceed it).
int validate_and_clamp_span(const Dfg& dfg, const Levels& levels,
                            const Reachability& reach, const EnumerateOptions& options) {
  MPSCHED_REQUIRE(options.max_size >= 1, "max_size must be at least 1");
  MPSCHED_REQUIRE(options.max_size <= kMaxAntichainSize,
                  "max_size must be at most " + std::to_string(kMaxAntichainSize));
  MPSCHED_REQUIRE(levels.asap.size() == dfg.node_count(),
                  "levels do not belong to this graph");
  MPSCHED_REQUIRE(reach.node_count() == dfg.node_count(),
                  "reachability does not belong to this graph");
  MPSCHED_REQUIRE(!options.span_limit || *options.span_limit >= 0,
                  "span limit must be non-negative");
  const int span_cap = levels.asap_max;
  return options.span_limit.has_value() ? std::min(*options.span_limit, span_cap)
                                        : span_cap;
}

/// Ordered merge map → the canonical sorted per_pattern vector. The single
/// emission point for every enumeration path keeps sharded-and-merged
/// output bit-identical to the monolithic enumerator by construction.
std::vector<PatternAntichains> emit_per_pattern(
    std::map<Pattern, Accumulator::Entry>&& merged, bool sort_members) {
  std::vector<PatternAntichains> out;
  out.reserve(merged.size());
  for (auto& [pattern, entry] : merged) {
    PatternAntichains pa;
    pa.pattern = pattern;
    pa.antichain_count = entry.count;
    pa.node_frequency = std::move(entry.node_frequency);
    pa.members = std::move(entry.members);
    if (sort_members) std::sort(pa.members.begin(), pa.members.end());
    out.push_back(std::move(pa));
  }
  return out;
}

}  // namespace

std::uint64_t AntichainAnalysis::count_with_span_at_most(std::size_t size, int limit) const {
  if (size >= count_by_size_span.size()) return 0;
  std::uint64_t total_count = 0;
  const auto& row = count_by_size_span[size];
  for (std::size_t k = 0; k < row.size(); ++k)
    if (static_cast<int>(k) <= limit) total_count += row[k];
  return total_count;
}

const PatternAntichains* AntichainAnalysis::find(const Pattern& p) const {
  // per_pattern is emitted sorted by Pattern::operator< (every emission
  // path funnels through one ordered merge), so lookup is a binary search.
  const auto it = std::lower_bound(
      per_pattern.begin(), per_pattern.end(), p,
      [](const PatternAntichains& entry, const Pattern& key) { return entry.pattern < key; });
  if (it != per_pattern.end() && it->pattern == p) return &*it;
  return nullptr;
}

AntichainAnalysis enumerate_antichains(const Dfg& dfg, const Levels& levels,
                                       const Reachability& reach,
                                       const EnumerateOptions& options) {
  validate_and_clamp_span(dfg, levels, reach, options);
  const std::size_t n = dfg.node_count();
  // The pool's threads plus the calling one.
  const std::size_t n_workers =
      options.parallel && n >= 2 ? ThreadPool::shared().thread_count() + 1 : 1;
  // Cyclic root assignment: worker w handles roots w, w+W, w+2W, ... so the
  // expensive low-id roots (largest subtrees) spread across workers. One
  // shared count keeps the max_antichains valve global.
  std::atomic<std::uint64_t> count{0};
  std::vector<AntichainAnalysis> parts(n_workers);
  const auto run = [&](std::size_t w) {
    std::vector<NodeId> roots;
    for (std::size_t root = w; root < n; root += n_workers)
      roots.push_back(static_cast<NodeId>(root));
    parts[w] = enumerate_antichain_roots(dfg, levels, reach, options, roots, &count);
  };
  if (n_workers == 1) {
    run(0);
    return std::move(parts[0]);
  }
  ThreadPool::shared().parallel_for(n_workers, run);
  return merge_antichain_analyses(std::move(parts), n);
}

AntichainAnalysis enumerate_antichains_reference(const Dfg& dfg, const Levels& levels,
                                                const Reachability& reach,
                                                const EnumerateOptions& options) {
  const int effective_limit = validate_and_clamp_span(dfg, levels, reach, options);

  std::atomic<std::uint64_t> global_count{0};
  SearchContext ctx{dfg, levels, reach, options, effective_limit, &global_count};

  Accumulator acc(options.max_size, static_cast<std::size_t>(levels.asap_max));
  for (NodeId root = 0; root < dfg.node_count(); ++root)
    enumerate_from_root_reference(ctx, acc, root);

  std::map<Pattern, Accumulator::Entry> ordered;
  for (auto& [pattern, entry] : acc.per_pattern) ordered[pattern] = std::move(entry);
  AntichainAnalysis out;
  out.total = acc.total;
  out.count_by_size_span = std::move(acc.by_size_span);
  out.per_pattern = emit_per_pattern(std::move(ordered), options.collect_members);
  return out;
}

AntichainAnalysis enumerate_antichain_roots(const Dfg& dfg, const Levels& levels,
                                            const Reachability& reach,
                                            const EnumerateOptions& options,
                                            const std::vector<NodeId>& roots,
                                            std::atomic<std::uint64_t>* shared_count) {
  const int effective_limit = validate_and_clamp_span(dfg, levels, reach, options);

  std::atomic<std::uint64_t> local_count{0};
  SearchContext ctx{dfg, levels, reach, options, effective_limit,
                    shared_count != nullptr ? shared_count : &local_count};

  Accumulator acc(options.max_size, static_cast<std::size_t>(levels.asap_max));
  std::vector<bool> seen(dfg.node_count(), false);
  Walker walker(ctx, acc);
  for (const NodeId root : roots) {
    MPSCHED_REQUIRE(root < dfg.node_count(), "shard root out of range");
    MPSCHED_REQUIRE(!seen[root], "duplicate shard root would double-count");
    seen[root] = true;
    walker.run_root(root);
  }
  walker.finish();

  AntichainAnalysis out;
  out.total = acc.total;
  out.count_by_size_span = std::move(acc.by_size_span);
  std::map<Pattern, Accumulator::Entry> ordered;
  for (auto& [pattern, entry] : acc.per_pattern) ordered[pattern] = std::move(entry);
  out.per_pattern = emit_per_pattern(std::move(ordered), options.collect_members);
  return out;
}

AntichainAnalysis merge_antichain_analyses(std::vector<AntichainAnalysis> parts,
                                           std::size_t node_count) {
  AntichainAnalysis out;
  // Dimensions are uniform across shards of one graph + options; take the
  // maximum so merging an empty shard list still yields an empty analysis.
  std::size_t sizes = 0, spans = 0;
  for (const AntichainAnalysis& part : parts) {
    sizes = std::max(sizes, part.count_by_size_span.size());
    for (const auto& row : part.count_by_size_span) spans = std::max(spans, row.size());
  }
  out.count_by_size_span.assign(sizes, std::vector<std::uint64_t>(spans, 0));

  std::map<Pattern, Accumulator::Entry> merged;
  bool any_members = false;
  for (AntichainAnalysis& part : parts) {
    out.total += part.total;
    for (std::size_t s = 0; s < part.count_by_size_span.size(); ++s)
      for (std::size_t k = 0; k < part.count_by_size_span[s].size(); ++k)
        out.count_by_size_span[s][k] += part.count_by_size_span[s][k];
    for (PatternAntichains& pa : part.per_pattern) {
      if (!pa.members.empty()) any_members = true;
      accumulate_entry(merged[pa.pattern], pa.antichain_count, pa.node_frequency,
                       std::move(pa.members), node_count);
    }
  }
  out.per_pattern = emit_per_pattern(std::move(merged), any_members);
  return out;
}

namespace {

/// One root's estimate, with validation hoisted out into
/// estimate_root_costs().
std::uint64_t root_cost(const Levels& levels, const Reachability& reach,
                        const EnumerateOptions& options, int effective_limit, NodeId root) {
  if (options.max_size <= 1) return 1;

  SpanTracker tracker;
  tracker = tracker.with(root, levels);
  const DynamicBitset& compat = reach.parallel_mask(root);
  std::uint64_t width = 0;
  compat.for_each_from(root + 1, [&](std::size_t j) {
    if (tracker.span_with(static_cast<NodeId>(j), levels) <= effective_limit) ++width;
  });

  // Σ_{k=0}^{max_size-1} C(w, k) ≈ Σ w^k/k! — the subtree size if the
  // whole first level stayed mutually compatible; an upper-bound-shaped
  // estimate whose steep decay in w is what separates heavy roots from
  // light ones. Accumulated in double (exact well past any realistic
  // width) and saturated so a pathological graph cannot overflow.
  double cost = 0.0, term = 1.0;
  for (std::size_t k = 0; k < options.max_size; ++k) {
    cost += term;
    term = term * static_cast<double>(width >= k ? width - k : 0) /
           static_cast<double>(k + 1);
  }
  constexpr double kSaturate = 1e18;
  return static_cast<std::uint64_t>(cost < kSaturate ? cost : kSaturate);
}

}  // namespace

std::vector<std::uint64_t> estimate_root_costs(const Dfg& dfg, const Levels& levels,
                                               const Reachability& reach,
                                               const EnumerateOptions& options,
                                               ThreadPool* pool) {
  // Validation runs once, not once per root; each root's estimate is
  // independent and written into its own slot, so the pool fan-out is
  // byte-deterministic (gated by engine_test's
  // RootCostEstimatesAreIdenticalSerialAndParallel).
  const int effective_limit = validate_and_clamp_span(dfg, levels, reach, options);
  std::vector<std::uint64_t> costs(dfg.node_count());
  const auto eval = [&](std::size_t r) {
    costs[r] = root_cost(levels, reach, options, effective_limit, static_cast<NodeId>(r));
  };
  // Pool fan-out only when it can pay for itself. Must not be entered
  // from inside a task of the same pool (parallel_for waits for the whole
  // pool); the engine estimates on the thread running its dispatch, its
  // dispatcher or a blocking caller, outside any task of its own pool.
  constexpr std::size_t kParallelThreshold = 256;
  if (options.parallel && dfg.node_count() >= kParallelThreshold) {
    (pool != nullptr ? *pool : ThreadPool::shared()).parallel_for(dfg.node_count(), eval);
  } else {
    for (std::size_t r = 0; r < dfg.node_count(); ++r) eval(r);
  }
  return costs;
}

AntichainAnalysis enumerate_antichains(const Dfg& dfg, const EnumerateOptions& options) {
  const Levels levels = compute_levels(dfg);
  const Reachability reach(dfg);
  return enumerate_antichains(dfg, levels, reach, options);
}

}  // namespace mpsched

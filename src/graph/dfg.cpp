#include "graph/dfg.hpp"

#include <algorithm>
#include <deque>
#include <limits>

namespace mpsched {

const std::string& Dfg::name() const noexcept {
  static const std::string kDefaultName = Fields{}.name;
  return block_ ? block_->name : kDefaultName;
}

Dfg::Fields& Dfg::edit() {
  if (!block_)
    block_ = std::make_shared<Block>();
  else if (block_->shared.load())
    block_ = std::make_shared<Block>(static_cast<const Fields&>(*block_));
  else
    block_->hash_state.store(Block::kHashNone, std::memory_order_relaxed);
  return *block_;
}

Fnv128 Dfg::content_hash() const {
  if (block_ && block_->hash_state.load(std::memory_order_acquire) == Block::kHashReady)
    return block_->hash;
  Fnv128 h;
  h.feed_u64(node_count());
  for (NodeId n = 0; n < node_count(); ++n) {
    const std::string& text = color_name(color(n));
    h.feed_u64(text.size());
    h.feed(text);
  }
  h.feed_u64(edge_count());
  for (NodeId n = 0; n < node_count(); ++n)
    for (const NodeId s : succs(n)) {
      h.feed_u64(n);
      h.feed_u64(s);
    }
  // Publish only from "none": a thread that finds the memo being computed
  // or already ready keeps its own (identical) copy.
  if (block_) {
    std::uint8_t expected = Block::kHashNone;
    if (block_->hash_state.compare_exchange_strong(expected, Block::kHashComputing,
                                                   std::memory_order_relaxed)) {
      block_->hash = h;
      block_->hash_state.store(Block::kHashReady, std::memory_order_release);
    }
  }
  return h;
}

// The mutators validate against the current block before edit(), so a
// rejected call (or an idempotent intern_color) never clones a shared one.

ColorId Dfg::intern_color(std::string_view color_name) {
  MPSCHED_REQUIRE(!color_name.empty(), "color name must be non-empty");
  if (const auto id = find_color(color_name)) return *id;
  MPSCHED_REQUIRE(color_count() < std::numeric_limits<ColorId>::max(),
                  "too many distinct colors");
  const auto id = static_cast<ColorId>(color_count());
  Fields& f = edit();
  f.color_names.emplace_back(color_name);
  f.color_index.emplace(f.color_names.back(), id);
  return id;
}

NodeId Dfg::add_node(ColorId color, std::string node_name) {
  MPSCHED_REQUIRE(color < color_count(), "unknown color id");
  const auto id = static_cast<NodeId>(node_count());
  const auto taken = [this](const std::string& name) {
    return block_ && block_->node_index.contains(name);
  };
  if (node_name.empty()) {
    // "n<id>", unless a named node already holds it: then "n<id>_<k>" for
    // the first free k. Built as to_string + insert rather than
    // "n" + to_string(id): gcc 12's -Wrestrict false-positives on
    // operator+(const char*, string&&).
    node_name = std::to_string(id);
    node_name.insert(node_name.begin(), 'n');
    const std::size_t base_length = node_name.size();
    for (std::size_t k = 1; taken(node_name); ++k) {
      node_name.resize(base_length);
      node_name += '_';
      node_name += std::to_string(k);
    }
  } else {
    MPSCHED_REQUIRE(!taken(node_name), "duplicate node name '" + node_name + "'");
  }
  Fields& f = edit();
  f.colors.push_back(color);
  f.node_index.emplace(node_name, id);
  f.node_names.push_back(std::move(node_name));
  f.preds.emplace_back();
  f.succs.emplace_back();
  return id;
}

void Dfg::add_edge(NodeId from, NodeId to) {
  MPSCHED_REQUIRE(from < node_count(), "edge source out of range");
  MPSCHED_REQUIRE(to < node_count(), "edge target out of range");
  MPSCHED_REQUIRE(from != to, "self-loop on node '" + node_name(from) + "'");
  MPSCHED_REQUIRE(!has_edge(from, to),
                  "duplicate edge " + node_name(from) + " -> " + node_name(to));
  Fields& f = edit();
  f.succs[from].push_back(to);
  f.preds[to].push_back(from);
  ++f.edge_count;
}

std::optional<NodeId> Dfg::find_node(std::string_view node_name) const {
  if (!block_) return std::nullopt;
  const auto it = block_->node_index.find(std::string(node_name));
  if (it == block_->node_index.end()) return std::nullopt;
  return it->second;
}

std::optional<ColorId> Dfg::find_color(std::string_view color_name) const {
  if (!block_) return std::nullopt;
  const auto it = block_->color_index.find(std::string(color_name));
  if (it == block_->color_index.end()) return std::nullopt;
  return it->second;
}

std::vector<ColorId> Dfg::used_colors() const {
  std::vector<bool> seen(color_count(), false);
  for (NodeId n = 0; n < node_count(); ++n) seen[color(n)] = true;
  std::vector<ColorId> colors;
  for (std::size_t c = 0; c < seen.size(); ++c)
    if (seen[c]) colors.push_back(static_cast<ColorId>(c));
  return colors;
}

bool Dfg::has_edge(NodeId from, NodeId to) const {
  MPSCHED_ASSERT(from < node_count() && to < node_count());
  const auto& out = block_->succs[from];
  return std::find(out.begin(), out.end(), to) != out.end();
}

std::vector<NodeId> Dfg::topo_order() const {
  std::vector<std::size_t> pending(node_count());
  std::deque<NodeId> ready;
  for (NodeId n = 0; n < node_count(); ++n) {
    pending[n] = preds(n).size();
    if (pending[n] == 0) ready.push_back(n);
  }
  std::vector<NodeId> order;
  order.reserve(node_count());
  while (!ready.empty()) {
    const NodeId n = ready.front();
    ready.pop_front();
    order.push_back(n);
    for (const NodeId s : succs(n)) {
      if (--pending[s] == 0) ready.push_back(s);
    }
  }
  MPSCHED_CHECK(order.size() == node_count(), "graph '" + name() + "' contains a cycle");
  return order;
}

bool Dfg::is_dag() const {
  try {
    (void)topo_order();
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

void Dfg::validate() const { (void)topo_order(); }

}  // namespace mpsched

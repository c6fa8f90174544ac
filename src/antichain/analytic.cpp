#include "antichain/analytic.hpp"

#include <map>

#include "util/require.hpp"

namespace mpsched {

namespace {

/// Binomial coefficient with saturation (counts can reach ~C(10^4, 5) on
/// huge graphs; saturate rather than overflow — relative priorities stay
/// meaningful because saturation only kicks in far beyond any realistic
/// tie).
std::uint64_t binomial(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  constexpr std::uint64_t kSaturate = ~std::uint64_t{0} / 2;
  std::uint64_t result = 1;
  for (std::uint64_t i = 0; i < k; ++i) {
    // result *= (n - i) / (i + 1), carefully: multiply first, then divide;
    // intermediate fits because result ≤ saturate/2 and n ≤ 2^32 realistically.
    if (result > kSaturate / (n - i)) return kSaturate;
    result = result * (n - i) / (i + 1);
  }
  return result;
}

/// Recursively walks all color-count compositions (k_c ≤ available_c,
/// 1 ≤ Σk ≤ max_size) and reports each to `fn(ks, count_product)`.
template <typename Fn>
void walk_compositions(const std::vector<std::uint64_t>& available, std::size_t max_size,
                       std::size_t color, std::vector<std::uint32_t>& ks,
                       std::size_t taken, std::uint64_t product, Fn&& fn) {
  if (color == available.size()) {
    if (taken > 0) fn(ks, product);
    return;
  }
  const std::size_t room = max_size - taken;
  const std::uint64_t cap = std::min<std::uint64_t>(room, available[color]);
  for (std::uint64_t k = 0; k <= cap; ++k) {
    ks[color] = static_cast<std::uint32_t>(k);
    const std::uint64_t ways = binomial(available[color], k);
    walk_compositions(available, max_size, color + 1, ks, taken + k,
                      product * ways, fn);
  }
  ks[color] = 0;
}

}  // namespace

AntichainAnalysis analytic_level_analysis(const Dfg& dfg, const Levels& levels,
                                          std::size_t max_size) {
  MPSCHED_REQUIRE(max_size >= 1, "max_size must be at least 1");
  MPSCHED_REQUIRE(max_size <= kMaxAntichainSize,
                  "max_size must be at most " + std::to_string(kMaxAntichainSize));
  MPSCHED_REQUIRE(levels.asap.size() == dfg.node_count(),
                  "levels do not belong to this graph");

  const std::size_t n_colors = dfg.color_count();
  AntichainAnalysis out;
  out.count_by_size_span.assign(max_size + 1,
                                std::vector<std::uint64_t>(1, 0));  // all span 0

  // Group nodes by ASAP level.
  std::vector<std::vector<NodeId>> by_level(static_cast<std::size_t>(levels.asap_max) + 1);
  for (NodeId n = 0; n < dfg.node_count(); ++n)
    by_level[static_cast<std::size_t>(levels.asap[n])].push_back(n);

  std::map<Pattern, PatternAntichains> merged;

  for (const auto& level_nodes : by_level) {
    if (level_nodes.empty()) continue;
    // Per-color availability within this level.
    std::vector<std::uint64_t> available(n_colors, 0);
    for (const NodeId n : level_nodes) ++available[dfg.color(n)];

    std::vector<std::uint32_t> ks(n_colors, 0);
    walk_compositions(
        available, max_size, 0, ks, 0, 1,
        [&](const std::vector<std::uint32_t>& counts, std::uint64_t total) {
          if (total == 0) return;
          // Build the pattern for this composition.
          std::vector<ColorId> colors;
          std::size_t size = 0;
          for (ColorId c = 0; c < n_colors; ++c) {
            size += counts[c];
            for (std::uint32_t i = 0; i < counts[c]; ++i) colors.push_back(c);
          }
          Pattern pattern(std::move(colors));

          auto& entry = merged[pattern];
          entry.pattern = pattern;
          if (entry.node_frequency.empty())
            entry.node_frequency.assign(dfg.node_count(), 0);
          entry.antichain_count += total;
          out.total += total;
          out.count_by_size_span[size][0] += total;

          // Node frequency: antichains of this composition containing a
          // specific node of color c = C(n_c−1, k_c−1) · Π_{c'≠c} C(…).
          for (ColorId c = 0; c < n_colors; ++c) {
            if (counts[c] == 0) continue;
            const std::uint64_t with_node =
                total / binomial(available[c], counts[c]) *
                binomial(available[c] - 1, counts[c] - 1);
            for (const NodeId n : level_nodes)
              if (dfg.color(n) == c) entry.node_frequency[n] += with_node;
          }
        });
  }

  out.per_pattern.reserve(merged.size());
  for (auto& [pattern, entry] : merged) out.per_pattern.push_back(std::move(entry));
  return out;
}

AntichainAnalysis analytic_level_analysis(const Dfg& dfg, std::size_t max_size) {
  return analytic_level_analysis(dfg, compute_levels(dfg), max_size);
}

}  // namespace mpsched

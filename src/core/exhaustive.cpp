#include "core/exhaustive.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "antichain/enumerate.hpp"

namespace mpsched {

namespace {

/// All multisets of exactly `size` colors drawn from `colors`.
void enumerate_patterns(const std::vector<ColorId>& colors, std::size_t size,
                        std::size_t from, std::vector<ColorId>& current,
                        std::vector<Pattern>& out) {
  if (current.size() == size) {
    out.emplace_back(current);
    return;
  }
  for (std::size_t i = from; i < colors.size(); ++i) {
    current.push_back(colors[i]);
    enumerate_patterns(colors, size, i, current, out);
    current.pop_back();
  }
}

/// C(n, k), or UINT64_MAX when it does not fit in 64 bits.
std::uint64_t combinations(std::uint64_t n, std::uint64_t k) {
  constexpr std::uint64_t kSaturated = std::numeric_limits<std::uint64_t>::max();
  if (k > n) return 0;
  k = std::min(k, n - k);  // C(n, 0..k) then never decreases
  std::uint64_t result = 1;
  for (std::uint64_t i = 0; i < k; ++i) {
    // result·(n−i) is divisible by i+1; cancel the common factor first so
    // the product only overflows when C(n, i+1) itself does.
    const std::uint64_t g = std::gcd(result, i + 1);
    const std::uint64_t factor = (n - i) / ((i + 1) / g);
    if (result / g > kSaturated / factor) return kSaturated;
    result = result / g * factor;
  }
  return result;
}

}  // namespace

ExhaustiveResult exhaustive_pattern_search(const Dfg& dfg, const ExhaustiveOptions& options) {
  MPSCHED_REQUIRE(options.pattern_count >= 1, "Pdef must be positive");
  MPSCHED_REQUIRE(options.capacity <= kMaxAntichainSize,
                  "capacity C must be at most " + std::to_string(kMaxAntichainSize));
  dfg.validate();

  const std::vector<ColorId> colors = dfg.used_colors();
  MPSCHED_REQUIRE(!colors.empty(), "graph has no nodes");

  // Both counts are checked before any pattern is built: the universe
  // holds C(|L|+C−1, C) multisets of C colors.
  const std::string limit = " (limit " + std::to_string(options.max_combinations) + ")";
  const std::uint64_t universe_size =
      combinations(colors.size() + options.capacity - 1, options.capacity);
  MPSCHED_CHECK(universe_size <= options.max_combinations,
                "exhaustive search would build " + std::to_string(universe_size) +
                    " patterns" + limit);
  // Pdef caps a set's size. A universe of fewer patterns (one color makes
  // one pattern) is tried whole.
  const std::size_t k = std::min<std::uint64_t>(options.pattern_count, universe_size);
  const std::uint64_t total = combinations(universe_size, k);
  MPSCHED_CHECK(total <= options.max_combinations,
                "exhaustive search would evaluate " + std::to_string(total) +
                    " pattern sets" + limit);

  std::vector<Pattern> universe;
  std::vector<ColorId> scratch;
  enumerate_patterns(colors, options.capacity, 0, scratch, universe);

  ExhaustiveResult result;
  result.cycles = SIZE_MAX;

  // Iterate k-combinations of the universe.
  std::vector<std::size_t> idx(k);
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;

  while (true) {
    PatternSet set;
    for (const std::size_t i : idx) set.insert(universe[i]);
    if (set.covers(colors)) {
      MpScheduleResult r = multi_pattern_schedule(dfg, set, options.schedule);
      ++result.sets_evaluated;
      if (r.success && r.cycles < result.cycles) {
        result.cycles = r.cycles;
        result.best = std::move(set);
        result.schedule = std::move(r.schedule);
      }
    } else {
      ++result.sets_skipped;
    }

    // Next combination.
    std::size_t pos = idx.size();
    while (pos > 0) {
      --pos;
      if (idx[pos] != pos + universe.size() - idx.size()) {
        ++idx[pos];
        for (std::size_t j = pos + 1; j < idx.size(); ++j) idx[j] = idx[j - 1] + 1;
        break;
      }
      if (pos == 0) {
        MPSCHED_CHECK(result.cycles != SIZE_MAX,
                      "no covering pattern set exists for this Pdef");
        return result;
      }
    }
  }
}

}  // namespace mpsched

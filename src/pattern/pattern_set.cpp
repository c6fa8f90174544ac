#include "pattern/pattern_set.hpp"

#include <algorithm>
#include <set>

namespace mpsched {

PatternSet::PatternSet(std::vector<Pattern> patterns) {
  for (Pattern& p : patterns) insert(std::move(p));
}

bool PatternSet::insert(Pattern p) {
  if (!members_.insert(p).second) return false;
  patterns_.push_back(std::move(p));
  return true;
}

std::vector<ColorId> PatternSet::color_union() const {
  std::set<ColorId> seen;
  for (const Pattern& p : patterns_)
    for (const ColorId c : p.colors()) seen.insert(c);
  return {seen.begin(), seen.end()};
}

bool PatternSet::covers(const std::vector<ColorId>& colors) const {
  const std::vector<ColorId> have = color_union();
  return std::all_of(colors.begin(), colors.end(), [&have](ColorId c) {
    return std::binary_search(have.begin(), have.end(), c);
  });
}

std::size_t PatternSet::max_pattern_size() const {
  std::size_t m = 0;
  for (const Pattern& p : patterns_) m = std::max(m, p.size());
  return m;
}

std::string PatternSet::to_string(const Dfg& dfg) const {
  std::string out;
  for (std::size_t i = 0; i < patterns_.size(); ++i) {
    if (i) out += ", ";
    out += patterns_[i].to_string(dfg);
  }
  return out;
}

}  // namespace mpsched

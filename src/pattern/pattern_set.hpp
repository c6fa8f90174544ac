// PatternSet — an ordered collection of unique patterns, the "given
// patterns p̄1..p̄Pdef" the multi-pattern scheduler runs against, and the
// working set the selection algorithm builds up.
#pragma once

#include <unordered_set>
#include <vector>

#include "pattern/pattern.hpp"

namespace mpsched {

class PatternSet {
 public:
  PatternSet() = default;
  explicit PatternSet(std::vector<Pattern> patterns);

  /// Appends if not already present; returns true when inserted.
  bool insert(Pattern p);

  std::size_t size() const noexcept { return patterns_.size(); }
  bool empty() const noexcept { return patterns_.empty(); }

  const Pattern& operator[](std::size_t i) const {
    MPSCHED_ASSERT(i < patterns_.size());
    return patterns_[i];
  }

  const std::vector<Pattern>& patterns() const noexcept { return patterns_; }

  bool contains(const Pattern& p) const { return members_.contains(p); }

  /// Union of all colors over all member patterns (the paper's selected
  /// color set Ls when applied to the selection working set).
  std::vector<ColorId> color_union() const;

  /// True if every color in `colors` appears in some member pattern.
  bool covers(const std::vector<ColorId>& colors) const;

  /// Largest member pattern size (≤ C for well-formed sets).
  std::size_t max_pattern_size() const;

  /// "aabcc, aaacc" style rendering.
  std::string to_string(const Dfg& dfg) const;

  auto begin() const { return patterns_.begin(); }
  auto end() const { return patterns_.end(); }

 private:
  std::vector<Pattern> patterns_;
  std::unordered_set<Pattern, PatternHash> members_;
};

}  // namespace mpsched

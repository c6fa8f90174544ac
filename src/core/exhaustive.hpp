// Exhaustive pattern-set search — the quality oracle for the selection
// heuristic on small instances.
//
// For small color alphabets the space of candidate patterns is tiny: the
// multisets of exactly C colors over L colors number C(|L|+C−1, C) — e.g.
// 21 for |L|=3, C=5. Trying every color-covering Pdef-subset against the
// actual multi-pattern scheduler yields the best achievable cycle count
// for ANY pattern choice, which bounds how much the §5.2 heuristic (or the
// refinement pass) leaves on the table. Cost grows as C(21, Pdef); the
// guard counts both the universe and its Pdef-subsets before building any
// pattern.
#pragma once

#include <cstdint>

#include "core/mp_schedule.hpp"
#include "pattern/pattern_set.hpp"

namespace mpsched {

struct ExhaustiveOptions {
  std::size_t capacity = 5;       ///< C — patterns are exactly this size, ≤ kMaxAntichainSize
  std::size_t pattern_count = 2;  ///< Pdef
  /// Abort guard on the number of patterns in the universe and on the
  /// number of pattern sets to schedule.
  std::uint64_t max_combinations = 2'000'000;
  MpScheduleOptions schedule{};
};

struct ExhaustiveResult {
  PatternSet best;                 ///< a best pattern set
  Schedule schedule;               ///< its §4 schedule
  std::size_t cycles = 0;          ///< its schedule length
  std::uint64_t sets_evaluated = 0;
  std::uint64_t sets_skipped = 0;  ///< non-covering subsets skipped
};

/// Finds the minimum schedule length over all covering Pdef-subsets of the
/// full pattern universe (the whole universe when it holds fewer than Pdef
/// patterns). Throws when C exceeds kMaxAntichainSize or either count
/// exceeds the guard.
ExhaustiveResult exhaustive_pattern_search(const Dfg& dfg,
                                           const ExhaustiveOptions& options = {});

}  // namespace mpsched

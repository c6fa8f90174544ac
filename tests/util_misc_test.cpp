// Tests for RNG determinism, the table renderer, string helpers and the
// Hungarian assignment solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>

#include "util/hungarian.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace mpsched {
namespace {

// ---------------------------------------------------------------- RNG --

TEST(RngTest, SameSeedSameStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(7), b(8);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
  EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Rng rng(99);
  std::map<std::uint64_t, int> histogram;
  const int trials = 60000;
  for (int i = 0; i < trials; ++i) ++histogram[rng.below(6)];
  for (const auto& [value, count] : histogram) {
    EXPECT_LT(value, 6u);
    EXPECT_NEAR(count, trials / 6, trials / 60);  // within 10%
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, Uniform01HalfOpen) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(3);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, ForkIsIndependentOfParentUsage) {
  Rng a(21);
  Rng fork_early = a.fork(1);
  (void)a();
  (void)a();
  Rng b(21);
  Rng fork_b = b.fork(1);
  EXPECT_EQ(fork_early(), fork_b());  // fork depends only on seed state + id
}

// -------------------------------------------------------------- table --

TEST(TableTest, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add("x", 1);
  t.add("longer", 123);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer |   123 |"), std::string::npos);
}

TEST(TableTest, DoubleFormattingTrimsZeros) {
  TextTable t({"v"});
  t.add(12.4);
  t.add(7.0);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("12.4"), std::string::npos);
  EXPECT_NE(s.find("| 7 "), std::string::npos);  // integral double prints bare
}

// ------------------------------------------------------------- strings --

TEST(StringsTest, SplitWs) {
  EXPECT_EQ(split_ws("  a  bb\tc \n"), (std::vector<std::string>{"a", "bb", "c"}));
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(StringsTest, SplitKeepsEmptyTokens) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(starts_with("pattern", "pat"));
  EXPECT_FALSE(starts_with("pat", "pattern"));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringsTest, ParseSize) {
  EXPECT_EQ(parse_size("42"), 42u);
  EXPECT_EQ(parse_size("  7 "), 7u);
  EXPECT_THROW(parse_size("4x"), std::invalid_argument);
  EXPECT_THROW(parse_size("-3"), std::invalid_argument);
  EXPECT_THROW(parse_size(""), std::invalid_argument);
}

TEST(StringsTest, ParseSizeBounded) {
  // The CLI-flag variant: junk, signs, out-of-bound and overflowing
  // values all fail with a clean std::invalid_argument — never UB or a
  // silent wraparound (the overflow case below exceeds uint64 by far).
  EXPECT_EQ(parse_size("8", 16), 8u);
  EXPECT_EQ(parse_size("16", 16), 16u);     // inclusive bound
  EXPECT_EQ(parse_size(" 0 ", 16), 0u);
  EXPECT_THROW(parse_size("17", 16), std::invalid_argument);
  EXPECT_THROW(parse_size("banana", 16), std::invalid_argument);
  EXPECT_THROW(parse_size("-4", 16), std::invalid_argument);
  EXPECT_THROW(parse_size("+4", 16), std::invalid_argument);
  EXPECT_THROW(parse_size("4.5", 16), std::invalid_argument);
  EXPECT_THROW(parse_size("", 16), std::invalid_argument);
  EXPECT_THROW(parse_size("123456789012345678901234567890",
                          std::numeric_limits<std::size_t>::max()),
               std::invalid_argument);
  // The diagnostic names the accepted range.
  try {
    parse_size("99", 16);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("max 16"), std::string::npos);
  }
}

// ----------------------------------------------------------- hungarian --

TEST(HungarianTest, IdentityIsOptimalWhenDiagonalIsFree) {
  const std::vector<std::vector<long long>> cost = {
      {0, 5, 5}, {5, 0, 5}, {5, 5, 0}};
  const auto r = solve_assignment(cost);
  EXPECT_EQ(r.total_cost, 0);
  EXPECT_EQ(r.assignment, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(HungarianTest, FindsCrossAssignment) {
  // Diagonal expensive, anti-diagonal free.
  const std::vector<std::vector<long long>> cost = {{9, 0}, {0, 9}};
  const auto r = solve_assignment(cost);
  EXPECT_EQ(r.total_cost, 0);
  EXPECT_EQ(r.assignment, (std::vector<std::size_t>{1, 0}));
}

TEST(HungarianTest, ClassicExample) {
  const std::vector<std::vector<long long>> cost = {
      {4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  const auto r = solve_assignment(cost);
  EXPECT_EQ(r.total_cost, 5);  // 1 + 2 + 2
}

TEST(HungarianTest, MatchesBruteForceOnRandomMatrices) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 2 + rng.below(4);  // 2..5
    std::vector<std::vector<long long>> cost(n, std::vector<long long>(n));
    for (auto& row : cost)
      for (auto& c : row) c = static_cast<long long>(rng.below(20));

    const auto r = solve_assignment(cost);
    // Brute force over all permutations.
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    long long best = std::numeric_limits<long long>::max();
    do {
      long long total = 0;
      for (std::size_t i = 0; i < n; ++i) total += cost[i][perm[i]];
      best = std::min(best, total);
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_EQ(r.total_cost, best) << "trial " << trial;

    // Returned assignment must be a permutation achieving the cost.
    std::vector<bool> used(n, false);
    long long check = 0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_FALSE(used[r.assignment[i]]);
      used[r.assignment[i]] = true;
      check += cost[i][r.assignment[i]];
    }
    EXPECT_EQ(check, r.total_cost);
  }
}

TEST(HungarianTest, RejectsNonSquare) {
  EXPECT_THROW(solve_assignment({{1, 2}}), std::invalid_argument);
}

TEST(HungarianTest, EmptyMatrixIsFine) {
  const auto r = solve_assignment({});
  EXPECT_EQ(r.total_cost, 0);
  EXPECT_TRUE(r.assignment.empty());
}

}  // namespace
}  // namespace mpsched

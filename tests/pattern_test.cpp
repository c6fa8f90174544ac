// Pattern algebra: canonical form, subpattern relation, parsing, sets,
// random generation.
#include <gtest/gtest.h>

#include "pattern/parse.hpp"
#include "pattern/pattern_set.hpp"
#include "pattern/random.hpp"
#include "workloads/paper_graphs.hpp"

namespace mpsched {
namespace {

Dfg abc_graph() {
  Dfg g("abc");
  g.intern_color("a");
  g.intern_color("b");
  g.intern_color("c");
  g.add_node(ColorId{0}, "x");  // ensure all colors used somewhere
  g.add_node(ColorId{1}, "y");
  g.add_node(ColorId{2}, "z");
  return g;
}

TEST(PatternTest, CanonicalizesOrder) {
  const Pattern p1({2, 0, 1});
  const Pattern p2({0, 1, 2});
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(p1.hash(), p2.hash());
  EXPECT_EQ(p1.colors(), (std::vector<ColorId>{0, 1, 2}));
}

TEST(PatternTest, CountAndDistinct) {
  const Pattern p({0, 0, 2, 2, 2});
  EXPECT_EQ(p.size(), 5u);
  EXPECT_EQ(p.count(0), 2u);
  EXPECT_EQ(p.count(1), 0u);
  EXPECT_EQ(p.count(2), 3u);
  EXPECT_EQ(p.distinct_colors(), (std::vector<ColorId>{0, 2}));
}

TEST(PatternTest, SubpatternIsMultisetInclusion) {
  const Pattern aab({0, 0, 1});
  const Pattern aabcc({0, 0, 1, 2, 2});
  const Pattern aaa({0, 0, 0});
  EXPECT_TRUE(aab.is_subpattern_of(aabcc));
  EXPECT_FALSE(aabcc.is_subpattern_of(aab));
  EXPECT_FALSE(aaa.is_subpattern_of(aabcc));  // needs three 0s
  EXPECT_TRUE(Pattern{}.is_subpattern_of(aab));
  EXPECT_TRUE(aab.is_subpattern_of(aab));
}

TEST(PatternTest, WithColorKeepsCanonicalForm) {
  const Pattern p({2, 0});
  const Pattern q = p.with_color(1);
  EXPECT_EQ(q.colors(), (std::vector<ColorId>{0, 1, 2}));
}

TEST(PatternTest, SlotCounts) {
  const Pattern p({0, 0, 2});
  const auto slots = p.slot_counts(4);
  EXPECT_EQ(slots, (std::vector<std::uint32_t>{2, 0, 1, 0}));
  EXPECT_THROW(p.slot_counts(2), std::invalid_argument);  // color 2 out of range
}

TEST(PatternTest, OrderingBySizeThenColors) {
  const Pattern small({2});
  const Pattern big({0, 0});
  EXPECT_LT(small, big);  // size dominates
  EXPECT_LT(Pattern({0, 1}), Pattern({0, 2}));
}

TEST(PatternTest, ToStringSingleChar) {
  const Dfg g = abc_graph();
  EXPECT_EQ(Pattern({0, 0, 1, 2, 2}).to_string(g), "aabcc");
  EXPECT_EQ(Pattern{}.to_string(g), "{}");
}

TEST(ParseTest, SingleCharSyntax) {
  const Dfg g = abc_graph();
  const Pattern p = parse_pattern(g, "aabcc");
  EXPECT_EQ(p.to_string(g), "aabcc");
}

TEST(ParseTest, PaperBraceSyntax) {
  const Dfg g = abc_graph();
  EXPECT_EQ(parse_pattern(g, "{a,b,c,b,c}").to_string(g), "abbcc");
  EXPECT_EQ(parse_pattern(g, "{b,a,b,a,a}").to_string(g), "aaabb");
}

TEST(ParseTest, UnknownColorThrows) {
  const Dfg g = abc_graph();
  EXPECT_THROW(parse_pattern(g, "aaz"), std::invalid_argument);
  EXPECT_THROW(parse_pattern(g, ""), std::invalid_argument);
}

TEST(ParseTest, PatternSetWhitespaceAndBraces) {
  const Dfg g = abc_graph();
  const PatternSet s1 = parse_pattern_set(g, "aabcc aaacc");
  ASSERT_EQ(s1.size(), 2u);
  EXPECT_EQ(s1[0].to_string(g), "aabcc");
  const PatternSet s2 = parse_pattern_set(g, "{a,b,c,b,c}, {b,b,b,a,b}");
  ASSERT_EQ(s2.size(), 2u);
  EXPECT_EQ(s2[1].to_string(g), "abbbb");
}

TEST(PatternSetTest, InsertDeduplicates) {
  PatternSet set;
  EXPECT_TRUE(set.insert(Pattern({0, 1})));
  EXPECT_FALSE(set.insert(Pattern({1, 0})));  // same canonical pattern
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.contains(Pattern({0, 1})));
  EXPECT_FALSE(set.contains(Pattern({2})));
}

TEST(PatternSetTest, ColorUnionAndCoverage) {
  PatternSet set;
  set.insert(Pattern({0, 0}));
  set.insert(Pattern({2}));
  EXPECT_EQ(set.color_union(), (std::vector<ColorId>{0, 2}));
  EXPECT_TRUE(set.covers({0, 2}));
  EXPECT_FALSE(set.covers({0, 1}));
  EXPECT_EQ(set.max_pattern_size(), 2u);
}

TEST(RandomPatternTest, RespectsCapacity) {
  const Dfg g = abc_graph();
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(random_pattern(g, rng, 5).size(), 5u);
}

TEST(RandomPatternTest, CoverageConstraintHolds) {
  const Dfg g = workloads::paper_3dft();
  Rng rng(9);
  RandomPatternOptions options;
  options.capacity = 5;
  options.count = 1;
  for (int i = 0; i < 50; ++i) {
    const PatternSet set = random_pattern_set(g, rng, options);
    ASSERT_EQ(set.size(), 1u);
    EXPECT_TRUE(set.covers({0, 1, 2}));  // a, b, c all present
  }
}

TEST(RandomPatternTest, SameSeedSameSet) {
  const Dfg g = workloads::paper_3dft();
  Rng r1(123), r2(123);
  RandomPatternOptions options;
  options.count = 4;
  const PatternSet s1 = random_pattern_set(g, r1, options);
  const PatternSet s2 = random_pattern_set(g, r2, options);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) EXPECT_EQ(s1[i], s2[i]);
}

TEST(RandomPatternTest, ImpossibleCoverageThrows) {
  Dfg g("many-colors");
  for (int i = 0; i < 8; ++i)
    g.add_node(g.intern_color(std::string(1, static_cast<char>('a' + i))));
  Rng rng(1);
  RandomPatternOptions options;
  options.capacity = 2;
  options.count = 2;  // 4 slots < 8 colors: cannot cover
  EXPECT_THROW(random_pattern_set(g, rng, options), std::runtime_error);
}

}  // namespace
}  // namespace mpsched

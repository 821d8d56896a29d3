// ExpCuts level-report consistency.
#include <gtest/gtest.h>

#include "expcuts/report.hpp"
#include "rules/generator.hpp"

namespace pclass {
namespace expcuts {
namespace {

TEST(Report, ProfilesSumToTreeStats) {
  const RuleSet rs = generate_paper_ruleset("FW02");
  const BuiltTree tree = build_tree_parallel(rs, Config{});
  const ExpCutsClassifier cls(tree);
  const auto profiles = level_profiles(tree);
  ASSERT_FALSE(profiles.empty());
  u64 nodes = 0, cpa_words = 0;
  for (const LevelProfile& p : profiles) {
    EXPECT_LT(p.level, cls.schedule().depth());
    EXPECT_GT(p.nodes, 0u);
    EXPECT_GE(p.mean_distinct_children, 1.0);
    EXPECT_GE(p.mean_habs_set_bits, 1.0);
    nodes += p.nodes;
    cpa_words += p.cpa_words;
  }
  EXPECT_EQ(nodes, cls.stats().node_count);
  EXPECT_EQ(cpa_words, cls.stats().cpa_words);
}

TEST(Report, RootIsSingleNodeAtLevelZero) {
  const RuleSet rs = generate_paper_ruleset("FW01");
  const auto profiles = level_profiles(build_tree_parallel(rs, Config{}));
  ASSERT_FALSE(profiles.empty());
  EXPECT_EQ(profiles.front().level, 0u);
  EXPECT_EQ(profiles.front().nodes, 1u);
}

TEST(Report, RenderedTableMentionsChunks) {
  const RuleSet rs = generate_paper_ruleset("FW01");
  const std::string report = level_report(build_tree_parallel(rs, Config{}));
  EXPECT_NE(report.find("sip[31:24]"), std::string::npos);
  EXPECT_NE(report.find("cpa_words"), std::string::npos);
}

}  // namespace
}  // namespace expcuts
}  // namespace pclass

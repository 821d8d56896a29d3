// Semantic verifier + linter tests (src/analysis/).
//
// Three halves. The region algebra: exact union covers (including covers
// no single rule provides), subtraction, and the interval index against
// brute force. The certificate direction: freshly built ExpCuts images
// (aggregated and not) and HiCuts trees verify clean on every seed rule
// set, serially and in parallel, and the winner bitmap agrees with the
// linter. And the detection direction — the half that earns the verifier
// its keep: each injected *semantic* mutation (flipped leaf rule id,
// forged empty leaf, phantom match, swapped CPA children, reordered rule
// priorities) leaves the image structurally pristine yet must be caught,
// as its violation kind, with a region witness precise enough to
// reproduce the misclassification against linear search.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "analysis/region.hpp"
#include "analysis/verify_hicuts.hpp"
#include "analysis/verify_image.hpp"
#include "audit/image_audit.hpp"
#include "common/error.hpp"
#include "expcuts/build_parallel.hpp"
#include "expcuts/dynamic.hpp"
#include "expcuts/flat.hpp"
#include "expcuts/image_io.hpp"
#include "hicuts/hicuts.hpp"
#include "rules/generator.hpp"

namespace pclass {
namespace analysis {
namespace {

using audit::AuditReport;
using audit::Violation;
using audit::ViolationKind;
using expcuts::ExpCutsClassifier;
using expcuts::FlatImage;
using expcuts::kEmptyLeaf;
using expcuts::kLeafBit;
using expcuts::Ptr;

bool has(const AuditReport& r, ViolationKind k) {
  return std::any_of(r.violations.begin(), r.violations.end(),
                     [k](const Violation& v) { return v.kind == k; });
}

/// The first violation of kind `k`; fails the test if absent.
const Violation& first(const AuditReport& r, ViolationKind k) {
  for (const Violation& v : r.violations) {
    if (v.kind == k) return v;
  }
  ADD_FAILURE() << "no violation of kind " << to_string(k) << " in "
                << r.summary();
  static const Violation none{};
  return none;
}

/// Wildcard rule restricted to one source-port range.
Rule sport_rule(u16 lo, u16 hi, Action action = Action::kPermit) {
  return Rule::make(0, 0, 0, 0, lo, hi, 0, 65535, 0, /*proto_wildcard=*/true,
                    action);
}

Box sport_box(u64 lo, u64 hi) {
  Box b = Box::full();
  b[Dim::kSrcPort] = Interval(lo, hi);
  return b;
}

// ---------------------------------------------------------------- region

TEST(Region, SingleContainmentCovers) {
  u64 budget = 1000;
  EXPECT_EQ(covers_union(sport_box(10, 20), {sport_box(0, 100)}, &budget),
            Cover::kYes);
}

TEST(Region, UnionCoverNoSingleBoxProvides) {
  // [0,9] ∪ [10,20] covers [3,15]; neither piece alone does.
  u64 budget = 1000;
  EXPECT_EQ(covers_union(sport_box(3, 15),
                         {sport_box(0, 9), sport_box(10, 20)}, &budget),
            Cover::kYes);
}

TEST(Region, GapYieldsNoWithWitnessPoint) {
  // [0,9] ∪ [11,20] misses srcport 10.
  const Box target = sport_box(3, 15);
  const std::vector<Box> covers = {sport_box(0, 9), sport_box(11, 20)};
  u64 budget = 1000;
  EXPECT_EQ(covers_union(target, covers, &budget), Cover::kNo);
  std::array<u64, kNumDims> p{};
  u64 budget2 = 1000;
  ASSERT_TRUE(uncovered_point(target, covers, &budget2, p));
  EXPECT_TRUE(target.contains_point(p));
  for (const Box& c : covers) EXPECT_FALSE(c.contains_point(p));
}

TEST(Region, ZeroBudgetDegradesToUnknownNeverWrong) {
  u64 budget = 0;
  EXPECT_EQ(covers_union(sport_box(3, 15),
                         {sport_box(0, 9), sport_box(10, 20)}, &budget),
            Cover::kUnknown);
}

TEST(Region, SubtractPeelsDisjointExactPieces) {
  Box hole = sport_box(10, 20);
  hole[Dim::kProto] = Interval(6, 6);
  std::vector<Box> pieces;
  subtract(sport_box(0, 100), hole, pieces);
  ASSERT_FALSE(pieces.empty());
  // Pieces are disjoint from the hole, from each other, and together with
  // the hole tile the original box (checked by point counting per dim
  // pair that varies: srcport 0..100 x proto 0..255).
  u64 points = 0;
  for (const Box& p : pieces) {
    EXPECT_FALSE(p.overlaps(hole));
    points += (p[Dim::kSrcPort].hi - p[Dim::kSrcPort].lo + 1) *
              (p[Dim::kProto].hi - p[Dim::kProto].lo + 1);
  }
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    for (std::size_t j = i + 1; j < pieces.size(); ++j) {
      EXPECT_FALSE(pieces[i].overlaps(pieces[j]));
    }
  }
  EXPECT_EQ(points + 11 * 1, u64{101} * 256);
}

TEST(Region, IntervalIndexMatchesBruteForce) {
  std::vector<Interval> ivs;
  u64 x = 12345;
  const auto next = [&x] {  // xorshift, deterministic
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 300; ++i) {
    const u64 lo = next() % 1000;
    ivs.emplace_back(lo, lo + next() % 200);
  }
  const IntervalIndex idx(ivs);
  for (int q = 0; q < 100; ++q) {
    const u64 lo = next() % 1100;
    const Interval query(lo, lo + next() % 150);
    std::vector<u32> want;
    for (u32 i = 0; i < ivs.size(); ++i) {
      if (ivs[i].overlaps(query)) want.push_back(i);
    }
    EXPECT_EQ(idx.count(query), want.size());
    std::vector<u32> got;
    idx.each(query, [&got](u32 id) { got.push_back(id); });
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
  }
}

// ----------------------------------------------------- clean certificates

TEST(VerifyImage, SeedSetsCleanAggregatedAndNot) {
  // Representative subset; pclass_lint selftest proves all seven seed
  // sets (aggregated) on every ctest run.
  for (const std::string name : {"FW01", "CR02"}) {
    const RuleSet rules = generate_paper_ruleset(name);
    const expcuts::BuiltTree tree =
        expcuts::build_tree_parallel(rules, expcuts::Config{});
    const ExpCutsClassifier cls(tree);
    const SemanticReport agg =
        verify_flat_image(cls.flat(), cls.schedule(), rules);
    EXPECT_TRUE(agg.ok()) << name << ": " << agg.report.summary();
    EXPECT_GT(agg.regions, 0u) << name;

    const FlatImage direct(tree.nodes, tree.root, cls.config(),
                           /*aggregated=*/false);
    const SemanticReport plain =
        verify_flat_image(direct, cls.schedule(), rules);
    EXPECT_TRUE(plain.ok()) << name << ": " << plain.report.summary();
    // Same tree, same leaves: the winner sets must agree exactly.
    EXPECT_EQ(agg.winner, plain.winner) << name;
  }
}

TEST(VerifyImage, ParallelWalkIsDeterministicAndEqualToSerial) {
  const RuleSet rules = generate_paper_ruleset("FW02");
  const ExpCutsClassifier cls(rules);
  const SemanticReport serial =
      verify_flat_image(cls.flat(), cls.schedule(), rules);
  SemanticOptions opts;
  opts.threads = 4;
  const SemanticReport par =
      verify_flat_image(cls.flat(), cls.schedule(), rules, opts);
  EXPECT_TRUE(par.ok()) << par.report.summary();
  EXPECT_EQ(par.winner, serial.winner);
  // Memos are task-local, so parallel tasks re-walk subtrees shared
  // across their chunk ranges: region counts may exceed the serial walk,
  // never undershoot it.
  EXPECT_GE(par.regions, serial.regions);
}

TEST(VerifyHiCuts, AllSeedSetsClean) {
  for (const PaperRuleSetSpec& spec : paper_rulesets()) {
    const RuleSet rules = generate_paper_ruleset(spec.name);
    const hicuts::HiCutsClassifier hc(rules);
    const AuditReport r = verify_hicuts_tree(hc, rules);
    EXPECT_TRUE(r.ok()) << spec.name << ": " << r.summary();
  }
}

// ------------------------------------------------------ injected defects

/// The clean image + the word-surgery kit the mutation tests share. All
/// forgeries here keep the image structurally valid — the structural
/// auditor passes — so only the semantic walk can catch them.
class ImageSemanticsTest : public ::testing::Test {
 protected:
  ImageSemanticsTest()
      : rules_([] {
          GeneratorConfig cfg;
          cfg.rule_count = 120;
          cfg.seed = 7;
          return generate_ruleset(cfg);
        }()),
        cls_(rules_),
        words_(cls_.flat().words().begin(), cls_.flat().words().end()),
        root_(cls_.flat().root_ptr()),
        u_(cls_.flat().cpa_sub_log2()),
        w_(cls_.flat().stride()) {}

  FlatImage forged() const {
    return FlatImage(words_, root_, u_, w_, /*aggregated=*/true);
  }

  SemanticReport verify(const FlatImage& img) const {
    return verify_flat_image(img, cls_.schedule(), rules_);
  }

  /// Asserts the forgery still passes the structural audit (the defect is
  /// purely semantic) and returns the semantic report.
  SemanticReport verify_structurally_clean() const {
    const FlatImage img = forged();
    audit::AuditOptions opts;
    opts.rule_count = static_cast<u32>(rules_.size());
    const AuditReport structural =
        audit::audit_flat_image(img, cls_.schedule().depth(), opts);
    EXPECT_TRUE(structural.ok()) << structural.summary();
    return verify(img);
  }

  /// Word index of some matching leaf pointer. Headers never set bit 31,
  /// so any bit-31 word that is not the no-match marker is a leaf entry.
  u32 leaf_slot(u32 after = 0) const {
    for (u32 i = after; i < words_.size(); ++i) {
      if (expcuts::ptr_is_leaf(words_[i]) && words_[i] != kEmptyLeaf) {
        return i;
      }
    }
    ADD_FAILURE() << "no matching leaf in the image";
    return 0;
  }

  RuleSet rules_;
  ExpCutsClassifier cls_;
  std::vector<u32> words_;
  Ptr root_;
  u32 u_, w_;
};

TEST_F(ImageSemanticsTest, CleanImageWinnersMatchLinter) {
  const SemanticReport sem = verify(cls_.flat());
  ASSERT_TRUE(sem.ok()) << sem.report.summary();
  const LintReport lint = lint_rules(rules_);
  const CrossCheck xc = cross_check(lint, sem);
  EXPECT_TRUE(xc.consistent());
}

TEST_F(ImageSemanticsTest, DetectsFlippedLeafRuleId) {
  const u32 slot = leaf_slot();
  const RuleId old_id = words_[slot] & ~kLeafBit;
  words_[slot] = kLeafBit | ((old_id + 1) % rules_.size());
  const SemanticReport sem = verify_structurally_clean();
  EXPECT_FALSE(sem.ok());
  const Violation& v = first(sem.report, ViolationKind::kSemanticWrongRule);
  EXPECT_FALSE(v.region.empty());
  EXPECT_NE(v.detail.find("rule"), std::string::npos);
}

TEST_F(ImageSemanticsTest, DetectsForgedEmptyLeaf) {
  // A region with matches whose leaf claims no-match: a packet there
  // silently falls through the whole classifier.
  words_[leaf_slot()] = kEmptyLeaf;
  const SemanticReport sem = verify_structurally_clean();
  EXPECT_FALSE(sem.ok());
  EXPECT_FALSE(
      first(sem.report, ViolationKind::kSemanticMissedMatch).region.empty());
}

TEST(VerifyImage, DetectsPhantomMatch) {
  // The inverse forgery: an empty region claiming a match. Needs a rule
  // set with coverage gaps (the generator's sets end in a default rule),
  // so build one: two sport islands, srcport 100..199 uncovered.
  const RuleSet rules({sport_rule(0, 99), sport_rule(200, 299)}, "gapped");
  ASSERT_FALSE(rules.has_default());
  const ExpCutsClassifier cls(rules);
  std::vector<u32> words(cls.flat().words().begin(),
                         cls.flat().words().end());
  u32 slot = 0;
  for (u32 i = 0; i < words.size(); ++i) {
    if (words[i] == kEmptyLeaf) {
      slot = i;
      break;
    }
  }
  ASSERT_NE(slot, 0u) << "no empty leaf in the image";
  // An empty leaf's region intersects no rule (else some point in it
  // would match), so the forged id must surface as a phantom match.
  words[slot] = kLeafBit | 0;
  const FlatImage img(words, cls.flat().root_ptr(),
                      cls.flat().cpa_sub_log2(), cls.flat().stride(),
                      /*aggregated=*/true);
  const SemanticReport sem =
      verify_flat_image(img, cls.schedule(), rules);
  EXPECT_FALSE(sem.ok());
  const Violation& v =
      first(sem.report, ViolationKind::kSemanticPhantomMatch);
  EXPECT_FALSE(v.region.empty());
}

TEST_F(ImageSemanticsTest, DetectsSwappedCpaChildren) {
  // Swap two leaves deciding different rules: both regions now answer
  // with the other's id. Structurally nothing changed.
  const u32 a = leaf_slot();
  u32 b = leaf_slot(a + 1);
  while (words_[b] == words_[a]) b = leaf_slot(b + 1);
  std::swap(words_[a], words_[b]);
  const SemanticReport sem = verify_structurally_clean();
  EXPECT_FALSE(sem.ok());
  EXPECT_FALSE(
      first(sem.report, ViolationKind::kSemanticWrongRule).region.empty());
}

TEST(VerifyImage, DetectsReorderedRulePriorities) {
  // The image was compiled for [sport 0..100 deny, any permit]; verifying
  // it against the swapped list must fail — priority is the semantics.
  const RuleSet built({sport_rule(0, 100, Action::kDeny), Rule::any()},
                      "ordered");
  const ExpCutsClassifier cls(built);
  ASSERT_TRUE(verify_flat_image(cls.flat(), cls.schedule(), built).ok());
  const RuleSet swapped({Rule::any(), sport_rule(0, 100, Action::kDeny)},
                        "swapped");
  const SemanticReport sem =
      verify_flat_image(cls.flat(), cls.schedule(), swapped);
  EXPECT_FALSE(sem.ok());
  ASSERT_FALSE(sem.report.violations.empty());
  EXPECT_FALSE(sem.report.violations.front().region.empty());
}

TEST(VerifyHiCuts, DetectsLeafListForgeryAndCutForgery) {
  const RuleSet rules = generate_paper_ruleset("FW01");
  hicuts::HiCutsClassifier hc(rules);
  ASSERT_TRUE(verify_hicuts_tree(hc, rules).ok());

  // Find a non-empty leaf and drop its highest-priority rule — exactly
  // the class of defect a buggy builder refactor would introduce. The
  // classifier owns its nodes privately; the test performs surgery
  // through the read accessor.
  for (std::size_t i = 0; i < hc.node_count(); ++i) {
    const hicuts::Node& n = hc.node(i);
    if (n.is_leaf() && !n.rules.empty()) {
      auto& leaf = const_cast<hicuts::Node&>(n);  // test-only surgery
      const RuleId dropped = leaf.rules.front();
      leaf.rules.erase(leaf.rules.begin());
      const AuditReport r = verify_hicuts_tree(hc, rules);
      EXPECT_FALSE(r.ok());
      const Violation& v = first(r, ViolationKind::kSemanticLeafListWrong);
      EXPECT_FALSE(v.region.empty());
      leaf.rules.insert(leaf.rules.begin(), dropped);  // restore
      break;
    }
  }
  ASSERT_TRUE(verify_hicuts_tree(hc, rules).ok());

  // Shrink an internal node's cut_range: the stored geometry no longer
  // matches the region the tree actually routes there.
  for (std::size_t i = 0; i < hc.node_count(); ++i) {
    const hicuts::Node& n = hc.node(i);
    if (!n.is_leaf()) {
      auto& node = const_cast<hicuts::Node&>(n);
      const Interval saved = node.cut_range;
      node.cut_range.hi = node.cut_range.lo +
                          (node.cut_range.hi - node.cut_range.lo) / 2;
      const AuditReport r = verify_hicuts_tree(hc, rules);
      EXPECT_FALSE(r.ok());
      EXPECT_TRUE(has(r, ViolationKind::kSemanticCutMismatch))
          << r.summary();
      node.cut_range = saved;
      break;
    }
  }
}

// --------------------------------------------------------- lint + wiring

TEST(Lint, ThreadedRunIsDeterministic) {
  const RuleSet rules = generate_paper_ruleset("CR02");
  const LintReport serial = lint_rules(rules);
  LintOptions opts;
  opts.threads = 4;
  const LintReport par = lint_rules(rules, opts);
  ASSERT_EQ(par.findings.size(), serial.findings.size());
  for (std::size_t i = 0; i < par.findings.size(); ++i) {
    EXPECT_EQ(par.findings[i].kind, serial.findings[i].kind);
    EXPECT_EQ(par.findings[i].rule, serial.findings[i].rule);
  }
  EXPECT_EQ(par.shadowed, serial.shadowed);
  EXPECT_EQ(par.stats.overlap_pairs, serial.stats.overlap_pairs);
}

TEST(Lint, CrossCheckFlagsFabricatedDisagreement) {
  const RuleSet rules({sport_rule(0, 100), Rule::any()}, "tiny");
  const ExpCutsClassifier cls(rules);
  LintReport lint = lint_rules(rules);
  SemanticReport sem = verify_flat_image(cls.flat(), cls.schedule(), rules);
  ASSERT_TRUE(sem.ok());
  ASSERT_TRUE(cross_check(lint, sem).consistent());
  // Forge "rule 0 never wins" into the verifier's bitmap.
  sem.winner[0] = 0;
  const CrossCheck broken = cross_check(lint, sem);
  EXPECT_FALSE(broken.consistent());
  ASSERT_EQ(broken.dead_not_shadowed.size(), 1u);
  EXPECT_EQ(broken.dead_not_shadowed[0], 0u);
}

TEST(Wiring, LoadImageWithRulesVerifiesSemantics) {
  const RuleSet rules = generate_paper_ruleset("CR01");
  const ExpCutsClassifier cls(rules);
  std::stringstream wire;
  expcuts::save_image(wire, cls);
  const expcuts::LoadedImage li = expcuts::load_image(wire, rules);
  EXPECT_EQ(li.image.word_count(), cls.flat().word_count());

  // A semantically forged image (one flipped leaf) round-trips the
  // serializer fine — the checksum covers the forged words — and passes
  // the plain strict load, but the rules overload must throw.
  std::vector<u32> words(cls.flat().words().begin(),
                         cls.flat().words().end());
  for (u32 i = 0; i < words.size(); ++i) {
    if (expcuts::ptr_is_leaf(words[i]) && words[i] != kEmptyLeaf) {
      const RuleId id = words[i] & ~kLeafBit;
      words[i] = kLeafBit | ((id + 1) % rules.size());
      break;
    }
  }
  const FlatImage bad(words, cls.flat().root_ptr(),
                      cls.flat().cpa_sub_log2(), cls.flat().stride(),
                      /*aggregated=*/true);
  std::stringstream bad_wire;
  expcuts::save_image(bad_wire, bad, cls.config());
  EXPECT_NO_THROW(expcuts::load_image(bad_wire, /*strict=*/true));
  bad_wire.clear();
  bad_wire.seekg(0);
  EXPECT_THROW(expcuts::load_image(bad_wire, rules), AuditError);
}

TEST(Wiring, DynamicRebuildVerifiesWhenConfigured) {
  RuleSet rules = generate_paper_ruleset("FW01");
  expcuts::Config cfg;
  cfg.verify_semantics = true;
  expcuts::DynamicExpCutsClassifier dyn(rules, cfg, /*rebuild_threshold=*/4);
  // Enough updates to force verified rebuilds through the threshold.
  for (int i = 0; i < 6; ++i) {
    dyn.insert(sport_rule(static_cast<u16>(i * 10),
                          static_cast<u16>(i * 10 + 5)),
               0);
  }
  EXPECT_NO_THROW(dyn.rebuild());
  EXPECT_EQ(dyn.rules().size(), rules.size() + 6);
}

}  // namespace
}  // namespace analysis
}  // namespace pclass

// Structural auditor tests (src/audit/).
//
// Two halves. First, the certificate direction: freshly built ExpCuts /
// HiCuts / HSM structures audit clean, the stats account for every word,
// and a serialization round trip survives strict load. Second — the half
// that actually earns the auditor its keep — injected corruption: each
// forged defect class (HABS bit flips, truncated CPA, out-of-range child
// offsets, pointer cycles, level forgeries, oversized leaves, broken
// segmentations...) must be detected and reported as *its* violation
// kind, not merely "something failed".
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/bitops.hpp"

#include "audit/audit.hpp"
#include "classify/verify.hpp"
#include "common/error.hpp"
#include "expcuts/build_parallel.hpp"
#include "expcuts/flat.hpp"
#include "expcuts/image_io.hpp"
#include "hicuts/hicuts.hpp"
#include "hsm/hsm.hpp"
#include "packet/tracegen.hpp"
#include "rules/generator.hpp"

namespace pclass {
namespace audit {
namespace {

using expcuts::ExpCutsClassifier;
using expcuts::FlatImage;
using expcuts::kEmptyLeaf;
using expcuts::kLeafBit;
using expcuts::Ptr;

bool has(const AuditReport& r, ViolationKind k) {
  return std::any_of(r.violations.begin(), r.violations.end(),
                     [k](const Violation& v) { return v.kind == k; });
}

RuleSet small_rules() {
  GeneratorConfig cfg;
  cfg.rule_count = 120;
  cfg.seed = 7;
  return generate_ruleset(cfg);
}

/// The clean image + the word-surgery kit the corruption tests share.
class ImageAuditTest : public ::testing::Test {
 protected:
  ImageAuditTest()
      : rules_(small_rules()),
        cls_(rules_),
        words_(cls_.flat().words().begin(), cls_.flat().words().end()),
        root_(cls_.flat().root_ptr()),
        u_(cls_.flat().cpa_sub_log2()),
        w_(cls_.flat().stride()) {}

  /// Rebuilds a FlatImage over the (possibly mutated) word copy. The copy
  /// came from a layout-v2 builder, and the raw-words constructor defaults
  /// to kLayoutAligned, so forgeries stay subject to the v2 proofs.
  FlatImage forged(Ptr root) const {
    return FlatImage(words_, root, u_, w_, /*aggregated=*/true);
  }

  AuditReport audit(const FlatImage& img) const {
    AuditOptions opts;
    opts.rule_count = static_cast<u32>(rules_.size());
    return audit_flat_image(img, cls_.schedule().depth(), opts);
  }

  /// Word index (within the root node's CPA) of the first internal child
  /// pointer; the image is deep enough that one must exist.
  u32 internal_slot() const {
    const u32 habs = words_[root_] & 0xffff;
    const u32 span = 1 + (popcount32(habs) << u_);
    for (u32 k = 1; k < span; ++k) {
      if (!expcuts::ptr_is_leaf(words_[root_ + k])) return root_ + k;
    }
    ADD_FAILURE() << "no internal child under the root";
    return root_ + 1;
  }

  /// Word index of some real (matching) leaf pointer. Headers never set
  /// bit 31 (bits 24..31 are zero), so any bit-31 word that is not the
  /// explicit no-match marker is a leaf CPA entry.
  u32 leaf_slot() const {
    for (u32 i = 0; i < words_.size(); ++i) {
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

TEST_F(ImageAuditTest, CleanImageCertifiedOk) {
  const AuditReport r = audit_classifier(cls_);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.stats.words_total, words_.size());
  EXPECT_EQ(r.stats.words_reachable, words_.size());
  EXPECT_GT(r.stats.leaf_ptrs, 0u);
  EXPECT_LE(r.stats.max_depth, cls_.schedule().depth());
}

TEST_F(ImageAuditTest, CleanUnaggregatedImageCertifiedOk) {
  const expcuts::BuiltTree tree =
      expcuts::build_tree_parallel(rules_, cls_.config());
  const FlatImage direct(tree.nodes, tree.root, cls_.config(),
                         /*aggregated=*/false);
  const AuditReport r = audit(direct);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.stats.words_reachable, direct.words().size());
}

// The classifier owns everything it reads: built from a temporary rule
// set, it must still audit (rule-id range check included) and classify
// exactly once the temporary is gone.
TEST(ImageAudit, ClassifierOutlivesTemporaryRuleSet) {
  const ExpCutsClassifier cls(generate_paper_ruleset("FW01"));
  const RuleSet rules = generate_paper_ruleset("FW01");
  EXPECT_EQ(cls.rule_count(), rules.size());
  const AuditReport r = audit_classifier(cls);
  EXPECT_TRUE(r.ok()) << r.summary();

  TraceGenConfig tc;
  tc.count = 2000;
  const Trace trace = generate_trace(rules, tc);
  const VerifyResult res = verify_against_linear(cls, rules, trace);
  EXPECT_TRUE(res.ok()) << res.str();
}

TEST_F(ImageAuditTest, DetectsHabsBit0Flip) {
  words_[root_] &= ~u32{1};
  const AuditReport r = audit(forged(root_));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has(r, ViolationKind::kHabsBit0Clear)) << r.summary();
}

TEST(ImageAudit, DetectsForgedHabsBitsAboveEncodedRange) {
  // HABS positions past 2^v never correspond to a sub-array; a set bit
  // there desynchronizes every POP_COUNT rank after it. Needs v < 4 so
  // unused HABS positions exist: habs_v = 2 leaves bits 4..15 reserved.
  const RuleSet rules = small_rules();
  expcuts::Config cfg;
  cfg.habs_v = 2;
  const ExpCutsClassifier cls(rules, cfg);
  std::vector<u32> words(cls.flat().words().begin(),
                         cls.flat().words().end());
  const Ptr root = cls.flat().root_ptr();
  words[root] |= u32{1} << 7;  // forge a HABS bit past position 2^v = 4
  const FlatImage img(std::move(words), root, cls.flat().cpa_sub_log2(),
                      cls.flat().stride(), /*aggregated=*/true);
  AuditOptions opts;
  opts.rule_count = static_cast<u32>(rules.size());
  const AuditReport r =
      audit_flat_image(img, cls.schedule().depth(), opts);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has(r, ViolationKind::kHeaderFlagMismatch)) << r.summary();
}

TEST_F(ImageAuditTest, DetectsAggregationFlagMismatch) {
  words_[root_] &= ~(u32{1} << 23);
  const AuditReport r = audit(forged(root_));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has(r, ViolationKind::kHeaderFlagMismatch)) << r.summary();
}

TEST_F(ImageAuditTest, DetectsTruncatedImage) {
  words_.pop_back();  // the last node's CPA now extends past the image
  const AuditReport r = audit(forged(root_));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has(r, ViolationKind::kCpaOutOfBounds)) << r.summary();
}

TEST_F(ImageAuditTest, DetectsChildOffsetOutOfRange) {
  words_[internal_slot()] = static_cast<u32>(words_.size()) + 100;
  const AuditReport r = audit(forged(root_));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has(r, ViolationKind::kChildOutOfBounds)) << r.summary();
}

TEST_F(ImageAuditTest, DetectsPointerCycle) {
  words_[internal_slot()] = root_;  // child re-enters the root
  const AuditReport r = audit(forged(root_));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has(r, ViolationKind::kPointerCycle)) << r.summary();
}

TEST_F(ImageAuditTest, DetectsLeafRuleIdOutOfRange) {
  words_[leaf_slot()] = kLeafBit | (static_cast<u32>(rules_.size()) + 5);
  const AuditReport r = audit(forged(root_));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has(r, ViolationKind::kLeafRuleOutOfRange)) << r.summary();
}

TEST_F(ImageAuditTest, DetectsOrphanWords) {
  words_.push_back(0);
  words_.push_back(0);
  const AuditReport r = audit(forged(root_));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has(r, ViolationKind::kOrphanWords)) << r.summary();
}

TEST_F(ImageAuditTest, DetectsLevelForgery) {
  const Ptr child = words_[internal_slot()];
  u32 header = words_[child];
  header = (header & ~(u32{0x7f} << 16)) | (u32{9} << 16);  // claim level 9
  words_[child] = header;
  const AuditReport r = audit(forged(root_));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has(r, ViolationKind::kLevelNotMonotonic)) << r.summary();
}

TEST_F(ImageAuditTest, DetectsDepthBoundViolation) {
  // Audit the (clean) image against a forged tighter bound: internal
  // nodes past it must be reported, proving the W/w check is live.
  AuditOptions opts;
  const AuditReport r = audit_flat_image(cls_.flat(), 1, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has(r, ViolationKind::kDepthExceeded)) << r.summary();
}

TEST_F(ImageAuditTest, RootOutOfBoundsRejectedAtConstruction) {
  // FlatImage itself refuses an out-of-range root, so a corrupt root can
  // never even reach the auditor through this path (the auditor still
  // carries its own kRootOutOfBounds check as defense in depth).
  EXPECT_THROW(forged(static_cast<Ptr>(words_.size()) + 4), Error);
}

TEST_F(ImageAuditTest, LeafRootIsDegenerateButValid) {
  // A rule set decided entirely at the root serializes to zero words.
  const FlatImage img(std::vector<u32>{}, expcuts::make_leaf(0), u_, w_,
                      /*aggregated=*/true);
  const AuditReport r = audit(img);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.stats.leaf_ptrs, 1u);
}

TEST_F(ImageAuditTest, LeafRootOverLeftoverWordsIsOrphaned) {
  // ...but a leaf root sitting on top of a non-empty word array means the
  // builder leaked an entire image's worth of unreachable words.
  const AuditReport r = audit(forged(expcuts::make_leaf(0)));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has(r, ViolationKind::kOrphanWords)) << r.summary();
}

TEST_F(ImageAuditTest, ViolationCapTruncatesReport) {
  // Corrupt many leaves; with max_violations = 1 the report must stop at
  // one violation and say so.
  u32 forgedCount = 0;
  for (u32 i = 0; i < words_.size() && forgedCount < 8; ++i) {
    if (expcuts::ptr_is_leaf(words_[i]) && words_[i] != kEmptyLeaf) {
      words_[i] = kLeafBit | (static_cast<u32>(rules_.size()) + 1 + i);
      ++forgedCount;
    }
  }
  ASSERT_GE(forgedCount, 2u);
  AuditOptions opts;
  opts.rule_count = static_cast<u32>(rules_.size());
  opts.max_violations = 1;
  const AuditReport r =
      audit_flat_image(forged(root_), cls_.schedule().depth(), opts);
  EXPECT_EQ(r.violations.size(), 1u);
  EXPECT_TRUE(r.truncated);
}

TEST_F(ImageAuditTest, ViolationsCarryPathAndKindNames) {
  words_[internal_slot()] = root_;
  const AuditReport r = audit(forged(root_));
  ASSERT_FALSE(r.ok());
  const Violation& v = r.violations.front();
  EXPECT_STREQ(to_string(v.kind), "pointer-cycle");
  EXPECT_FALSE(r.summary().empty());
  // JSON emission round-trips the structured fields without throwing.
  std::ostringstream os;
  write_json(os, r, "test");
  EXPECT_NE(os.str().find("\"pointer-cycle\""), std::string::npos);
  EXPECT_NE(os.str().find("pclass-audit-v1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Layout-v2 invariants: alignment, pad-gap hygiene, level clustering.

TEST_F(ImageAuditTest, DetectsMisalignedNodesWhenLinearImageClaimsV2) {
  // A linearly packed image re-labeled as layout v2: nearly every node
  // start misses its 64-byte boundary.
  expcuts::Config cfg;
  cfg.layout = expcuts::kLayoutLinear;
  const ExpCutsClassifier lin(rules_, cfg);
  std::vector<u32> words(lin.flat().words().begin(),
                         lin.flat().words().end());
  const FlatImage img(std::move(words), lin.flat().root_ptr(),
                      lin.flat().cpa_sub_log2(), lin.flat().stride(),
                      /*aggregated=*/true, expcuts::kLayoutAligned);
  const AuditReport r = audit(img);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has(r, ViolationKind::kNodeMisaligned)) << r.summary();
}

TEST_F(ImageAuditTest, LinearLayoutSkipsV2Proofs) {
  // The same words audited under their true layout version stay clean:
  // the v2 proofs are layout-gated, not unconditional.
  expcuts::Config cfg;
  cfg.layout = expcuts::kLayoutLinear;
  const ExpCutsClassifier lin(rules_, cfg);
  const AuditReport r = audit(lin.flat());
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.stats.words_reachable, lin.flat().word_count());
}

TEST_F(ImageAuditTest, DetectsNonPadWordInAlignmentGap) {
  // Any word equal to kPadWord is genuine padding: headers keep bits
  // 24..31 clear and child offsets are bounded by the (much smaller)
  // image, so no structural word can collide with the sentinel.
  auto pad = std::find(words_.begin(), words_.end(), expcuts::kPadWord);
  ASSERT_NE(pad, words_.end()) << "image has no alignment gaps to corrupt";
  *pad = 0;
  const AuditReport r = audit(forged(root_));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has(r, ViolationKind::kBadPadWord)) << r.summary();
}

TEST_F(ImageAuditTest, DetectsLevelClusteringBreak) {
  // Relocate the root node to the end of the image: the tree stays
  // walkable, but a level-0 node now sits after every deeper node (and
  // the abandoned original root words corrupt their gap).
  const u32 habs = words_[root_] & 0xffff;
  const u32 span = 1 + (popcount32(habs) << u_);
  while (words_.size() % expcuts::kNodeAlignWords != 0) {
    words_.push_back(expcuts::kPadWord);
  }
  const Ptr new_root = static_cast<Ptr>(words_.size());
  for (u32 k = 0; k < span; ++k) words_.push_back(words_[root_ + k]);
  const AuditReport r = audit(forged(new_root));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has(r, ViolationKind::kLevelClusteringBroken)) << r.summary();
}

// ---------------------------------------------------------------------------
// Strict image load: the on-disk path must reject what the auditor rejects.

TEST_F(ImageAuditTest, StrictLoadAcceptsCleanImage) {
  std::stringstream wire;
  expcuts::save_image(wire, cls_);
  const expcuts::LoadedImage li = expcuts::load_image(wire, /*strict=*/true);
  EXPECT_EQ(li.image.word_count(), words_.size());
}

TEST_F(ImageAuditTest, StrictLoadRejectsForgedButChecksummedImage) {
  std::stringstream wire;
  expcuts::save_image(wire, cls_);
  std::string bytes = wire.str();
  // Serialized layout: 64-byte XPC3 header (fields + alignment padding),
  // then words, then the checksum. Forge the root header's HABS bit 0 and
  // re-checksum, modeling a buggy builder whose output is transport-clean
  // but structurally broken.
  const std::size_t word_base = 64;
  bytes[word_base + std::size_t{root_} * 4] &= static_cast<char>(~1);
  std::vector<u32> patched(words_.size());
  std::memcpy(patched.data(), bytes.data() + word_base, patched.size() * 4);
  const u64 sum = expcuts::image_checksum(cls_.config().stride_w,
                                          patched.data(), patched.size());
  std::memcpy(bytes.data() + word_base + patched.size() * 4, &sum, 8);

  std::istringstream lax(bytes);
  EXPECT_NO_THROW(expcuts::load_image(lax));  // checksum alone passes
  std::istringstream strict(bytes);
  EXPECT_THROW(expcuts::load_image(strict, /*strict=*/true), AuditError);
}

TEST_F(ImageAuditTest, LoadRejectsPayloadCountMismatchBeforeAllocating) {
  std::stringstream wire;
  expcuts::save_image(wire, cls_);
  std::string bytes = wire.str();
  // Forge the declared word count (u64 at offset 19 in XPC2/XPC3) up by one:
  // the remaining payload no longer matches, and the loader must say so
  // before trying to allocate or read.
  u64 count = 0;
  std::memcpy(&count, bytes.data() + 19, 8);
  ++count;
  std::memcpy(bytes.data() + 19, &count, 8);
  std::istringstream is(bytes);
  EXPECT_THROW(expcuts::load_image(is), ParseError);
}

TEST_F(ImageAuditTest, LoadRejectsImplausiblyLargeWordCount) {
  std::stringstream wire;
  expcuts::save_image(wire, cls_);
  std::string bytes = wire.str();
  const u64 huge = u64{1} << 40;
  std::memcpy(bytes.data() + 19, &huge, 8);
  std::istringstream is(bytes);
  EXPECT_THROW(expcuts::load_image(is), ParseError);
}

// ---------------------------------------------------------------------------
// HiCuts tree audit.

class HicutsAuditTest : public ::testing::Test {
 protected:
  HicutsAuditTest() : rules_(small_rules()), cls_(rules_) {}

  /// Test-only corruption access: the classifier rightly exposes nodes
  /// read-only, and forging defects is exactly the case const_cast exists
  /// to keep out of the public API.
  hicuts::Node& mutable_node(u32 i) {
    return const_cast<hicuts::Node&>(cls_.node(i));
  }
  u32 first_internal() const {
    for (u32 i = 0; i < cls_.node_count(); ++i) {
      if (!cls_.node(i).is_leaf()) return i;
    }
    ADD_FAILURE() << "no internal HiCuts node";
    return 0;
  }

  RuleSet rules_;
  hicuts::HiCutsClassifier cls_;
};

TEST_F(HicutsAuditTest, CleanTreeCertifiedOk) {
  const AuditReport r = audit_hicuts(cls_, rules_);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.stats.words_reachable, cls_.node_count());
}

TEST_F(HicutsAuditTest, DetectsDepthFieldForgery) {
  mutable_node(first_internal()).depth += 3;
  const AuditReport r = audit_hicuts(cls_, rules_);
  EXPECT_TRUE(has(r, ViolationKind::kDepthFieldWrong)) << r.summary();
}

TEST_F(HicutsAuditTest, DetectsChildIndexOutOfRange) {
  mutable_node(first_internal()).children[0] =
      static_cast<u32>(cls_.node_count()) + 9;
  const AuditReport r = audit_hicuts(cls_, rules_);
  EXPECT_TRUE(has(r, ViolationKind::kChildOutOfBounds)) << r.summary();
}

TEST_F(HicutsAuditTest, DetectsPointerCycle) {
  mutable_node(first_internal()).children[0] = first_internal();
  const AuditReport r = audit_hicuts(cls_, rules_);
  EXPECT_TRUE(has(r, ViolationKind::kPointerCycle)) << r.summary();
}

TEST_F(HicutsAuditTest, DetectsSeparableLeafOverflow) {
  // Stuff extra distinct rules into a leaf: now it exceeds binth *and*
  // cutting could have separated them, which is exactly the defect the
  // binth invariant guards (unlike inseparable leaves, tested below).
  u32 leaf = 0;
  for (u32 i = 0; i < cls_.node_count(); ++i) {
    if (cls_.node(i).is_leaf()) leaf = i;
  }
  hicuts::Node& n = mutable_node(leaf);
  for (RuleId id = 0; n.rules.size() <= cls_.config().binth; ++id) {
    if (std::find(n.rules.begin(), n.rules.end(), id) == n.rules.end()) {
      n.rules.push_back(id);
    }
  }
  const AuditReport r = audit_hicuts(cls_, rules_);
  EXPECT_TRUE(has(r, ViolationKind::kLeafOverflow)) << r.summary();
}

TEST(HicutsAudit, InseparableOverflowedLeafIsLegitimate) {
  // binth = 1 with identical duplicate rules: the builder cannot separate
  // them, so the oversized leaf is the documented escape hatch and must
  // NOT be flagged.
  RuleSet rs;
  Rule r = Rule::any();
  rs.push_back(r);
  rs.push_back(r);
  rs.push_back(r);
  hicuts::Config cfg;
  cfg.binth = 1;
  const hicuts::HiCutsClassifier cls(rs, cfg);
  const AuditReport rep = audit_hicuts(cls, rs);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST_F(HicutsAuditTest, DetectsLeafRuleIdOutOfRange) {
  u32 leaf = 0;
  for (u32 i = 0; i < cls_.node_count(); ++i) {
    if (cls_.node(i).is_leaf()) leaf = i;
  }
  mutable_node(leaf).rules.push_back(
      static_cast<RuleId>(rules_.size()) + 3);
  const AuditReport r = audit_hicuts(cls_, rules_);
  EXPECT_TRUE(has(r, ViolationKind::kLeafRuleOutOfRange)) << r.summary();
}

// ---------------------------------------------------------------------------
// HSM table audit.

class HsmAuditTest : public ::testing::Test {
 protected:
  HsmAuditTest() : rules_(small_rules()), cls_(rules_) {}

  RuleSet rules_;
  hsm::HsmClassifier cls_;
};

TEST_F(HsmAuditTest, CleanTablesCertifiedOk) {
  const AuditReport r = audit_hsm(cls_, static_cast<u32>(rules_.size()));
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST_F(HsmAuditTest, DetectsBrokenSegmentation) {
  auto& edges = const_cast<std::vector<u64>&>(
      cls_.segmentation(Dim::kSrcIp).right_edges);
  ASSERT_GE(edges.size(), 2u);
  std::swap(edges[0], edges[1]);  // no longer strictly ascending
  const AuditReport r = audit_hsm(cls_, static_cast<u32>(rules_.size()));
  EXPECT_TRUE(has(r, ViolationKind::kSegmentationBroken)) << r.summary();
}

TEST_F(HsmAuditTest, DetectsStageClassIdOutOfRange) {
  auto& table = const_cast<std::vector<u32>&>(cls_.x3().table);
  ASSERT_FALSE(table.empty());
  table[0] = 0x00ffffff;  // far past x3's class count
  const AuditReport r = audit_hsm(cls_, static_cast<u32>(rules_.size()));
  EXPECT_TRUE(has(r, ViolationKind::kClassIdOutOfRange)) << r.summary();
}

TEST_F(HsmAuditTest, DetectsFinalTableSizeMismatch) {
  auto& fin = const_cast<std::vector<RuleId>&>(cls_.final_table());
  ASSERT_FALSE(fin.empty());
  fin.pop_back();
  const AuditReport r = audit_hsm(cls_, static_cast<u32>(rules_.size()));
  EXPECT_TRUE(has(r, ViolationKind::kTableSizeMismatch)) << r.summary();
}

TEST_F(HsmAuditTest, DetectsFinalRuleIdOutOfRange) {
  auto& fin = const_cast<std::vector<RuleId>&>(cls_.final_table());
  ASSERT_FALSE(fin.empty());
  fin[0] = static_cast<RuleId>(rules_.size()) + 11;
  const AuditReport r = audit_hsm(cls_, static_cast<u32>(rules_.size()));
  EXPECT_TRUE(has(r, ViolationKind::kLeafRuleOutOfRange)) << r.summary();
}

}  // namespace
}  // namespace audit
}  // namespace pclass

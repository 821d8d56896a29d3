// ExpCuts correctness and invariant tests.
//
// The heavyweight guarantees under test:
//  * differential agreement with linear search on every paper rule set
//    (parameterized), for multiple strides and schedules;
//  * the explicit worst-case bound: no lookup exceeds W/w levels;
//  * the flat SRAM image is an exact serialization (same answers, and the
//    HABS path agrees with the unaggregated path);
//  * traced lookups report the documented access pattern (2 x 1-word
//    references per level).
#include <gtest/gtest.h>

#include <algorithm>

#include "classify/linear.hpp"
#include "classify/verify.hpp"
#include "expcuts/build_parallel.hpp"
#include "expcuts/flat.hpp"
#include "packet/tracegen.hpp"
#include "rules/generator.hpp"
#include "rules/parser.hpp"

namespace pclass {
namespace expcuts {
namespace {

Trace make_trace(const RuleSet& rules, std::size_t n, u64 seed) {
  TraceGenConfig cfg;
  cfg.count = n;
  cfg.seed = seed;
  return generate_trace(rules, cfg);
}

TEST(ExpCuts, PtrTagging) {
  EXPECT_TRUE(ptr_is_leaf(make_leaf(0)));
  EXPECT_TRUE(ptr_is_leaf(kEmptyLeaf));
  EXPECT_FALSE(ptr_is_leaf(12345));
  EXPECT_EQ(leaf_rule(make_leaf(77)), 77u);
  EXPECT_EQ(leaf_rule(kEmptyLeaf), kNoMatch);
}

TEST(ExpCuts, EmptyRuleSetAlwaysNoMatch) {
  RuleSet empty;
  const ExpCutsClassifier cls(empty);
  EXPECT_EQ(cls.classify(PacketHeader{1, 2, 3, 4, 5}), kNoMatch);
  EXPECT_EQ(cls.stats().node_count, 0u);
}

TEST(ExpCuts, SingleDefaultRule) {
  RuleSet rs;
  rs.push_back(Rule::any());
  const ExpCutsClassifier cls(rs);
  EXPECT_EQ(cls.classify(PacketHeader{9, 9, 9, 9, 9}), 0u);
  // The root itself is a decided leaf: zero nodes, zero memory beyond it.
  EXPECT_EQ(cls.stats().node_count, 0u);
}

TEST(ExpCuts, PriorityOrderWins) {
  // Two overlapping rules: the earlier one must win inside the overlap.
  const RuleSet rs = parse_classbench_string(
      "@192.168.0.0/16 0.0.0.0/0 0 : 65535 80 : 80 0x06/0xFF\n"
      "@192.168.0.0/16 0.0.0.0/0 0 : 65535 0 : 65535 0x06/0xFF\n"
      "@0.0.0.0/0 0.0.0.0/0 0 : 65535 0 : 65535 0x00/0x00\n");
  const ExpCutsClassifier cls(rs);
  EXPECT_EQ(cls.classify(PacketHeader{0xC0A80001, 5, 1000, 80, 6}), 0u);
  EXPECT_EQ(cls.classify(PacketHeader{0xC0A80001, 5, 1000, 81, 6}), 1u);
  EXPECT_EQ(cls.classify(PacketHeader{0x01000001, 5, 1000, 80, 6}), 2u);
}

TEST(ExpCuts, PortRangeBoundaries) {
  const RuleSet rs = parse_classbench_string(
      "@0.0.0.0/0 0.0.0.0/0 0 : 65535 1024 : 65535 0x06/0xFF\n"
      "@0.0.0.0/0 0.0.0.0/0 0 : 65535 0 : 65535 0x00/0x00\n");
  const ExpCutsClassifier cls(rs);
  EXPECT_EQ(cls.classify(PacketHeader{1, 2, 3, 1023, 6}), 1u);
  EXPECT_EQ(cls.classify(PacketHeader{1, 2, 3, 1024, 6}), 0u);
  EXPECT_EQ(cls.classify(PacketHeader{1, 2, 3, 65535, 6}), 0u);
  EXPECT_EQ(cls.classify(PacketHeader{1, 2, 3, 1024, 17}), 1u);
}

TEST(ExpCuts, NonAlignedRangeBoundaries) {
  // Range [1000, 3000] crosses chunk boundaries non-trivially.
  const RuleSet rs = parse_classbench_string(
      "@0.0.0.0/0 0.0.0.0/0 1000 : 3000 0 : 65535 0x00/0x00\n");
  const ExpCutsClassifier cls(rs);
  const LinearSearchClassifier ref(rs);
  for (u32 port : {0u, 999u, 1000u, 1001u, 1023u, 1024u, 2047u, 2048u, 2999u,
                   3000u, 3001u, 65535u}) {
    const PacketHeader h{5, 6, static_cast<u16>(port), 7, 8};
    EXPECT_EQ(cls.classify(h), ref.classify(h)) << "port " << port;
  }
}

TEST(ExpCuts, StatsAndFootprintConsistent) {
  const RuleSet rs = generate_paper_ruleset("FW01");
  const ExpCutsClassifier cls(rs);
  const TreeStats& st = cls.stats();
  EXPECT_EQ(st.depth, 13u);
  EXPECT_GT(st.node_count, 0u);
  EXPECT_LT(st.bytes_aggregated, st.bytes_unaggregated);
  EXPECT_EQ(st.bytes_unaggregated, st.node_count * (1 + 256) * 4 + 4);
  EXPECT_EQ(st.bytes_aggregated, (st.node_count + st.cpa_words) * 4 + 4);
  const MemoryFootprint fp = cls.footprint();
  EXPECT_EQ(fp.bytes, st.bytes_aggregated);
  EXPECT_EQ(fp.max_depth, 13u);
  // Paper observation: with 256 cuts the average number of distinct
  // children is small (<10).
  EXPECT_LT(st.mean_distinct_children, 10.0);
}

TEST(ExpCuts, FlatImageMatchesWordAccounting) {
  const RuleSet rs = generate_paper_ruleset("FW01");
  const BuiltTree tree = build_tree_parallel(rs, Config{});
  const ExpCutsClassifier cls(tree);
  // stats() keeps the paper's word-accounting formulas; the default image
  // adds layout-v2 alignment padding on top, bounded by one cache line of
  // pad per node (each node start rounds up to a 64-byte boundary).
  const u64 formula = cls.stats().bytes_aggregated;
  const u64 pad_cap = cls.stats().node_count * kNodeAlignWords * 4;
  EXPECT_GE(cls.flat().bytes(), formula);
  EXPECT_LE(cls.flat().bytes(), formula + pad_cap);
  // A linear-layout build has no padding: exact match against the paper
  // formulas, both aggregated and raw.
  Config linear_cfg = cls.config();
  linear_cfg.layout = kLayoutLinear;
  const FlatImage packed(tree.nodes, tree.root, linear_cfg);
  EXPECT_EQ(packed.bytes(), formula);
  const FlatImage raw(tree.nodes, tree.root, linear_cfg, false);
  EXPECT_EQ(raw.bytes(), cls.stats().bytes_unaggregated);
}

TEST(ExpCuts, UnaggregatedImageAgrees) {
  const RuleSet rs = generate_paper_ruleset("FW02");
  const BuiltTree tree = build_tree_parallel(rs, Config{});
  const ExpCutsClassifier cls(tree);
  const FlatImage raw(tree.nodes, tree.root, cls.config(), false);
  const Trace trace = make_trace(rs, 2000, 31);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(raw.lookup(trace[i], cls.schedule(), nullptr),
              cls.classify(trace[i]));
  }
}

TEST(ExpCuts, RiscPopcountPathAgrees) {
  const RuleSet rs = generate_paper_ruleset("FW01");
  const ExpCutsClassifier cls(rs);
  const Trace trace = make_trace(rs, 500, 33);
  LookupTrace lt;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    lt.clear();
    EXPECT_EQ(cls.flat().lookup(trace[i], cls.schedule(), &lt, false),
              cls.classify(trace[i]));
  }
}

TEST(ExpCuts, TracedAccessPattern) {
  const RuleSet rs = generate_paper_ruleset("FW01");
  const ExpCutsClassifier cls(rs);
  const Trace trace = make_trace(rs, 500, 17);
  LookupTrace lt;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    lt.clear();
    cls.classify_traced(trace[i], lt);
    // Two single-word references per visited level (header, CPA entry),
    // never more than 2 * depth total.
    EXPECT_LE(lt.access_count(), 2u * cls.schedule().depth());
    EXPECT_EQ(lt.access_count() % 2, 0u);
    u16 prev_level = 0;
    for (std::size_t k = 0; k < lt.accesses.size(); ++k) {
      EXPECT_EQ(lt.accesses[k].words, 1u);  // word-oriented SRAM reads
      EXPECT_GE(lt.accesses[k].level, prev_level);  // descending the tree
      prev_level = lt.accesses[k].level;
    }
  }
}

TEST(ExpCuts, DeterministicBuild) {
  const RuleSet rs = generate_paper_ruleset("FW02");
  const ExpCutsClassifier a(rs), b(rs);
  EXPECT_EQ(a.stats().node_count, b.stats().node_count);
  EXPECT_EQ(a.stats().cpa_words, b.stats().cpa_words);
  EXPECT_EQ(a.flat().root_ptr(), b.flat().root_ptr());
  EXPECT_TRUE(std::ranges::equal(a.flat().words(), b.flat().words()));
}

TEST(ExpCuts, SubtreeSharingIsExact) {
  const RuleSet rs = generate_paper_ruleset("FW01");
  Config shared_cfg;
  Config unshared_cfg;
  unshared_cfg.share_subtrees = false;
  const ExpCutsClassifier shared(rs, shared_cfg);
  const ExpCutsClassifier unshared(rs, unshared_cfg);
  // Sharing off disables the per-subtree memo and the structural dedup
  // together, so the unshared tree carries every duplicate subtree (on
  // FW01 roughly 80x the shared node count).
  EXPECT_GT(unshared.stats().node_count, 10 * shared.stats().node_count);
  const Trace trace = make_trace(rs, 3000, 41);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(shared.classify(trace[i]), unshared.classify(trace[i]))
        << trace[i].str();
  }
}

// --- Parameterized differential + invariant suite over rule sets and
// configurations ---

struct ExpParam {
  const char* ruleset;
  u32 stride;
  ChunkOrder order;
  u32 habs_v;
};

class ExpCutsDifferential : public ::testing::TestWithParam<ExpParam> {};

TEST_P(ExpCutsDifferential, AgreesWithLinearAndBoundsDepth) {
  const ExpParam p = GetParam();
  const RuleSet rs = generate_paper_ruleset(p.ruleset);
  Config cfg;
  cfg.stride_w = p.stride;
  cfg.order = p.order;
  cfg.habs_v = p.habs_v;
  const ExpCutsClassifier cls(rs, cfg);
  EXPECT_EQ(cls.stats().depth, kKeyBits / p.stride);

  const Trace trace = make_trace(rs, 4000, 0xD1FF ^ p.stride);
  const VerifyResult res = verify_against_linear(cls, rs, trace);
  EXPECT_TRUE(res.ok()) << res.str();

  // Explicit worst-case bound: every traced lookup visits at most W/w
  // levels (2 references each).
  LookupTrace lt;
  for (std::size_t i = 0; i < 500; ++i) {
    lt.clear();
    cls.classify_traced(trace[i], lt);
    EXPECT_LE(lt.access_count(), 2u * (kKeyBits / p.stride));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperRuleSets, ExpCutsDifferential,
    ::testing::Values(
        ExpParam{"FW01", 8, ChunkOrder::kInterleaved, 4},
        ExpParam{"FW02", 8, ChunkOrder::kInterleaved, 4},
        ExpParam{"FW03", 8, ChunkOrder::kInterleaved, 4},
        ExpParam{"CR01", 8, ChunkOrder::kInterleaved, 4},
        ExpParam{"CR02", 8, ChunkOrder::kInterleaved, 4},
        ExpParam{"CR03", 8, ChunkOrder::kInterleaved, 4},
        ExpParam{"CR04", 8, ChunkOrder::kInterleaved, 4},
        ExpParam{"FW02", 8, ChunkOrder::kSequential, 4},
        ExpParam{"CR01", 8, ChunkOrder::kSequential, 4},
        ExpParam{"FW01", 4, ChunkOrder::kInterleaved, 4},
        ExpParam{"CR01", 4, ChunkOrder::kInterleaved, 4},
        ExpParam{"FW01", 2, ChunkOrder::kInterleaved, 2},
        ExpParam{"FW01", 8, ChunkOrder::kInterleaved, 2},
        ExpParam{"FW01", 8, ChunkOrder::kInterleaved, 0}),
    [](const ::testing::TestParamInfo<ExpParam>& info) {
      return std::string(info.param.ruleset) + "_w" +
             std::to_string(info.param.stride) + "_v" +
             std::to_string(info.param.habs_v) +
             (info.param.order == ChunkOrder::kSequential ? "_seq" : "_int");
    });

}  // namespace
}  // namespace expcuts
}  // namespace pclass

// DynamicExpCuts: live rule updates stay exact against a freshly built
// linear reference after every mutation.
#include <gtest/gtest.h>

#include "classify/linear.hpp"
#include "classify/verify.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "expcuts/dynamic.hpp"
#include "packet/tracegen.hpp"
#include "rules/generator.hpp"
#include "rules/parser.hpp"

namespace pclass {
namespace expcuts {
namespace {

/// Asserts `dyn` classifies exactly like linear search over its current
/// rule view, on a fresh trace.
void expect_exact(DynamicExpCutsClassifier& dyn, u64 seed,
                  std::size_t packets = 800) {
  const RuleSet& view = dyn.rules();
  Trace trace;
  if (!view.empty()) {
    TraceGenConfig cfg;
    cfg.count = packets;
    cfg.seed = seed;
    trace = generate_trace(view, cfg);
  } else {
    Rng rng(seed);
    for (std::size_t i = 0; i < packets; ++i) {
      trace.push_back(sample_uniform(rng));
    }
  }
  const VerifyResult res = verify_against_linear(dyn, view, trace);
  ASSERT_TRUE(res.ok()) << res.str();
}

Rule port_rule(u16 dport) {
  return Rule::make(0, 0, 0, 0, 0, 65535, dport, dport, kProtoTcp);
}

TEST(Dynamic, InsertAtHighestPriorityWins) {
  RuleSet rs = parse_classbench_string(
      "@0.0.0.0/0 0.0.0.0/0 0 : 65535 80 : 80 0x06/0xFF\n"
      "@0.0.0.0/0 0.0.0.0/0 0 : 65535 0 : 65535 0x00/0x00\n");
  DynamicExpCutsClassifier dyn(rs);
  const PacketHeader web{1, 2, 3, 80, 6};
  EXPECT_EQ(dyn.classify(web), 0u);
  // A more specific rule inserted above must now win.
  dyn.insert(port_rule(80), 0);
  EXPECT_EQ(dyn.classify(web), 0u);
  EXPECT_EQ(dyn.rules().size(), 3u);
  // The old web rule moved to index 1.
  EXPECT_EQ(dyn.classify(PacketHeader{1, 2, 3, 80, 17}), 2u);  // default
}

TEST(Dynamic, InsertBelowExistingDoesNotShadow) {
  RuleSet rs = parse_classbench_string(
      "@0.0.0.0/0 0.0.0.0/0 0 : 65535 80 : 80 0x06/0xFF\n"
      "@0.0.0.0/0 0.0.0.0/0 0 : 65535 0 : 65535 0x00/0x00\n");
  DynamicExpCutsClassifier dyn(rs);
  dyn.insert(port_rule(80), 1);  // lower priority than the existing rule
  EXPECT_EQ(dyn.classify(PacketHeader{1, 2, 3, 80, 6}), 0u);
  expect_exact(dyn, 11);
}

TEST(Dynamic, EraseSnapshotRuleFallsThrough) {
  RuleSet rs = parse_classbench_string(
      "@0.0.0.0/0 0.0.0.0/0 0 : 65535 80 : 80 0x06/0xFF\n"
      "@0.0.0.0/0 0.0.0.0/0 0 : 65535 0 : 1023 0x06/0xFF\n"
      "@0.0.0.0/0 0.0.0.0/0 0 : 65535 0 : 65535 0x00/0x00\n");
  DynamicExpCutsClassifier dyn(rs);
  const PacketHeader web{1, 2, 3, 80, 6};
  EXPECT_EQ(dyn.classify(web), 0u);
  dyn.erase(0);  // tombstone: tree still answers the deleted rule
  // Now rule 1 (old index 1, new index 0) must match via the fallback.
  EXPECT_EQ(dyn.classify(web), 0u);
  EXPECT_EQ(dyn.rules().size(), 2u);
  expect_exact(dyn, 13);
}

TEST(Dynamic, EraseDeltaRule) {
  RuleSet rs = parse_classbench_string(
      "@0.0.0.0/0 0.0.0.0/0 0 : 65535 0 : 65535 0x00/0x00\n");
  DynamicExpCutsClassifier dyn(rs);
  dyn.insert(port_rule(443), 0);
  EXPECT_EQ(dyn.classify(PacketHeader{1, 2, 3, 443, 6}), 0u);
  dyn.erase(0);
  EXPECT_EQ(dyn.classify(PacketHeader{1, 2, 3, 443, 6}), 0u);  // default
  EXPECT_EQ(dyn.rules().size(), 1u);
}

TEST(Dynamic, RebuildThresholdTriggers) {
  RuleSet rs = generate_paper_ruleset("FW01");
  DynamicExpCutsClassifier dyn(std::move(rs), Config{}, 4);
  const u32 builds_before = dyn.rebuild_count();
  for (u16 p = 0; p < 4; ++p) {
    dyn.insert(port_rule(static_cast<u16>(10000 + p)), 0);
  }
  EXPECT_GT(dyn.rebuild_count(), builds_before);
  EXPECT_EQ(dyn.pending_updates(), 0u);
  expect_exact(dyn, 17);
}

TEST(Dynamic, ManualRebuildCompacts) {
  RuleSet rs = generate_paper_ruleset("FW01");
  DynamicExpCutsClassifier dyn(std::move(rs), Config{}, 1000);
  dyn.insert(port_rule(1234), 3);
  dyn.erase(10);
  EXPECT_GT(dyn.pending_updates(), 0u);
  dyn.rebuild();
  EXPECT_EQ(dyn.pending_updates(), 0u);
  expect_exact(dyn, 19);
}

TEST(Dynamic, PositionsValidated) {
  RuleSet rs = generate_paper_ruleset("FW01");
  DynamicExpCutsClassifier dyn(std::move(rs));
  EXPECT_THROW(dyn.insert(port_rule(1), dyn.rules().size() + 1), InternalError);
  EXPECT_THROW(dyn.erase(dyn.rules().size()), InternalError);
}

TEST(Dynamic, TracedChargesDeltaAndFallback) {
  RuleSet rs = parse_classbench_string(
      "@0.0.0.0/0 0.0.0.0/0 0 : 65535 80 : 80 0x06/0xFF\n"
      "@0.0.0.0/0 0.0.0.0/0 0 : 65535 0 : 65535 0x00/0x00\n");
  DynamicExpCutsClassifier dyn(rs, Config{}, 1000);
  LookupTrace before, after;
  const PacketHeader h{1, 2, 3, 9999, 6};
  dyn.classify_traced(h, before);
  dyn.insert(port_rule(443), 0);
  dyn.classify_traced(h, after);
  // The pending delta rule adds one 6-word reference to the worst case.
  EXPECT_GT(after.total_words(), before.total_words());
}

/// Asserts the batch path (one lock, image batch walk, per-packet
/// fix-ups) agrees with linear search over the current rule view.
void expect_batch_exact(const DynamicExpCutsClassifier& dyn, u64 seed,
                        std::size_t packets) {
  const RuleSet& view = dyn.rules();
  TraceGenConfig cfg;
  cfg.count = packets;
  cfg.seed = seed;
  const Trace trace = generate_trace(view, cfg);
  std::vector<RuleId> got(trace.size());
  dyn.classify_batch(trace.packets().data(), got.data(), trace.size());
  const LinearSearchClassifier linear(view);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(got[i], linear.classify(trace[i])) << trace[i].str();
  }
}

TEST(Dynamic, RandomizedChurnStaysExact) {
  RuleSet rs = generate_paper_ruleset("FW02");
  DynamicExpCutsClassifier dyn(std::move(rs), Config{}, 48);
  Rng rng(123);
  GeneratorConfig gen;
  gen.rule_count = 400;
  gen.seed = 77;
  gen.with_default = false;
  const RuleSet pool = generate_ruleset(gen);
  std::size_t pool_next = 0;
  for (int step = 0; step < 60; ++step) {
    if (dyn.rules().size() < 10 || rng.chance(0.6)) {
      const Rule& r = pool[static_cast<RuleId>(pool_next++ % pool.size())];
      dyn.insert(r, rng.next_below(dyn.rules().size() + 1));
    } else {
      dyn.erase(rng.next_below(dyn.rules().size()));
    }
    if (step % 10 == 9) {
      expect_exact(dyn, 1000 + step, 400);
      expect_batch_exact(dyn, 2000 + step, 400);
    }
    // Mid-churn (pending deltas and tombstones, not yet rebuilt).
    if (step % 10 == 4) {
      EXPECT_GT(dyn.pending_updates(), 0u);
      expect_batch_exact(dyn, 3000 + step, 400);
    }
  }
  expect_exact(dyn, 9999, 1500);
  expect_batch_exact(dyn, 8888, 1500);
}

}  // namespace
}  // namespace expcuts
}  // namespace pclass

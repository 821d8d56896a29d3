// DynamicExpCuts: live rule updates stay exact against a freshly built
// linear reference after every mutation, a failed update leaves the
// previous generation answering, and readers never wait on a rebuild.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

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

/// Installs the classifier's pre-publish seam, which runs after a
/// candidate generation is built and verified and before it is published.
struct DynamicExpCutsTestAccess {
  static void set_before_publish(DynamicExpCutsClassifier& dyn,
                                 std::function<void(bool rebuilt)> hook) {
    const MutexLock writer(dyn.update_mu_);
    dyn.before_publish_ = std::move(hook);
  }
};

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

/// Asserts classify and classify_batch both answer exactly like linear
/// search over `view`, which may be a copy taken before an update.
void expect_matches_view(const DynamicExpCutsClassifier& dyn,
                         const RuleSet& view, u64 seed) {
  TraceGenConfig cfg;
  cfg.count = 600;
  cfg.seed = seed;
  const Trace trace = generate_trace(view, cfg);
  const LinearSearchClassifier linear(view);
  std::vector<RuleId> got(trace.size());
  dyn.classify_batch(trace.packets().data(), got.data(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const RuleId want = linear.classify(trace[i]);
    ASSERT_EQ(dyn.classify(trace[i]), want) << trace[i].str();
    ASSERT_EQ(got[i], want) << trace[i].str();
  }
}

TEST(Dynamic, FailedRebuildKeepsPreviousGeneration) {
  constexpr u32 kThreshold = 8;
  Config cfg;
  cfg.verify_semantics = true;
  DynamicExpCutsClassifier dyn(generate_paper_ruleset("FW01"), cfg,
                               kThreshold);
  const u32 builds = dyn.rebuild_count();
  // Churn up to one update short of the threshold.
  Rng rng(31);
  u16 port = 20000;
  while (dyn.pending_updates() + 1 < kThreshold) {
    if (rng.chance(0.6)) {
      dyn.insert(port_rule(port++), rng.next_below(dyn.rules().size() + 1));
    } else {
      dyn.erase(rng.next_below(dyn.rules().size()));
    }
  }
  ASSERT_EQ(dyn.rebuild_count(), builds);
  const RuleSet before = dyn.rules();
  const u32 pending = dyn.pending_updates();

  // The update that trips the threshold builds and verifies a new image;
  // the seam then rejects it, standing in for a failed verification.
  int seam_calls = 0;
  DynamicExpCutsTestAccess::set_before_publish(dyn, [&](bool rebuilt) {
    ++seam_calls;
    if (rebuilt) throw AuditError("injected: candidate image rejected");
  });
  EXPECT_THROW(dyn.insert(port_rule(port++), 0), AuditError);
  EXPECT_THROW(dyn.erase(0), AuditError);  // a tombstone trips it too
  EXPECT_EQ(seam_calls, 2);

  // Nothing of either candidate is visible.
  EXPECT_EQ(dyn.rules().rules(), before.rules());
  EXPECT_EQ(dyn.pending_updates(), pending);
  EXPECT_EQ(dyn.rebuild_count(), builds);
  expect_matches_view(dyn, before, 41);

  // With the seam cleared the next update rebuilds and stays exact.
  DynamicExpCutsTestAccess::set_before_publish(dyn, nullptr);
  dyn.insert(port_rule(port++), 0);
  EXPECT_EQ(dyn.rebuild_count(), builds + 1);
  EXPECT_EQ(dyn.pending_updates(), 0u);
  EXPECT_EQ(dyn.rules().size(), before.size() + 1);
  expect_exact(dyn, 43);
  expect_batch_exact(dyn, 47, 600);
}

TEST(Dynamic, ReadersProgressDuringRebuild) {
  constexpr int kBatches = 64;
  DynamicExpCutsClassifier dyn(generate_paper_ruleset("FW01"), Config{},
                               1000);
  TraceGenConfig tcfg;
  tcfg.count = 512;
  tcfg.seed = 53;
  const Trace trace = generate_trace(dyn.rules(), tcfg);
  const LinearSearchClassifier linear(dyn.rules());
  std::vector<RuleId> want(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    want[i] = linear.classify(trace[i]);
  }

  std::atomic<int> batches{0};
  std::atomic<int> mismatches{0};
  std::atomic<bool> stop{false};
  // Held inside the rebuild, after build and verify: a reader that has to
  // wait for the rebuild cannot make progress, so the wait times out.
  int progressed = -1;
  DynamicExpCutsTestAccess::set_before_publish(dyn, [&](bool rebuilt) {
    if (!rebuilt) return;
    const int start = batches.load();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (batches.load() - start < kBatches &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    progressed = batches.load() - start;
  });
  std::thread reader([&] {
    constexpr std::size_t kBatch = 32;
    std::vector<RuleId> out(kBatch);
    std::size_t cursor = 0;
    while (!stop.load()) {
      if (cursor + kBatch > trace.size()) cursor = 0;
      dyn.classify_batch(trace.packets().data() + cursor, out.data(), kBatch);
      for (std::size_t i = 0; i < kBatch; ++i) {
        if (out[i] != want[cursor + i]) mismatches.fetch_add(1);
      }
      cursor += kBatch;
      batches.fetch_add(1);
    }
  });
  dyn.rebuild();
  stop.store(true);
  reader.join();
  EXPECT_GE(progressed, kBatches);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(dyn.pending_updates(), 0u);
}

TEST(Dynamic, ConcurrentChurnUnderReaders) {
  constexpr u32 kThreshold = 4;
  constexpr u32 kRebuilds = 5;
  constexpr std::size_t kBatch = 32;
  const RuleSet initial = generate_paper_ruleset("FW01");
  ASSERT_TRUE(initial.has_default());
  const RuleId default_id = static_cast<RuleId>(initial.size() - 1);
  ASSERT_TRUE(initial[default_id].covers(Box::full()));
  // The writer's rules: one TCP destination port each.
  std::vector<Rule> writer_rules;
  for (u16 p = 0; p < 16; ++p) {
    writer_rules.push_back(port_rule(static_cast<u16>(61000 + p)));
  }
  // Reader packets: each matches a non-default initial rule and none of
  // the writer's, so every generation answers exactly as `initial` does.
  const LinearSearchClassifier linear(initial);
  TraceGenConfig tcfg;
  tcfg.count = 2048;
  tcfg.seed = 59;
  std::vector<PacketHeader> pkts;
  std::vector<RuleId> want;
  const Trace trace = generate_trace(initial, tcfg);
  for (const PacketHeader& h : trace.packets()) {
    const RuleId id = linear.classify(h);
    const bool writer_hit =
        std::any_of(writer_rules.begin(), writer_rules.end(),
                    [&](const Rule& r) { return r.matches(h); });
    if (id != default_id && !writer_hit) {
      pkts.push_back(h);
      want.push_back(id);
    }
  }
  pkts.resize(pkts.size() / kBatch * kBatch);
  ASSERT_GE(pkts.size(), 8 * kBatch);

  DynamicExpCutsClassifier dyn(initial, Config{}, kThreshold);
  const u32 builds = dyn.rebuild_count();
  std::atomic<bool> stop{false};
  std::atomic<u64> lookups{0};
  std::atomic<u64> mismatches{0};
  const auto read = [&](std::size_t start) {
    std::vector<RuleId> out(kBatch);
    std::size_t cursor = start;
    while (!stop.load()) {
      if (cursor + kBatch > pkts.size()) cursor = 0;
      dyn.classify_batch(pkts.data() + cursor, out.data(), kBatch);
      for (std::size_t i = 0; i < kBatch; ++i) {
        if (out[i] != want[cursor + i]) mismatches.fetch_add(1);
      }
      lookups.fetch_add(kBatch);
      cursor += kBatch;
    }
  };
  std::thread r0(read, 0);
  std::thread r1(read, pkts.size() / 2);
  // Insert just above the default, erase only what was inserted there.
  Rng rng(61);
  std::size_t next_rule = 0;
  const std::size_t first_writer_pos = default_id;
  while (dyn.rebuild_count() < builds + kRebuilds) {
    const std::size_t size = dyn.rules().size();
    const std::size_t inserted = size - 1 - first_writer_pos;
    if (inserted == 0 || rng.chance(0.6)) {
      dyn.insert(writer_rules[next_rule++ % writer_rules.size()], size - 1);
    } else {
      dyn.erase(first_writer_pos + rng.next_below(inserted));
    }
  }
  stop.store(true);
  r0.join();
  r1.join();
  EXPECT_GT(lookups.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  expect_exact(dyn, 67);
}

}  // namespace
}  // namespace expcuts
}  // namespace pclass

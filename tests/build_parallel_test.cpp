// ExpCuts build: thread-count determinism, budget degradation, and
// semantic agreement with linear search.
#include <gtest/gtest.h>

#include <sstream>

#include "classify/linear.hpp"
#include "expcuts/build_parallel.hpp"
#include "expcuts/image_io.hpp"
#include "packet/tracegen.hpp"
#include "rules/generator.hpp"
#include "workload/scalegen.hpp"

namespace pclass {
namespace expcuts {
namespace {

RuleSet scale_set(workload::ScaleProfile p, std::size_t n, u64 seed = 7) {
  workload::ScaleGenConfig cfg;
  cfg.profile = p;
  cfg.rule_count = n;
  cfg.seed = seed;
  return workload::generate_scale_ruleset(cfg);
}

Trace make_trace(const RuleSet& rs, std::size_t count, u64 seed = 11) {
  TraceGenConfig tcfg;
  tcfg.count = count;
  tcfg.seed = seed;
  return generate_trace(rs, tcfg);
}

std::string serialized(const ExpCutsClassifier& cls) {
  std::stringstream buf;
  save_image(buf, cls);
  return buf.str();
}

TEST(BuildParallel, EffectiveThreadsResolvesZeroToHardware) {
  EXPECT_GE(effective_build_threads(0), 1u);
  EXPECT_EQ(effective_build_threads(1), 1u);
  EXPECT_EQ(effective_build_threads(6), 6u);
}

// The central property: the emitted tree is a function of (rules, config)
// only. With the builder deterministic, the serialized image — checksum
// included — must be byte-identical for every thread count, the default
// (one worker) included. (Running more workers than cores exercises real
// interleaving even on small CI machines.)
TEST(BuildParallel, ImageIsByteIdenticalAcrossThreadCounts) {
  for (const RuleSet& rs :
       {scale_set(workload::ScaleProfile::kCoreRouter, 20000),
        generate_paper_ruleset("CR04")}) {
    const std::string serial = serialized(ExpCutsClassifier(rs));
    for (const u32 threads : {2u, 8u}) {
      Config cfg;
      cfg.build_threads = threads;
      EXPECT_TRUE(serial == serialized(ExpCutsClassifier(rs, cfg)))
          << rs.size() << " rules, " << threads << " threads";
    }
  }

}

// Semantic differential with linear search as the referee, packet by
// packet, for the serial and a parallel build, through both the scalar
// and the batch walker.
TEST(BuildParallel, AgreesWithLinearSearch) {
  for (const auto profile : {workload::ScaleProfile::kFirewall,
                             workload::ScaleProfile::kCoreRouter,
                             workload::ScaleProfile::kAcl}) {
    const RuleSet rs = scale_set(profile, 5000);
    const LinearSearchClassifier linear(rs);
    const Trace trace = make_trace(rs, 4000);
    std::vector<RuleId> want(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      want[i] = linear.classify(trace[i]);
    }
    for (const u32 threads : {1u, 4u}) {
      Config cfg;
      cfg.build_threads = threads;
      const ExpCutsClassifier cls(rs, cfg);
      for (std::size_t i = 0; i < trace.size(); ++i) {
        ASSERT_EQ(cls.classify(trace[i]), want[i]) << trace[i].str();
      }
      std::vector<RuleId> out(trace.size());
      cls.classify_batch(trace.packets().data(), out.data(), trace.size());
      EXPECT_EQ(out, want) << threads << " threads";
    }
  }
}

TEST(BuildParallel, ReportsDecompositionStats) {
  const RuleSet rs = scale_set(workload::ScaleProfile::kCoreRouter, 20000);
  Config cfg;
  cfg.build_threads = 4;
  const ExpCutsClassifier cls(rs, cfg);
  EXPECT_EQ(cls.stats().build_threads, 4u);
  EXPECT_GT(cls.stats().build_tasks, 1u);
  EXPECT_EQ(cls.stats().build_degrade_steps, 0u);
  EXPECT_EQ(cls.config().stride_w, 8u);
}

// A budget the stride-8 burst cannot fit under must degrade the stride
// rather than fail; the degraded image must still classify correctly.
TEST(BuildParallel, TinyBudgetDegradesStrideAndStaysCorrect) {
  const RuleSet rs = scale_set(workload::ScaleProfile::kFirewall, 3000);
  Config cfg;
  cfg.build_threads = 2;
  cfg.memory_budget_bytes = 256 * 1024;  // far below the stride-8 burst
  const ExpCutsClassifier budgeted(rs, cfg);
  EXPECT_GT(budgeted.stats().build_degrade_steps, 0u);
  EXPECT_LT(budgeted.config().stride_w, 8u);
  // The knob survives into the reported config for diagnostics.
  EXPECT_EQ(budgeted.config().memory_budget_bytes, cfg.memory_budget_bytes);

  const LinearSearchClassifier linear(rs);
  const Trace trace = make_trace(rs, 3000, 13);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(budgeted.classify(trace[i]), linear.classify(trace[i]))
        << trace[i].str();
  }
  std::vector<RuleId> out(trace.size());
  budgeted.classify_batch(trace.packets().data(), out.data(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(out[i], linear.classify(trace[i]));
  }
}

// An absurdly tiny budget bottoms out at stride 1 and still completes —
// the knob degrades the image, it never fails the build.
TEST(BuildParallel, BudgetFloorCompletesAtStrideOne) {
  const RuleSet rs = scale_set(workload::ScaleProfile::kAcl, 1000);
  Config cfg;
  cfg.build_threads = 2;
  cfg.memory_budget_bytes = 1024;
  const ExpCutsClassifier cls(rs, cfg);
  EXPECT_EQ(cls.config().stride_w, 1u);
  EXPECT_EQ(cls.stats().build_degrade_steps, 3u);

  const LinearSearchClassifier linear(rs);
  const Trace trace = make_trace(rs, 1000, 17);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(cls.classify(trace[i]), linear.classify(trace[i]));
  }
}

// A generous budget must not perturb the build at all: same image as the
// unbudgeted parallel build, no degradation.
TEST(BuildParallel, GenerousBudgetIsANoOp) {
  const RuleSet rs = scale_set(workload::ScaleProfile::kCoreRouter, 5000);
  Config cfg;
  cfg.build_threads = 2;
  const ExpCutsClassifier plain(rs, cfg);
  cfg.memory_budget_bytes = u64{8} << 30;
  const ExpCutsClassifier budgeted(rs, cfg);
  EXPECT_EQ(budgeted.stats().build_degrade_steps, 0u);
  EXPECT_EQ(serialized(plain), serialized(budgeted));
}

// Budget-triggered degradation must also be thread-count independent:
// whether the burst crosses the budget depends on the (deterministic)
// total, not on which worker charged last.
TEST(BuildParallel, BudgetDecisionIsDeterministicAcrossThreadCounts) {
  const RuleSet rs = scale_set(workload::ScaleProfile::kFirewall, 3000);
  Config cfg;
  cfg.memory_budget_bytes = 256 * 1024;
  cfg.build_threads = 2;
  const ExpCutsClassifier a(rs, cfg);
  cfg.build_threads = 8;
  const ExpCutsClassifier b(rs, cfg);
  EXPECT_EQ(a.stats().build_degrade_steps, b.stats().build_degrade_steps);
  EXPECT_EQ(a.config().stride_w, b.config().stride_w);
  EXPECT_EQ(serialized(a), serialized(b));
}

}  // namespace
}  // namespace expcuts
}  // namespace pclass

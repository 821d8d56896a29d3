// Randomized differential testing: every algorithm vs linear search on
// randomly configured rule sets (sizes, profiles, wildcard mixes, with
// and without default rules) and mixed traffic, plus batch-vs-scalar
// agreement across interleave-edge batch sizes (0, 1, G-1, G, 3G+1).
// This is the broad-sweep safety net behind the per-algorithm suites.
#include <gtest/gtest.h>

#include <ostream>

#include "classify/verify.hpp"
#include "common/simd.hpp"
#include "packet/tracegen.hpp"
#include "rules/generator.hpp"
#include "workload/workload.hpp"

namespace pclass {

// Prints a paper rule set parameter by name. Without it gtest dumps the raw
// struct bytes, which hold the name pointer and padding, so the printed test
// list (and every test name derived from it) changes from build to build.
void PrintTo(const PaperRuleSetSpec& spec, std::ostream* os) {
  *os << spec.name;
}

namespace {

struct FuzzCase {
  u64 seed;
  RuleProfile profile;
  std::size_t rules;
  bool with_default;
};

class FuzzDifferential : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FuzzDifferential, AllAlgorithmsAgreeWithLinear) {
  const FuzzCase p = GetParam();
  GeneratorConfig gen;
  gen.profile = p.profile;
  gen.rule_count = p.rules;
  gen.seed = p.seed;
  gen.with_default = p.with_default;
  gen.site_blocks = 4 + p.seed % 20;
  const RuleSet rules = generate_ruleset(gen);

  TraceGenConfig tcfg;
  tcfg.count = 1200;
  tcfg.seed = p.seed ^ 0xF022;
  tcfg.rule_directed_fraction = 0.7;  // mix in uniform-random headers
  const Trace trace = generate_trace(rules, tcfg);

  for (workload::Algo algo :
       {workload::Algo::kExpCuts, workload::Algo::kHiCuts,
        workload::Algo::kHyperCuts, workload::Algo::kHsm,
        workload::Algo::kRfc, workload::Algo::kBv, workload::Algo::kTss}) {
    const ClassifierPtr cls = workload::make_classifier(algo, rules);
    const VerifyResult res = verify_against_linear(*cls, rules, trace);
    EXPECT_TRUE(res.ok()) << cls->name() << " seed=" << p.seed << ": "
                          << res.str();
    // Batch-vs-scalar differential: covers the interleaved overrides
    // (ExpCuts flat image, HiCuts) and the scalar default of the rest.
    const VerifyResult batch = verify_batch_consistency(*cls, trace);
    EXPECT_TRUE(batch.ok()) << cls->name() << " batch seed=" << p.seed
                            << ": " << batch.str();
  }
}

std::vector<FuzzCase> fuzz_cases() {
  std::vector<FuzzCase> cases;
  for (u64 seed : {11ull, 22ull, 33ull, 44ull}) {
    cases.push_back({seed, RuleProfile::kFirewall, 40 + seed * 3, true});
    cases.push_back({seed * 7, RuleProfile::kCoreRouter, 150, seed % 2 == 0});
  }
  cases.push_back({5150, RuleProfile::kFirewall, 500, true});
  cases.push_back({777, RuleProfile::kCoreRouter, 3, false});  // tiny
  cases.push_back({888, RuleProfile::kFirewall, 1, false});    // single rule
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    RandomConfigs, FuzzDifferential, ::testing::ValuesIn(fuzz_cases()),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_" +
             (info.param.profile == RuleProfile::kFirewall ? "fw" : "cr") +
             std::to_string(info.param.rules) +
             (info.param.with_default ? "_def" : "_nodef");
    });

// --- SIMD tier differential -------------------------------------------------
//
// The vectorized batch walkers (ExpCuts flat image, HiCuts leaf scan) must
// return bit-identical rule ids at every tier the CPU supports. Each paper
// rule set is walked at every available tier and diffed lane-for-lane
// against the forced-scalar batch walk and the per-packet scalar lookup.
// Batch sizes cover the kernel edges: below kSimdMinBatch (scalar
// fallthrough), exactly one vector group, a ragged tail, and a batch that
// crosses the 4096-packet superblock boundary.

/// Restores the dispatched tier on scope exit so a failing assertion in one
/// test cannot leak a forced tier into the rest of the suite.
class TierGuard {
 public:
  TierGuard() : saved_(simd::active()) {}
  ~TierGuard() { simd::set_active(saved_); }

 private:
  simd::Level saved_;
};

class SimdTierDifferential
    : public ::testing::TestWithParam<PaperRuleSetSpec> {};

TEST_P(SimdTierDifferential, AllTiersAgree) {
  const PaperRuleSetSpec spec = GetParam();
  const RuleSet rules = generate_paper_ruleset(spec.name);

  TraceGenConfig tcfg;
  tcfg.count = 4100;  // crosses the ExpCuts 4096-packet superblock
  tcfg.seed = spec.seed ^ 0x51D0;
  tcfg.rule_directed_fraction = 0.7;
  const Trace trace = generate_trace(rules, tcfg);

  for (workload::Algo algo :
       {workload::Algo::kExpCuts, workload::Algo::kHiCuts}) {
    const ClassifierPtr cls = workload::make_classifier(algo, rules);

    TierGuard guard;
    // Scalar references: per-packet lookup and forced-scalar batch.
    simd::set_active(simd::Level::kScalar);
    std::vector<RuleId> scalar_one(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      scalar_one[i] = cls->classify(trace[i]);
    }
    std::vector<RuleId> scalar_batch(trace.size());
    cls->classify_batch(trace.packets().data(), scalar_batch.data(), trace.size());
    ASSERT_EQ(scalar_one, scalar_batch)
        << cls->name() << "/" << spec.name << ": scalar batch diverges";

    for (simd::Level tier : {simd::Level::kAvx2, simd::Level::kAvx512}) {
      if (tier > simd::detected()) continue;
      ASSERT_EQ(simd::set_active(tier), tier);
      for (std::size_t n :
           {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{16},
            std::size_t{19}, std::size_t{1200}, trace.size()}) {
        std::vector<RuleId> got(n, RuleId{0xdeadbeef});
        cls->classify_batch(trace.packets().data(), got.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i], scalar_one[i])
              << cls->name() << "/" << spec.name << " tier="
              << simd::name(tier) << " n=" << n << " packet " << i;
        }
      }
      // Per-packet lookups also route HiCuts leaf scans through the
      // vector kernel; they must match the scalar tier too.
      for (std::size_t i = 0; i < 512; ++i) {
        ASSERT_EQ(cls->classify(trace[i]), scalar_one[i])
            << cls->name() << "/" << spec.name << " tier="
            << simd::name(tier) << " scalar lookup, packet " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperRuleSets, SimdTierDifferential,
    ::testing::ValuesIn(paper_rulesets()),
    [](const ::testing::TestParamInfo<PaperRuleSetSpec>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace pclass

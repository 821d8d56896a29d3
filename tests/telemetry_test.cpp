// Tests for the telemetry subsystem (DESIGN.md §14): the sampled heat
// profiler, heat-profile JSON round trips, profile-guided relayout, and
// the Prometheus/JSON exporter — including the concurrency cases the TSan
// CI job drives (scrapes racing registry mutation, snapshots racing
// recorder-thread exit).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "audit/image_audit.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "expcuts/build_parallel.hpp"
#include "expcuts/flat.hpp"
#include "expcuts/image_io.hpp"
#include "packet/tracegen.hpp"
#include "rules/generator.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/profile.hpp"

namespace pclass {
namespace {

using telemetry::Family;
using telemetry::HeatProfile;
using telemetry::Profiler;

/// RAII profiler state guard: every test leaves the global profiler
/// disabled and empty for the next one.
struct ProfilerGuard {
  ProfilerGuard() { reset(); }
  ~ProfilerGuard() { reset(); }
  static void reset() {
    Profiler::global().set_enabled(false);
    Profiler::global().set_sample_period(64);
    Profiler::global().reset();
  }
};

#if PCLASS_PROFILE_ENABLED
TEST(Profiler, TickHonorsSamplePeriod) {
  ProfilerGuard guard;
  Profiler::global().set_sample_period(8);
  // Flush the thread-local countdown into the new period first.
  while (!Profiler::tick()) {
  }
  int fires = 0;
  for (int i = 0; i < 800; ++i) {
    if (Profiler::tick()) ++fires;
  }
  EXPECT_EQ(fires, 100);
}

TEST(Profiler, RecordWalkAccumulatesHeatAndHistograms) {
  ProfilerGuard guard;
  Profiler& prof = Profiler::global();
  const u32 ids[3] = {10, 20, 30};
  const u32 levels[3] = {0, 1, 2};
  for (int i = 0; i < 5; ++i) {
    prof.record_walk(Family::kExpCuts, ids, levels, 3);
  }
  const u32 ids2[1] = {20};
  const u32 levels2[1] = {1};
  prof.record_walk(Family::kExpCuts, ids2, levels2, 1);
  prof.record_flow_probe(true);
  prof.record_flow_probe(false);
  prof.record_flow_probe(true);

  const HeatProfile p = prof.snapshot();
  EXPECT_EQ(p.expcuts.sampled_lookups, 6u);
  EXPECT_EQ(p.expcuts.node_visits, 16u);
  EXPECT_EQ(p.expcuts.visits(10), 5u);
  EXPECT_EQ(p.expcuts.visits(20), 6u);
  EXPECT_EQ(p.expcuts.visits(30), 5u);
  EXPECT_EQ(p.expcuts.visits(99), 0u);
  EXPECT_EQ(p.expcuts.level_visits[1], 6u);
  EXPECT_EQ(p.expcuts.depth_hist[3], 5u);
  EXPECT_EQ(p.expcuts.depth_hist[1], 1u);
  EXPECT_EQ(p.hicuts.sampled_lookups, 0u);
  EXPECT_EQ(p.flow_hits, 2u);
  EXPECT_EQ(p.flow_misses, 1u);

  // top() ranks by visits, id tiebreak ascending.
  const auto top = p.expcuts.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, 20u);
  EXPECT_EQ(top[1].id, 10u);
}

TEST(Profiler, FamiliesAreIndependent) {
  ProfilerGuard guard;
  const u32 id[1] = {7};
  const u32 level[1] = {3};
  Profiler::global().record_walk(Family::kExpCuts, id, level, 1);
  Profiler::global().record_walk(Family::kHiCuts, id, level, 1);
  Profiler::global().record_walk(Family::kHiCuts, id, level, 1);
  const HeatProfile p = Profiler::global().snapshot();
  EXPECT_EQ(p.expcuts.visits(7), 1u);
  EXPECT_EQ(p.hicuts.visits(7), 2u);
}
#else
TEST(Profiler, CompiledOutIsInertButKeepsTheApi) {
  ProfilerGuard guard;
  Profiler::global().set_enabled(true);
  EXPECT_FALSE(telemetry::active());
  // tick() never fires and record calls are no-ops, so the hooks they
  // guard vanish from the hot path.
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(Profiler::tick());
  const u32 id[1] = {7};
  const u32 level[1] = {0};
  Profiler::global().record_walk(Family::kExpCuts, id, level, 1);
  Profiler::global().record_flow_probe(true);
  const HeatProfile p = Profiler::global().snapshot();
  EXPECT_EQ(p.expcuts.sampled_lookups, 0u);
  EXPECT_EQ(p.flow_hits, 0u);
}
#endif

TEST(HeatProfile, JsonRoundTripPreservesEverything) {
  ProfilerGuard guard;
  Profiler& prof = Profiler::global();
  prof.set_sample_period(16);
  const u32 ids[2] = {100, 4096};
  const u32 levels[2] = {0, 5};
  for (int i = 0; i < 3; ++i) {
    prof.record_walk(Family::kExpCuts, ids, levels, 2);
  }
  prof.record_walk(Family::kHiCuts, ids, levels, 2);
  prof.record_flow_probe(true);

  const HeatProfile a = prof.snapshot();
  std::stringstream wire;
  a.save_json(wire);
  const HeatProfile b = HeatProfile::load_json(wire);

  EXPECT_EQ(b.sample_period, a.sample_period);
  EXPECT_EQ(b.flow_hits, a.flow_hits);
  EXPECT_EQ(b.flow_misses, a.flow_misses);
  EXPECT_EQ(b.expcuts.sampled_lookups, a.expcuts.sampled_lookups);
  EXPECT_EQ(b.expcuts.node_visits, a.expcuts.node_visits);
  EXPECT_EQ(b.expcuts.level_visits, a.expcuts.level_visits);
  EXPECT_EQ(b.expcuts.depth_hist, a.expcuts.depth_hist);
  ASSERT_EQ(b.expcuts.nodes.size(), a.expcuts.nodes.size());
  for (std::size_t i = 0; i < a.expcuts.nodes.size(); ++i) {
    EXPECT_EQ(b.expcuts.nodes[i].id, a.expcuts.nodes[i].id);
    EXPECT_EQ(b.expcuts.nodes[i].level, a.expcuts.nodes[i].level);
    EXPECT_EQ(b.expcuts.nodes[i].visits, a.expcuts.nodes[i].visits);
  }
  EXPECT_EQ(b.hicuts.sampled_lookups, a.hicuts.sampled_lookups);
}

TEST(HeatProfile, LoadRejectsMalformedInput) {
  std::stringstream bad1("{\"format\": \"wrong-tag\"}");
  EXPECT_THROW(HeatProfile::load_json(bad1), ParseError);
  std::stringstream bad2("{\"format\": \"pclass-heat-v1\", \"sample_period\"");
  EXPECT_THROW(HeatProfile::load_json(bad2), ParseError);
  std::stringstream bad3("not json at all");
  EXPECT_THROW(HeatProfile::load_json(bad3), ParseError);
}

#if PCLASS_PROFILE_ENABLED
TEST(Profiler, SampledWalkHooksRecordRealLookups) {
  ProfilerGuard guard;
  const RuleSet rules = generate_paper_ruleset("FW01");
  const expcuts::ExpCutsClassifier cls(rules);
  TraceGenConfig tc;
  tc.count = 4096;
  const Trace trace = generate_trace(rules, tc);

  Profiler& prof = Profiler::global();
  prof.set_sample_period(4);
  prof.set_enabled(true);
  std::vector<RuleId> out(trace.size());
  cls.classify_batch(trace.packets().data(), out.data(), trace.size());
  prof.set_enabled(false);

  const HeatProfile p = prof.snapshot();
  // 1-in-4 striding over 4096 packets = 1024 sampled walks.
  EXPECT_EQ(p.expcuts.sampled_lookups, 1024u);
  EXPECT_GT(p.expcuts.node_visits, p.expcuts.sampled_lookups);
  // Every sampled walk starts at the root's level-0 node.
  EXPECT_EQ(p.expcuts.level_visits[0], p.expcuts.sampled_lookups);
  EXPECT_FALSE(p.expcuts.nodes.empty());
}
#endif

TEST(HeatRelayout, PreservesAuditAndClassifications) {
  ProfilerGuard guard;
  const RuleSet rules = generate_paper_ruleset("CR01");
  const expcuts::BuiltTree tree =
      expcuts::build_tree_parallel(rules, expcuts::Config{});
  const expcuts::ExpCutsClassifier cls(tree);
  ASSERT_EQ(cls.config().layout, expcuts::kLayoutAligned);

  // Offset map from a deterministic rebuild; synthetic skewed heat.
  std::vector<u32> offsets;
  expcuts::FlatLayoutHints probe;
  probe.node_offsets_out = &offsets;
  const expcuts::FlatImage plain(tree.nodes, tree.root, cls.config(), true,
                                 nullptr, &probe);
  ASSERT_EQ(plain.word_count(), cls.flat().word_count());
  ASSERT_EQ(offsets.size(), tree.nodes.size());

  expcuts::FlatLayoutHints hints;
  hints.node_heat.resize(tree.nodes.size());
  for (std::size_t i = 0; i < hints.node_heat.size(); ++i) {
    hints.node_heat[i] = (i * 2654435761u) % 1000;  // deterministic pseudo-heat
  }
  const expcuts::FlatImage hot(tree.nodes, tree.root, cls.config(), true,
                               nullptr, &hints);
  EXPECT_EQ(hot.word_count(), plain.word_count());

  // The permutation must preserve every structural invariant...
  const audit::AuditReport report =
      audit::audit_flat_image(hot, cls.schedule().depth());
  EXPECT_TRUE(report.ok()) << report.summary();

  // ...and every classification (scalar and batch walkers).
  TraceGenConfig tc;
  tc.count = 4096;
  const Trace trace = generate_trace(rules, tc);
  std::vector<RuleId> got(trace.size()), want(trace.size());
  hot.lookup_batch(trace.packets().data(), got.data(), trace.size(),
                   cls.schedule());
  plain.lookup_batch(trace.packets().data(), want.data(), trace.size(),
                     cls.schedule());
  EXPECT_EQ(got, want);
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_EQ(hot.lookup(trace[i], cls.schedule(), nullptr),
              plain.lookup(trace[i], cls.schedule(), nullptr));
  }
}

TEST(HeatRelayout, HotNodesPackFirstWithinEachLevel) {
  ProfilerGuard guard;
  const RuleSet rules = generate_paper_ruleset("FW01");
  const expcuts::BuiltTree tree =
      expcuts::build_tree_parallel(rules, expcuts::Config{});

  // Give one specific node maximal heat; it must land first within its
  // level's contiguous span (lowest offset among same-level nodes).
  expcuts::FlatLayoutHints hints;
  std::vector<u32> offsets;
  hints.node_offsets_out = &offsets;
  hints.node_heat.assign(tree.nodes.size(), 0);
  // Pick the last node of level 1 in build order so plain packing would
  // not put it first.
  std::size_t victim = 0;
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    if (tree.nodes[i].level == 1) victim = i;
  }
  hints.node_heat[victim] = 1000;
  const expcuts::FlatImage hot(tree.nodes, tree.root, tree.cfg, true,
                               nullptr, &hints);
  u32 min_level1_off = 0xffffffffu;
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    if (tree.nodes[i].level == 1) {
      min_level1_off = std::min(min_level1_off, offsets[i]);
    }
  }
  EXPECT_EQ(offsets[victim], min_level1_off);

  // An image saved through the standalone overload round-trips and
  // passes the strict on-load audit.
  std::stringstream wire;
  expcuts::save_image(wire, hot, tree.cfg);
  const expcuts::LoadedImage li = expcuts::load_image(wire, /*strict=*/true);
  EXPECT_EQ(li.image.word_count(), hot.word_count());
}

TEST(Exporter, RendersValidPrometheusAndJson) {
  ProfilerGuard guard;
  metrics::Registry& reg = metrics::Registry::global();
  reg.counter("telemetry_test.lookups").add(42);
  metrics::Histogram& h =
      reg.histogram("telemetry_test.depth", metrics::Scale::kLinear, 8);
  h.record(3);
  h.record(5);

  const u32 ids[2] = {1, 2};
  const u32 levels[2] = {0, 1};
  Profiler::global().record_walk(Family::kExpCuts, ids, levels, 2);

  telemetry::ExporterOptions opt;
  const std::string text = telemetry::render_prometheus(
      reg.snapshot(), Profiler::global().snapshot(), opt);
  EXPECT_NE(text.find("pclass_build_info{"), std::string::npos);
#if PCLASS_METRICS_ENABLED
  EXPECT_NE(text.find("pclass_telemetry_test_lookups_total 42"),
            std::string::npos);
  EXPECT_NE(text.find("pclass_telemetry_test_depth_bucket"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
#endif
#if PCLASS_PROFILE_ENABLED
  EXPECT_NE(text.find("pclass_heat_node_visits{family=\"expcuts\""),
            std::string::npos);
#endif

  const std::string json = telemetry::render_json(
      reg.snapshot(), Profiler::global().snapshot(), opt);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"telemetry\""), std::string::npos);
  EXPECT_NE(json.find("telemetry_test.lookups"), std::string::npos);
}

TEST(Exporter, ServesHttpEndpoints) {
  ProfilerGuard guard;
  telemetry::ExporterOptions opt;
  opt.port = 0;
  telemetry::Exporter ex(opt);
  ex.start();
  ASSERT_GT(ex.port(), 0);

  const std::string text =
      telemetry::http_get("127.0.0.1", ex.port(), "/metrics");
  EXPECT_NE(text.find("pclass_build_info"), std::string::npos);
  const std::string json =
      telemetry::http_get("localhost", ex.port(), "/metrics.json");
  EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
  const std::string health =
      telemetry::http_get("127.0.0.1", ex.port(), "/healthz");
  EXPECT_NE(health.find("ok"), std::string::npos);
  EXPECT_THROW(telemetry::http_get("127.0.0.1", ex.port(), "/nope"), Error);
  EXPECT_GE(ex.scrape_count(), 3u);
  ex.stop();
  ex.stop();  // idempotent
}

TEST(Exporter, FileSinkWritesAtomically) {
  ProfilerGuard guard;
  const std::string path = ::testing::TempDir() + "pclass_metrics.prom";
  telemetry::ExporterOptions opt;
  opt.port = 0;
  opt.file_path = path;
  opt.period_ms = 20;
  telemetry::Exporter ex(opt);
  ex.start();
  // First sink write happens on the first serve-loop tick.
  std::string content;
  for (int i = 0; i < 200 && content.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    content = ss.str();
  }
  ex.stop();
  EXPECT_NE(content.find("pclass_build_info"), std::string::npos);
  std::remove(path.c_str());
}

// --- Concurrency cases (run under the TSan CI job) ---

TEST(TelemetryConcurrency, ScrapesRaceRegistryMutation) {
  ProfilerGuard guard;
  telemetry::ExporterOptions opt;
  opt.port = 0;
  telemetry::Exporter ex(opt);
  ex.start();

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    metrics::Registry& reg = metrics::Registry::global();
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      reg.counter("telemetry_test.race").inc();
      reg.histogram("telemetry_test.race_hist", metrics::Scale::kLog2, 16)
          .record(static_cast<u64>(i++ % 1000));
      // New registrations race the snapshot's registry walk too.
      reg.counter("telemetry_test.race." + std::to_string(i % 8)).inc();
    }
  });
  std::thread recorder([&] {
    Profiler::global().set_sample_period(1);
    Profiler::global().set_enabled(true);
    const u32 ids[2] = {5, 6};
    const u32 levels[2] = {0, 1};
    while (!stop.load(std::memory_order_relaxed)) {
      Profiler::global().record_walk(Family::kExpCuts, ids, levels, 2);
      Profiler::global().record_flow_probe(true);
    }
  });
  for (int i = 0; i < 20; ++i) {
    const std::string text =
        telemetry::http_get("127.0.0.1", ex.port(), "/metrics");
    EXPECT_NE(text.find("pclass_build_info"), std::string::npos);
    telemetry::http_get("127.0.0.1", ex.port(), "/metrics.json");
  }
  stop.store(true);
  mutator.join();
  recorder.join();
  Profiler::global().set_enabled(false);
  ex.stop();
}

TEST(TelemetryConcurrency, SnapshotRacesRecorderThreadExit) {
  ProfilerGuard guard;
  Profiler::global().set_sample_period(1);
  Profiler::global().set_enabled(true);
  for (int round = 0; round < 8; ++round) {
    std::thread recorder([&] {
      const u32 ids[3] = {100, 200, 300};
      const u32 levels[3] = {0, 1, 2};
      for (int i = 0; i < 2000; ++i) {
        Profiler::global().record_walk(Family::kHiCuts, ids, levels, 3);
        if (Profiler::tick()) {
          Profiler::global().record_flow_probe(i % 2 == 0);
        }
      }
    });
    // Snapshot (and trace-registry snapshot, as the exporter does) while
    // the recorder is running and while it is exiting.
    // Mid-flight snapshots are torn by design (relaxed atomics), so only
    // assert race-safe bounds: nothing can exceed the final totals.
    for (int i = 0; i < 10; ++i) {
      const HeatProfile p = Profiler::global().snapshot();
      EXPECT_LE(p.hicuts.visits(100), 8u * 2000u);
      EXPECT_LE(p.hicuts.sampled_lookups, 8u * 2000u);
    }
    recorder.join();
  }
  Profiler::global().set_enabled(false);
  const HeatProfile p = Profiler::global().snapshot();
#if PCLASS_PROFILE_ENABLED
  EXPECT_EQ(p.hicuts.sampled_lookups, 8u * 2000u);
  EXPECT_EQ(p.hicuts.visits(200), 8u * 2000u);
#else
  EXPECT_EQ(p.hicuts.sampled_lookups, 0u);
#endif
}

}  // namespace
}  // namespace pclass

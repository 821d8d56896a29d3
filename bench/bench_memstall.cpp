// Memory-stall attribution: measured cache behavior per image layout.
//
// The paper's evaluation counts logical memory accesses (W/w = 13 per
// lookup) and feeds them to the npsim channel model; this bench asks the
// hardware the same question. For each scale tier it builds the same
// ExpCuts tree, packs it three ways — linear v1, cache-aligned
// level-clustered v2, and heat-clustered v2 (profile-guided packing, the
// `pclass_audit build --profile=` loop) — and batch-walks an identical
// trace over each image under a perf ScopedCounters bracket
// (src/perf/perf.hpp). The JSON rows carry measured
// LLC-misses-per-lookup / dTLB-misses-per-lookup / IPC next to the
// logical depth numbers (mean levels walked, depth p99), so the paper's
// access bound is checkable in hardware: an LLC miss per lookup costs at
// most one line per level touched, so llc_misses_per_lookup <= depth p99
// on a PMU-capable host, and layout packing should move the miss rate
// while leaving depth untouched (DESIGN.md §16, EXPERIMENTS.md).
//
// On hosts without a PMU (most VMs, perf_event_paranoid >= 3 containers)
// the bench still runs and reports throughput + logical depth; the hw
// block records the tier and the reason, the hw columns print "-", each
// row's `hw_ok` is false and its derived rates are null, never 0.
//
//   --quick    12k tiers only, fewer packets/reps (the CI hw-smoke lane)
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "common/texttable.hpp"
#include "expcuts/build_parallel.hpp"
#include "expcuts/flat.hpp"
#include "packet/tracegen.hpp"
#include "perf/perf.hpp"
#include "telemetry/profile.hpp"
#include "workload/scalegen.hpp"

namespace {

using namespace pclass;

/// A hw-derived column, or "-" when the counter was unavailable.
std::string hw_col(double v, bool present, int decimals = 2) {
  if (!present) return "-";
  return format_fixed(v, decimals);
}

/// A hw-derived JSON rate, or NaN (written as null) when the counter was
/// unavailable — a missing counter is not a measured zero.
double hw_rate(double v, bool present) {
  return present ? v : std::numeric_limits<double>::quiet_NaN();
}

/// True when at least one hardware PMU event was read (software-tier
/// readings carry only kernel events).
bool read_hardware(const perf::Reading& r) {
  return r.ok && std::any_of(r.counters.begin(), r.counters.end(),
                             [](const perf::CounterValue& c) {
                               return perf::event_is_hardware(c.spec.event);
                             });
}

struct LayoutRun {
  std::string name;
  double mpps = 0;
  u64 words = 0;
  double mean_levels = 0;
  perf::Reading hw;
  u64 lookups = 0;
  u64 levels_walked = 0;
};

/// Batch-walks `img` over the trace `reps + 1` times (one warmup — the
/// counters bracket it too; it is the same work) and captures the perf
/// reading, throughput, and logical level counts for the whole bracket.
LayoutRun measure_layout(const std::string& name,
                         const expcuts::FlatImage& img, const Trace& trace,
                         const expcuts::Schedule& sched, int reps) {
  LayoutRun run;
  run.name = name;
  run.words = img.word_count();

  std::vector<RuleId> out(trace.size(), kNoMatch);
  BatchLookupStats stats;
  perf::ScopedCounters hw(name);
  const double best = bench::best_seconds(reps, [&] {
    img.lookup_batch(trace.packets().data(), out.data(), trace.size(), sched,
                     &stats);
  });
  run.hw = hw.stop();
  run.mpps = static_cast<double>(trace.size()) / best / 1e6;
  run.lookups = stats.lookups;
  run.levels_walked = stats.levels_walked;
  run.mean_levels = stats.mean_levels();
  return run;
}

void run_tier(bench::BenchReport& report, const std::string& set,
              std::size_t packets, int reps) {
  const RuleSet rules = workload::generate_scale_ruleset(set);
  expcuts::Config cfg;
  cfg.build_threads = 0;  // all cores; the tree is the same for any count
  const expcuts::BuiltTree tree = expcuts::build_tree_parallel(rules, cfg);
  const expcuts::Schedule sched =
      expcuts::Schedule::make(tree.cfg.stride_w, tree.cfg.order);

  // The three packings of the same tree, exactly as bench_ablation_layout
  // builds them: the offset probe feeds heat captured from a sampled
  // batch walk back into FlatLayoutHints for the profile-guided image.
  std::vector<u32> offsets;
  expcuts::FlatLayoutHints probe;
  probe.node_offsets_out = &offsets;
  expcuts::Config cfg_v2 = tree.cfg;
  cfg_v2.layout = expcuts::kLayoutAligned;
  const expcuts::FlatImage aligned(tree.nodes, tree.root, cfg_v2, true,
                                   nullptr, &probe);
  expcuts::Config cfg_v1 = tree.cfg;
  cfg_v1.layout = expcuts::kLayoutLinear;
  const expcuts::FlatImage linear(tree.nodes, tree.root, cfg_v1);

  TraceGenConfig tcfg;
  tcfg.count = packets;
  tcfg.seed = 0x57a11u ^ static_cast<u64>(std::hash<std::string>{}(set));
  tcfg.rule_directed_fraction = 0.8;
  const Trace trace = generate_trace(rules, tcfg);

  telemetry::Profiler& prof = telemetry::Profiler::global();
  const bool was_active = telemetry::active();
  prof.reset();
  prof.set_sample_period(4);
  prof.set_enabled(true);
  std::vector<RuleId> out(trace.size());
  aligned.lookup_batch(trace.packets().data(), out.data(), trace.size(),
                       sched);
  prof.set_enabled(false);
  const telemetry::HeatProfile heat = prof.snapshot();
  expcuts::FlatLayoutHints hints;
  hints.node_heat.resize(tree.nodes.size());
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    hints.node_heat[i] = heat.expcuts.visits(offsets[i]);
  }
  const expcuts::FlatImage clustered(tree.nodes, tree.root, cfg_v2, true,
                                     nullptr, &hints);
  if (was_active) prof.set_enabled(true);  // restore --profile-sample

  std::vector<LayoutRun> runs;
  runs.push_back(
      measure_layout("linear_v1", linear, trace, sched, reps));
  runs.push_back(
      measure_layout("aligned_v2", aligned, trace, sched, reps));
  runs.push_back(
      measure_layout("heat_clustered", clustered, trace, sched, reps));

  // Logical depth p99 over everything walked so far for this process —
  // the depth distribution is a property of the tree + trace, not of the
  // packing, so the cumulative histogram is the right comparand for the
  // per-layout miss rates.
  u64 depth_p99 = 0;
  const metrics::Snapshot snap = metrics::Registry::global().snapshot();
  if (const metrics::HistogramSnapshot* h =
          snap.histogram("expcuts.lookup.depth")) {
    depth_p99 = h->quantiles().p99;
  }

  TextTable t({"layout", "words", "batch_mpps", "mean_levels", "depth_p99",
               "llc_miss/lkp", "dtlb_miss/lkp", "ipc", "cyc/level"});
  for (const LayoutRun& r : runs) {
    const perf::Derived d = perf::derive(r.hw, r.lookups, r.levels_walked);
    const bool llc = r.hw.has(perf::Event::kLlcMisses);
    const bool dtlb = r.hw.has(perf::Event::kDtlbMisses);
    const bool cyc = r.hw.has(perf::Event::kCycles);
    const bool ipc = cyc && r.hw.has(perf::Event::kInstructions);
    t.add(r.name, r.words, format_fixed(r.mpps, 2),
          format_fixed(r.mean_levels, 2), depth_p99,
          hw_col(d.llc_misses_per_lookup, llc, 3),
          hw_col(d.dtlb_misses_per_lookup, dtlb, 4), hw_col(d.ipc, ipc),
          hw_col(d.cycles_per_level, cyc, 1));
    report.add_row()
        .set("set", set)
        .set("layout", r.name)
        .set("words", r.words)
        .set("batch_mpps", r.mpps)
        .set("mean_levels", r.mean_levels)
        .set("depth_p99", depth_p99)
        .set("hw_ok", read_hardware(r.hw))
        .set("llc_misses_per_lookup", hw_rate(d.llc_misses_per_lookup, llc))
        .set("dtlb_misses_per_lookup",
             hw_rate(d.dtlb_misses_per_lookup, dtlb))
        .set("cycles_per_lookup", hw_rate(d.cycles_per_lookup, cyc))
        .set("ipc", hw_rate(d.ipc, ipc))
        .set("cycles_per_level", hw_rate(d.cycles_per_level, cyc));
    report.add_hw(set + "/" + r.name, r.hw, r.lookups, r.levels_walked);
    report.hw_lookups(r.lookups, r.levels_walked);
  }
  std::cout << "-- " << set << " (" << rules.size() << " rules, "
            << trace.size() << " packets x " << reps << " reps) --\n";
  t.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport report("memstall", argc, argv);

  const perf::Availability avail = perf::availability();
  std::cout << "=== Memory-stall attribution: layout vs measured misses ===\n"
            << "hw counters: " << perf::tier_name(avail.tier)
            << (avail.reason.empty() ? "" : " (" + avail.reason + ")")
            << "\n\n";

  std::vector<std::string> sets = {"FW-12k", "CR-12k", "ACL-12k"};
  if (!report.quick()) {
    sets.insert(sets.end(), {"FW-100k", "CR-100k", "ACL-100k"});
  }
  const std::size_t packets = report.quick() ? 20000 : 200000;
  const int reps = report.quick() ? 3 : 5;

  report.config("packets", u64{packets});
  report.config("reps", reps);
  report.config("hw_tier", std::string(perf::tier_name(avail.tier)));

  for (const std::string& set : sets) run_tier(report, set, packets, reps);

  return report.write();
}

// Ablations of the design choices DESIGN.md §5 calls out:
//  * cut schedule: interleaved vs sequential field order;
//  * HABS granularity v (16-bit vs 4-bit HABS);
//  * sub-tree sharing on/off (the memory burst without it);
//  * instruction selection: hardware POP_COUNT vs RISC loop (Sec. 5.4);
//  * channel placement policy for the lookup stream.
#include <iostream>

#include "bench_json.hpp"
#include "common/texttable.hpp"
#include "expcuts/build_parallel.hpp"
#include "expcuts/flat.hpp"
#include "npsim/sim.hpp"
#include "telemetry/profile.hpp"
#include "workload/workload.hpp"

namespace {

using namespace pclass;

double avg_accesses(const std::vector<LookupTrace>& traces) {
  double acc = 0;
  for (const auto& lt : traces) acc += static_cast<double>(lt.access_count());
  return acc / static_cast<double>(traces.size());
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport report("ablation_layout", argc, argv);
  workload::Workbench wb(report.quick() ? 4000 : 20000);
  const RuleSet& rules = wb.ruleset("CR03");
  const Trace& trace = wb.trace("CR03");
  report.config("set", "CR03");

  // --- Schedule order and HABS granularity ---
  std::cout << "=== Layout ablations on CR03 (" << rules.size()
            << " rules) ===\n\n-- cut schedule & HABS size --\n";
  TextTable t1({"schedule", "habs_v", "nodes", "mem_agg", "cpa_words",
                "mean_habs_bits"});
  for (const auto& [order, oname] :
       {std::pair{expcuts::ChunkOrder::kInterleaved, "interleaved"},
        std::pair{expcuts::ChunkOrder::kSequential, "sequential"}}) {
    for (u32 v : {2u, 4u}) {
      expcuts::Config cfg;
      cfg.order = order;
      cfg.habs_v = v;
      const expcuts::ExpCutsClassifier cls(rules, cfg);
      const auto& st = cls.stats();
      t1.add(oname, v, st.node_count,
             format_bytes(static_cast<double>(st.bytes_aggregated)),
             st.cpa_words, format_fixed(st.mean_habs_set_bits, 2));
      report.add_row()
          .set("ablation", "schedule_habs")
          .set("schedule", std::string(oname))
          .set("habs_v", v)
          .set("nodes", st.node_count)
          .set("bytes_aggregated", st.bytes_aggregated)
          .set("cpa_words", st.cpa_words)
          .set("mean_habs_bits", st.mean_habs_set_bits);
    }
  }
  t1.print(std::cout);

  // --- Sub-tree sharing (on FW02: feasible without sharing) ---
  std::cout << "\n-- sub-tree sharing (FW02) --\n";
  TextTable t2({"share_subtrees", "nodes", "mem_agg", "mem_unagg"});
  for (bool share : {true, false}) {
    expcuts::Config cfg;
    cfg.share_subtrees = share;
    const expcuts::ExpCutsClassifier cls(wb.ruleset("FW02"), cfg);
    const auto& st = cls.stats();
    t2.add(share ? "on" : "off", st.node_count,
           format_bytes(static_cast<double>(st.bytes_aggregated)),
           format_bytes(static_cast<double>(st.bytes_unaggregated)));
    report.add_row()
        .set("ablation", "subtree_sharing")
        .set("share_subtrees", share)
        .set("nodes", st.node_count)
        .set("bytes_aggregated", st.bytes_aggregated)
        .set("bytes_unaggregated", st.bytes_unaggregated);
  }
  t2.print(std::cout);

  // --- POP_COUNT vs RISC bit counting (Sec. 5.4) ---
  std::cout << "\n-- instruction selection: POP_COUNT vs RISC loop --\n";
  // The packing ablation below re-emits this tree, so keep it.
  const expcuts::BuiltTree tree =
      expcuts::build_tree_parallel(rules, expcuts::Config{});
  const expcuts::ExpCutsClassifier cls(tree);
  TextTable t3({"popcount", "avg_accesses", "avg_compute_cycles",
                "throughput_mbps"});
  for (bool hw : {true, false}) {
    std::vector<LookupTrace> traces(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      cls.flat().lookup(trace[i], cls.schedule(), &traces[i], hw);
    }
    double compute = 0;
    for (const auto& lt : traces) {
      compute += static_cast<double>(lt.total_compute());
    }
    compute /= static_cast<double>(traces.size());
    const npsim::SimResult res = workload::run_traces_on_npu(
        traces, workload::RunSpec{}, npsim::AppModel{}, true);
    t3.add(hw ? "hardware (3 cyc)" : "RISC loop (>100 cyc)",
           format_fixed(avg_accesses(traces), 1), format_fixed(compute, 0),
           format_mbps(res.mbps));
    report.add_row()
        .set("ablation", "popcount")
        .set("hardware_popcount", hw)
        .set("avg_accesses", avg_accesses(traces))
        .set("avg_compute_cycles", compute)
        .set("throughput_mbps", res.mbps);
  }
  t3.print(std::cout);

  // --- Placement policy for the ExpCuts stream ---
  std::cout << "\n-- channel placement policy (CR03) --\n";
  const auto traces = npsim::collect_traces(cls, trace);
  TextTable t4({"policy", "throughput_mbps", "busiest_util"});
  struct Policy {
    const char* name;
    npsim::Placement placement;
  };
  const npsim::NpuConfig npu = npsim::NpuConfig::ixp2850();
  const std::vector<Policy> policies = {
      {"headroom-proportional (Table 4)",
       npsim::Placement::headroom_proportional(13, npu.sram_headroom, 4)},
      {"round-robin", npsim::Placement::round_robin(13, 4)},
      {"single channel (SRAM#1)", npsim::Placement::single(13, 1)},
  };
  for (const Policy& p : policies) {
    npsim::SimConfig cfg;
    cfg.npu = npu;
    cfg.placement = p.placement;
    const npsim::SimResult res = npsim::simulate(traces, cfg);
    double busiest = 0.0;
    for (const auto& ch : res.sram) busiest = std::max(busiest, ch.utilization);
    t4.add(p.name, format_mbps(res.mbps),
           format_fixed(busiest * 100, 0) + "%");
    report.add_row()
        .set("ablation", "placement")
        .set("policy", std::string(p.name))
        .set("throughput_mbps", res.mbps)
        .set("busiest_util", busiest);
  }
  t4.print(std::cout);

  // --- Image packing: linear v1 vs aligned v2 vs heat-clustered v2 ---
  // Heat for the third row comes from the sampled profiler itself: the
  // batch walker runs once over the trace with 1-in-4 sampling, and the
  // resulting per-offset heat feeds FlatLayoutHints — the same loop
  // `pclass_audit profile` + `build --profile=` automates.
  std::cout << "\n-- image packing (batch walker, CR03) --\n";
  {
    std::vector<u32> offsets;
    expcuts::FlatLayoutHints probe;
    probe.node_offsets_out = &offsets;
    expcuts::Config cfg_v2 = cls.config();
    cfg_v2.layout = expcuts::kLayoutAligned;
    const expcuts::FlatImage aligned(tree.nodes, tree.root, cfg_v2, true,
                                     nullptr, &probe);
    expcuts::Config cfg_v1 = cls.config();
    cfg_v1.layout = expcuts::kLayoutLinear;
    const expcuts::FlatImage linear(tree.nodes, tree.root, cfg_v1);

    telemetry::Profiler& prof = telemetry::Profiler::global();
    const bool was_active = telemetry::active();
    prof.reset();
    prof.set_sample_period(4);
    prof.set_enabled(true);
    std::vector<RuleId> out(trace.size());
    aligned.lookup_batch(trace.packets().data(), out.data(), trace.size(),
                         cls.schedule());
    prof.set_enabled(false);
    const telemetry::HeatProfile heat = prof.snapshot();
    expcuts::FlatLayoutHints hints;
    hints.node_heat.resize(tree.nodes.size());
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      hints.node_heat[i] = heat.expcuts.visits(offsets[i]);
    }
    const expcuts::FlatImage clustered(tree.nodes, tree.root, cfg_v2, true,
                                       nullptr, &hints);

    const int reps = report.quick() ? 3 : 5;
    const auto measure = [&](const expcuts::FlatImage& img) {
      const double best = bench::best_seconds(reps, [&] {
        img.lookup_batch(trace.packets().data(), out.data(), trace.size(),
                         cls.schedule());
      });
      return static_cast<double>(trace.size()) / best / 1e6;
    };
    TextTable t5({"packing", "words", "batch_mpps"});
    struct PackRow {
      const char* name;
      const expcuts::FlatImage* img;
    };
    for (const PackRow& p :
         {PackRow{"linear_v1", &linear}, PackRow{"aligned_v2", &aligned},
          PackRow{"heat_clustered", &clustered}}) {
      const double mpps = measure(*p.img);
      t5.add(p.name, p.img->word_count(), format_fixed(mpps, 2));
      report.add_row()
          .set("ablation", "packing")
          .set("packing", std::string(p.name))
          .set("words", p.img->word_count())
          .set("batch_mpps", mpps);
    }
    t5.print(std::cout);
    if (was_active) prof.set_enabled(true);  // restore --profile-sample
  }
  return report.write();
}

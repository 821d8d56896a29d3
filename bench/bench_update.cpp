// Ablation: live rule updates on ExpCuts (the delta/tombstone layer).
//
// Measures what the update path costs: per-update latency, the lookup
// penalty while updates are pending (extra 6-word delta references), and
// the rebuild cost that amortizes them. A "reader during rebuild" row
// then runs one reader thread in a closed batch loop across a forced
// rebuild() and a series of probe updates: the longest reader batch and
// the reader p99 across the rebuild show whether lookups ever wait on a
// build, and the update-visibility latency is the time from an update
// call returning to the reader first seeing its effect.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <thread>

#include "bench_json.hpp"
#include "common/rng.hpp"
#include "common/texttable.hpp"
#include "expcuts/dynamic.hpp"
#include "npsim/sim.hpp"
#include "packet/tracegen.hpp"
#include "rules/generator.hpp"
#include "workload/workload.hpp"

namespace {

using namespace pclass;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// What the reader saw while the writer rebuilt and then toggled a probe
/// rule at the top of the list.
struct ReaderDuringRebuild {
  double rebuild_ms = 0;
  std::vector<double> batch_us;  ///< Reader batches overlapping the rebuild.
  std::vector<double> visibility_us;  ///< One per probe update.
};

/// Runs one reader thread over `trace` in batches whose last packet is
/// `probe`, while this thread forces one rebuild and then inserts and
/// erases `probe_rule` at position 0 `toggles` times, waiting after each
/// for the reader to observe the new answer.
ReaderDuringRebuild reader_during_rebuild(
    expcuts::DynamicExpCutsClassifier& dyn, const Trace& trace,
    const PacketHeader& probe, const Rule& probe_rule, int toggles) {
  constexpr std::size_t kBatch = 64;
  struct Call {
    Clock::time_point t0, t1;
  };
  // Sized (and so touched) up front: a page fault in the reader's loop
  // would time the kernel, not the classifier. Holds ~15 s of batches.
  std::vector<Call> calls(1u << 21);
  std::size_t recorded = 0;
  // The reader publishes the probe state it last saw and when it saw it.
  std::atomic<bool> probe_hit{false};
  std::atomic<Clock::rep> seen_at{0};
  std::atomic<u64> batches{0};
  // The jthread's destructor requests stop and joins, on every path.
  std::jthread reader([&](const std::stop_token& stop) {
    std::vector<PacketHeader> batch(kBatch);
    std::vector<RuleId> out(kBatch);
    std::size_t cursor = 0;
    bool hit = false;
    while (!stop.stop_requested()) {
      for (std::size_t i = 0; i + 1 < kBatch; ++i) {
        batch[i] = trace[cursor++ % trace.size()];
      }
      batch[kBatch - 1] = probe;
      const Clock::time_point t0 = Clock::now();
      dyn.classify_batch(batch.data(), out.data(), kBatch);
      const Clock::time_point t1 = Clock::now();
      if (recorded < calls.size()) calls[recorded++] = {t0, t1};
      if ((out[kBatch - 1] == 0) != hit) {
        hit = !hit;
        seen_at.store(t1.time_since_epoch().count());
        probe_hit.store(hit);
      }
      batches.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Let the reader get going before the rebuild starts.
  while (batches.load() < 64) std::this_thread::yield();

  ReaderDuringRebuild res;
  const Clock::time_point r0 = Clock::now();
  dyn.rebuild();
  const Clock::time_point r1 = Clock::now();
  res.rebuild_ms = std::chrono::duration<double, std::milli>(r1 - r0).count();

  bool want = false;
  for (int k = 0; k < toggles; ++k) {
    want = !want;
    if (want) {
      dyn.insert(probe_rule, 0);
    } else {
      dyn.erase(0);
    }
    const Clock::time_point returned = Clock::now();
    while (probe_hit.load() != want) std::this_thread::yield();
    const Clock::time_point seen{Clock::duration(seen_at.load())};
    res.visibility_us.push_back(std::max(0.0, us_between(returned, seen)));
  }
  reader.request_stop();
  reader.join();

  for (std::size_t i = 0; i < recorded; ++i) {
    const Call& c = calls[i];
    if (c.t0 < r1 && c.t1 > r0) {
      res.batch_us.push_back(us_between(c.t0, c.t1));
    }
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport report("update", argc, argv);
  workload::Workbench wb(report.quick() ? 4000 : 20000);
  const RuleSet base = wb.ruleset("CR02");
  const Trace& trace = wb.trace("CR02");
  report.config("set", "CR02");
  report.config("packets", u64{trace.size()});

  std::cout << "=== ExpCuts live updates (CR02, " << base.size()
            << " rules) ===\n\n";

  // Rule pool to insert from.
  GeneratorConfig gen;
  gen.profile = RuleProfile::kCoreRouter;
  gen.rule_count = 128;
  gen.seed = 4242;
  gen.with_default = false;
  const RuleSet pool = generate_ruleset(gen);

  TextTable t({"pending_updates", "insert_ms", "lookup_Mbps_sim",
               "extra_words/pkt", "footprint"});
  Rng rng(7);
  expcuts::DynamicExpCutsClassifier dyn(base, expcuts::Config{},
                                        1u << 30);  // no auto rebuild
  double base_words = 0.0;
  for (u32 pending : {0u, 4u, 16u, 64u}) {
    while (dyn.pending_updates() < pending) {
      const Rule& r = pool[static_cast<RuleId>(
          rng.next_below(pool.size()))];
      const Clock::time_point t0 = Clock::now();
      dyn.insert(r, rng.next_below(dyn.rules().size()));
      (void)ms_since(t0);
    }
    // One representative insert timing at this state.
    const Clock::time_point t0 = Clock::now();
    dyn.insert(pool[0], 0);
    const double ins_ms = ms_since(t0);
    dyn.erase(0);

    const auto traces = npsim::collect_traces(dyn, trace);
    double words = 0;
    for (const auto& lt : traces) words += lt.total_words();
    words /= static_cast<double>(traces.size());
    if (pending == 0) base_words = words;
    const npsim::SimResult res = workload::run_traces_on_npu(
        traces, workload::RunSpec{}, npsim::AppModel{}, true);
    t.add(dyn.pending_updates(), format_fixed(ins_ms, 3),
          format_mbps(res.mbps), format_fixed(words - base_words, 1),
          format_bytes(static_cast<double>(dyn.footprint().bytes)));
    report.add_row()
        .set("pending_updates", u64{dyn.pending_updates()})
        .set("insert_ms", ins_ms)
        .set("lookup_mbps_sim", res.mbps)
        .set("extra_words_per_packet", words - base_words)
        .set("footprint_bytes", dyn.footprint().bytes);
  }
  t.print(std::cout);

  // Rebuild cost amortizing the pending state away.
  const Clock::time_point t0 = Clock::now();
  dyn.rebuild();
  const double rebuild_ms = ms_since(t0);
  report.config("rebuild_ms", rebuild_ms);
  std::cout << "\n  full rebuild: " << format_fixed(rebuild_ms, 1)
            << " ms, rebuilds so far: " << dyn.rebuild_count() << "\n"
            << "  Each pending insert adds one worst-case 6-word reference;\n"
               "  the rebuild threshold bounds the degradation.\n";

  // Reader during rebuild. The probe rule sits above everything, so the
  // probe packet's answer flips between 0 and its base verdict.
  const PacketHeader probe{0x0a000001, 0x0a000002, 1234, 61001, kProtoUdp};
  const Rule probe_rule =
      Rule::make(0, 0, 0, 0, 0, 65535, 61001, 61001, kProtoUdp);
  dyn.rebuild();  // start from an empty delta
  if (dyn.classify(probe) == 0) {
    std::cerr << "probe packet already matches rule 0\n";
    return 1;
  }
  const ReaderDuringRebuild rdr =
      reader_during_rebuild(dyn, trace, probe, probe_rule, 32);
  const bench::LatencySummary batch = bench::LatencySummary::of(rdr.batch_us);
  const bench::LatencySummary vis =
      bench::LatencySummary::of(rdr.visibility_us);
  std::cout << "\n  reader during rebuild: rebuild "
            << format_fixed(rdr.rebuild_ms, 1) << " ms, " << batch.samples
            << " reader batches overlapped it, longest "
            << format_fixed(batch.max, 1) << " us, p99 "
            << format_fixed(batch.p99, 1) << " us\n"
            << "  update visibility over " << vis.samples
            << " probe updates: p50 " << format_fixed(vis.p50, 1)
            << " us, max " << format_fixed(vis.max, 1) << " us\n";
  report.add_row()
      .set("row", "reader_during_rebuild")
      .set("rebuild_ms", rdr.rebuild_ms)
      .set("reader_batches", u64{batch.samples})
      .set("reader_longest_batch_us", batch.max)
      .set("reader_p99_us", batch.p99)
      .set("visibility_p50_us", vis.p50)
      .set("visibility_max_us", vis.max);
  std::vector<double> batch_ns;
  for (double us : rdr.batch_us) batch_ns.push_back(us * 1e3);
  report.add_latency_ns("reader_batch_during_rebuild", std::move(batch_ns));
  return report.write();
}

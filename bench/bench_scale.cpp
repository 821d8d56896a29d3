// Scale-out benchmark: 100k .. 1M rule ClassBench-style sets end to end.
//
// Exercises the full large-set pipeline the paper's evaluation could not
// (its biggest set, CR04, has 1945 rules): generate a scale tier
// (workload/scalegen.hpp), build the ExpCuts tree with the parallel
// builder (expcuts/build_parallel.hpp), serialize the v3 image, reopen it
// through the zero-copy mmap loader under a strict structural audit, and
// batch-classify a trace against the mapping. Emits the standardized
// bench JSON (default BENCH_scale.json) whose build_seconds / image_bytes
// / batch_mpps rows feed the CI scale-smoke gate (tools/check_bench.py).
//
//   --quick       100k tiers only, fewer packets/reps (the CI smoke lane)
//   --sets=A,B    run only the named tiers (e.g. --sets=CR-1M)
//
// The full run also times a one-worker build of the same tree (up to
// 500k rules; 1M serial builds are left to the reader's patience) so
// build_speedup records the parallel payoff per machine. On a 1-core host
// the speedup is ~1.0 by construction — the committed baseline documents
// the machine it came from via the "machine" section, and cross-machine
// comparisons gate on sizes, not seconds.
//
// Every --sets name must be a scale tier; an unknown name fails the run
// (exit 2) before anything is generated or built.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/verify_image.hpp"
#include "bench_json.hpp"
#include "common/error.hpp"
#include "expcuts/build_parallel.hpp"
#include "expcuts/image_io.hpp"
#include "packet/tracegen.hpp"
#include "workload/scalegen.hpp"

namespace {

using namespace pclass;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct TierResult {
  double gen_seconds = 0;
  double build_seconds = 0;
  double serial_build_seconds = 0;  ///< 0 = not measured.
  double audit_seconds = 0;
  double semantic_audit_seconds = 0;
  u64 image_bytes = 0;
  u64 nodes = 0;
  u32 stride_w = 0;
  u32 degrade_steps = 0;
  double batch_mpps = 0;
};

void run_tier(bench::BenchReport& report, const workload::ScaleSetSpec& spec,
              std::size_t packets, int reps, bool measure_serial) {
  TierResult r;

  auto t0 = std::chrono::steady_clock::now();
  const RuleSet rules = workload::generate_scale_ruleset(spec.name);
  r.gen_seconds = seconds_since(t0);

  expcuts::Config cfg;
  // 0 = one worker per hardware thread. The builder's output is
  // byte-identical for every thread count, so image_bytes rows are
  // machine-independent even though build_seconds are not.
  cfg.build_threads = 0;
  t0 = std::chrono::steady_clock::now();
  const expcuts::ExpCutsClassifier cls(rules, cfg);
  r.build_seconds = seconds_since(t0);
  r.nodes = cls.stats().node_count;
  r.stride_w = cls.config().stride_w;
  r.degrade_steps = cls.stats().build_degrade_steps;

  if (measure_serial) {
    t0 = std::chrono::steady_clock::now();
    const expcuts::ExpCutsClassifier serial(rules);  // one worker
    r.serial_build_seconds = seconds_since(t0);
  }

  // Serialize, then reopen through the mmap path with the structural
  // auditor on: the measured lookups run against the audited mapping, so
  // a builder bug at scale fails the bench rather than skewing it.
  const std::string image_path = spec.name + std::string(".xpc3");
  expcuts::save_image_file(image_path, cls);
  t0 = std::chrono::steady_clock::now();
  const expcuts::LoadedImage mapped =
      expcuts::map_image_file(image_path, /*strict=*/true);
  r.audit_seconds = seconds_since(t0);
  r.image_bytes = u64{mapped.image.bytes()};

  // Semantic verification on top of the structural audit: the symbolic
  // walk proves the mapped image equivalent to first-match search over
  // the generating rule list (src/analysis/). A violation at scale is a
  // builder bug; fail loudly rather than report a meaningless time.
  analysis::SemanticOptions sem_opts;
  sem_opts.threads = 0;  // one walker per hardware thread
  t0 = std::chrono::steady_clock::now();
  const analysis::SemanticReport sem = analysis::verify_flat_image(
      mapped.image, mapped.schedule, rules, sem_opts);
  r.semantic_audit_seconds = seconds_since(t0);
  if (!sem.ok()) {
    throw InternalError(std::string(spec.name) +
                        ": semantic verification failed: " +
                        sem.report.summary());
  }

  TraceGenConfig tcfg;
  tcfg.count = packets;
  tcfg.seed = spec.seed ^ 0x7ace;
  tcfg.rule_directed_fraction = 0.8;
  const Trace trace = generate_trace(rules, tcfg);
  std::vector<RuleId> out(trace.size(), kNoMatch);
  const double best = bench::best_seconds(reps, [&] {
    mapped.image.lookup_batch(trace.packets().data(), out.data(), trace.size(),
                              mapped.schedule);
  });
  r.batch_mpps = static_cast<double>(trace.size()) / best / 1e6;
  std::remove(image_path.c_str());

  bench::BenchReport::Row& row = report.add_row();
  row.set("set", std::string(spec.name))
      .set("profile", workload::scale_profile_name(spec.profile))
      .set("rules", u64{rules.size()})
      .set("gen_seconds", r.gen_seconds)
      .set("build_seconds", r.build_seconds)
      .set("audit_seconds", r.audit_seconds)
      .set("semantic_audit_seconds", r.semantic_audit_seconds)
      .set("image_bytes", r.image_bytes)
      .set("nodes", r.nodes)
      .set("stride", u64{r.stride_w})
      .set("degrade_steps", u64{r.degrade_steps})
      .set("batch_mpps", r.batch_mpps);
  if (measure_serial) {
    row.set("serial_build_seconds", r.serial_build_seconds)
        .set("build_speedup", r.build_seconds > 0
                                  ? r.serial_build_seconds / r.build_seconds
                                  : 0.0);
  }

  std::printf(
      "%-8s rules=%-8zu gen=%.1fs build=%.1fs%s audit=%.2fs sem=%.2fs "
      "image=%.1fMB nodes=%llu stride=%u batch=%.2f Mpps\n",
      spec.name, rules.size(), r.gen_seconds, r.build_seconds,
      measure_serial
          ? (" serial=" + std::to_string(r.serial_build_seconds) + "s").c_str()
          : "",
      r.audit_seconds, r.semantic_audit_seconds,
      static_cast<double>(r.image_bytes) / (1024.0 * 1024.0),
      static_cast<unsigned long long>(r.nodes), r.stride_w, r.batch_mpps);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our own --sets= filter before BenchReport sees (and warns
  // about) it.
  std::vector<char*> passthrough;
  std::string sets_filter;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sets=", 7) == 0) {
      sets_filter = argv[i] + 7;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  // Comma-separated exact tier names; every one must exist.
  const std::vector<workload::ScaleSetSpec>& tiers =
      workload::scale_rulesets();
  std::vector<std::string> wanted;
  std::string unknown;
  std::istringstream names(sets_filter);
  for (std::string name; std::getline(names, name, ',');) {
    const bool known = std::any_of(
        tiers.begin(), tiers.end(),
        [&](const workload::ScaleSetSpec& t) { return name == t.name; });
    if (!known) unknown += (unknown.empty() ? "" : ",") + name;
    wanted.push_back(name);
  }
  if (!unknown.empty()) {
    std::fprintf(stderr, "bench_scale: unknown tier(s) in --sets: %s\n",
                 unknown.c_str());
    return 2;
  }
  bench::BenchReport report("scale", static_cast<int>(passthrough.size()),
                            passthrough.data());

  const unsigned threads = expcuts::effective_build_threads(0);
  const std::size_t packets = report.quick() ? 50000 : 200000;
  const int reps = report.quick() ? 2 : 3;

  auto selected = [&](const workload::ScaleSetSpec& s) {
    if (!wanted.empty()) {
      return std::find(wanted.begin(), wanted.end(), s.name) != wanted.end();
    }
    return !report.quick() || s.rule_count == 100000;
  };

  report.config("threads", threads);
  report.config("packets", u64{packets});
  report.config("reps", reps);
  report.config("strict_audit", true);
  report.config("simd", simd::name(simd::active()));

  for (const workload::ScaleSetSpec& spec : tiers) {
    if (!selected(spec)) continue;
    // Serial reference builds: always at 100k, in full runs up to 500k.
    const bool measure_serial =
        spec.rule_count <= (report.quick() ? 100000u : 500000u);
    run_tier(report, spec, packets, reps, measure_serial);
  }
  return report.write();
}

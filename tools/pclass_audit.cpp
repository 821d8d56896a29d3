// pclass_audit — command-line front end of the structural auditor.
//
// Proves classifier images well-formed without executing a lookup (see
// src/audit/ and DESIGN.md §10). Reports are pclass-audit-v1 JSON on
// stdout so CI can archive and diff them.
//
//   pclass_audit audit [--mmap] [--semantic=RULESET] [--threads=N]
//                      <image.bin> [rule_count]
//       Audit a serialized ExpCuts SRAM image (as written by `build` or
//       expcuts::save_image). rule_count, when given, additionally proves
//       every leaf's rule id in range. --mmap opens the image through the
//       zero-copy mapping loader (v3 images only) so the audited words
//       are the very bytes the data plane would run against. --semantic
//       chains the symbolic verifier (src/analysis/) after the structural
//       pass: the named rule set is regenerated and the image proved
//       equivalent to first-match linear search over it; the verdict
//       lands in the JSON's "semantic" object and failures carry region
//       witnesses. --threads parallelizes the semantic walk.
//   pclass_audit build [--threads=N] [--budget=BYTES] [--profile=HEAT.json]
//                      <ruleset> <out.bin>
//       Compile a rule set and write its aggregated image — the
//       golden-image producer for CI. Accepts the seed rule sets
//       (FW01..CR04) and the scale tiers (FW-100k..ACL-1M; see
//       workload/scalegen.hpp). --threads sets the build workers
//       (0 = one per hardware thread; the image is the same for every
//       count), --budget caps the build's
//       transient memory, degrading the stride instead of failing.
//       --profile feeds a pclass-heat-v1 profile (from `profile` or the
//       exporter) back into the layout-v2 packing: each level's hottest
//       nodes move into its leading cache lines. The relayout is proved
//       safe before the image is written — strict structural audit plus a
//       differential sweep against the unprofiled image.
//   pclass_audit profile [--packets=N] [--period=N] [--threads=N]
//                        [--budget=BYTES] <ruleset> <out.json>
//       Build a rule set, classify a synthetic skewed trace with the
//       sampled heat profiler enabled, and write the resulting
//       pclass-heat-v1 profile — the input `build --profile=` consumes.
//   pclass_audit selftest
//       Build every seed rule set across ExpCuts (aggregated and
//       unaggregated), HiCuts and HSM, audit each structure, and strict-
//       load a serialization round trip. The ctest suite runs this.
//
// Any command also accepts --hw: the whole run is bracketed with PMU
// counters (src/perf/perf.hpp) and the deltas print to stderr — stdout
// stays pure JSON. Inert, with the reason stated, on hosts that deny
// perf_event_open.
//
// Exit codes: 0 = every audit clean, 1 = violations found, 2 = usage or
// I/O error.
#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "common/error.hpp"
#include "expcuts/build_parallel.hpp"
#include "expcuts/image_io.hpp"
#include "hicuts/hicuts.hpp"
#include "hsm/hsm.hpp"
#include "packet/tracegen.hpp"
#include "perf/perf.hpp"
#include "rules/generator.hpp"
#include "telemetry/profile.hpp"
#include "workload/scalegen.hpp"

namespace {

using namespace pclass;

int usage() {
  std::cerr
      << "usage: pclass_audit audit [--mmap] [--semantic=RULESET] "
         "[--threads=N] [--hw] <image.bin> [rule_count]\n"
         "       (--hw on any command prints PMU counter deltas for the "
         "run to stderr)\n"
      << "       pclass_audit build [--threads=N] [--budget=BYTES] "
         "[--profile=HEAT.json] <ruleset> <out.bin>\n"
      << "       pclass_audit profile [--packets=N] [--period=N] "
         "[--threads=N] [--budget=BYTES] <ruleset> <out.json>\n"
      << "       pclass_audit selftest\n"
      << "rulesets: ";
  for (const PaperRuleSetSpec& spec : paper_rulesets()) {
    std::cerr << spec.name << " ";
  }
  for (const workload::ScaleSetSpec& spec : workload::scale_rulesets()) {
    std::cerr << spec.name << " ";
  }
  std::cerr << "\n";
  return 2;
}

/// Accepts a seed set name (FW01..CR04) or a scale tier (FW-100k..ACL-1M).
RuleSet generate_any_ruleset(const std::string& name) {
  for (const PaperRuleSetSpec& spec : paper_rulesets()) {
    if (name == spec.name) return generate_paper_ruleset(name);
  }
  return workload::generate_scale_ruleset(name);
}

int cmd_audit(const std::string& path, u32 rule_count, bool use_mmap,
              const std::string& semantic_name, u32 threads) {
  const expcuts::LoadedImage li = use_mmap ? expcuts::map_image_file(path)
                                           : expcuts::load_image_file(path);
  if (semantic_name.empty()) {
    const audit::AuditReport report = audit::audit_image(li, rule_count);
    audit::write_json(std::cout, report, path);
    std::cout << "\n";
    return report.ok() ? 0 : 1;
  }

  // The image file carries no rules, so the semantic pass regenerates the
  // named set deterministically — the same way `build` produced it.
  const RuleSet rules = generate_any_ruleset(semantic_name);
  const audit::AuditReport report =
      audit::audit_image(li, static_cast<u32>(rules.size()));
  if (!report.ok()) {
    // Don't walk a structurally broken image: the verifier's region logic
    // assumes in-bounds pointers and sane headers (verify_image.hpp).
    audit::write_json(std::cout, report, path);
    std::cout << "\n";
    return 1;
  }
  analysis::SemanticOptions opts;
  opts.threads = threads;
  const analysis::SemanticReport sem =
      analysis::verify_flat_image(li.image, li.schedule, rules, opts);
  audit::write_json(std::cout, report, path, &sem);
  std::cout << "\n";
  return sem.ok() ? 0 : 1;
}

/// The skewed synthetic trace profiling runs drive: Zipf-like rule
/// popularity so the sampled heat actually discriminates hot from cold
/// paths (a uniform trace heats every node equally).
Trace make_profile_trace(const RuleSet& rules, std::size_t packets) {
  TraceGenConfig tc;
  tc.count = packets;
  tc.rule_skew = 1.0;
  return generate_trace(rules, tc);
}

int cmd_build(const std::string& name, const std::string& out, u32 threads,
              u64 budget_bytes, const std::string& profile_path) {
  const RuleSet rules = generate_any_ruleset(name);
  expcuts::Config cfg;
  cfg.build_threads = threads;
  cfg.memory_budget_bytes = budget_bytes;
  if (profile_path.empty()) {
    const expcuts::ExpCutsClassifier cls(rules, cfg);
    expcuts::save_image_file(out, cls);
    std::cerr << "pclass_audit: wrote " << out << " (" << rules.size()
              << " rules, " << cls.flat().word_count() << " words, stride "
              << cls.config().stride_w << ")\n";
    return 0;
  }

  // Profile-guided relayout. The heat profile keys nodes by word offset
  // in the *unprofiled* image; the build is deterministic, so emitting
  // the tree with the offset map exposed recovers that keying exactly.
  const expcuts::BuiltTree tree = expcuts::build_tree_parallel(rules, cfg);
  check(tree.cfg.layout == expcuts::kLayoutAligned,
        "pclass_audit: --profile requires the layout-v2 (aligned) build");
  const expcuts::Schedule sched =
      expcuts::Schedule::make(tree.cfg.stride_w, tree.cfg.order);
  const telemetry::HeatProfile prof =
      telemetry::HeatProfile::load_json_file(profile_path);
  std::vector<u32> plain_offsets;
  expcuts::FlatLayoutHints offset_probe;
  offset_probe.node_offsets_out = &plain_offsets;
  const expcuts::FlatImage plain(tree.nodes, tree.root, tree.cfg,
                                 /*aggregated=*/true, nullptr, &offset_probe);
  expcuts::FlatLayoutHints heat_hints;
  heat_hints.node_heat.resize(tree.nodes.size());
  u64 heated = 0;
  for (std::size_t i = 0; i < plain_offsets.size(); ++i) {
    heat_hints.node_heat[i] = prof.expcuts.visits(plain_offsets[i]);
    if (heat_hints.node_heat[i] != 0) ++heated;
  }
  const expcuts::FlatImage hot(tree.nodes, tree.root, tree.cfg,
                               /*aggregated=*/true, nullptr, &heat_hints);

  // Prove the permutation structure-preserving before it can ship: the
  // full strict audit, then a differential sweep against the unprofiled
  // image over a fresh trace (batch walker, so the SIMD path is covered).
  audit::AuditOptions opts;
  opts.rule_count = static_cast<u32>(rules.size());
  const audit::AuditReport report =
      audit::audit_flat_image(hot, sched.depth(), opts);
  if (!report.ok()) {
    audit::write_json(std::cout, report, out);
    std::cout << "\n";
    std::cerr << "pclass_audit: heat relayout failed structural audit\n";
    return 1;
  }
  const Trace diff = make_profile_trace(rules, 20000);
  std::vector<RuleId> got(diff.size()), want(diff.size());
  hot.lookup_batch(diff.packets().data(), got.data(), diff.size(), sched);
  plain.lookup_batch(diff.packets().data(), want.data(), diff.size(), sched);
  for (std::size_t i = 0; i < diff.size(); ++i) {
    check(got[i] == want[i],
          "pclass_audit: heat relayout changed a classification");
  }
  expcuts::save_image_file(out, hot, tree.cfg);
  std::cerr << "pclass_audit: wrote " << out << " (" << rules.size()
            << " rules, " << hot.word_count() << " words, stride "
            << tree.cfg.stride_w << ", heat-clustered: " << heated << "/"
            << tree.nodes.size() << " nodes with samples)\n";
  return 0;
}

int cmd_profile(const std::string& name, const std::string& out,
                std::size_t packets, u32 period, u32 threads,
                u64 budget_bytes) {
  const RuleSet rules = generate_any_ruleset(name);
  expcuts::Config cfg;
  cfg.build_threads = threads;
  cfg.memory_budget_bytes = budget_bytes;
  const expcuts::ExpCutsClassifier cls(rules, cfg);
  const Trace trace = make_profile_trace(rules, packets);

  telemetry::Profiler& prof = telemetry::Profiler::global();
  prof.reset();
  prof.set_sample_period(period);
  prof.set_enabled(true);
  std::vector<RuleId> out_ids(trace.size());
  cls.classify_batch(trace.packets().data(), out_ids.data(), trace.size());
  prof.set_enabled(false);
  const telemetry::HeatProfile heat = prof.snapshot();
  heat.save_json_file(out);
  std::cerr << "pclass_audit: wrote " << out << " ("
            << heat.expcuts.sampled_lookups << " sampled lookups, "
            << heat.expcuts.nodes.size() << " distinct nodes, period "
            << heat.sample_period << ")\n";
#if !PCLASS_PROFILE_ENABLED
  std::cerr << "pclass_audit: warning: profiler compiled out "
               "(-DPCLASS_PROFILE=OFF); profile is empty\n";
#endif
  return 0;
}

/// Runs one named audit; prints a PASS/FAIL line on stderr and emits the
/// JSON report on stdout only on failure (so a clean selftest stays quiet
/// enough to read).
bool run_check(const std::string& subject, const audit::AuditReport& report) {
  std::cerr << (report.ok() ? "PASS " : "FAIL ") << subject << " ("
            << report.summary() << ")\n";
  if (!report.ok()) {
    audit::write_json(std::cout, report, subject);
    std::cout << "\n";
  }
  return report.ok();
}

int cmd_selftest() {
  bool all_ok = true;
  for (const PaperRuleSetSpec& spec : paper_rulesets()) {
    const std::string name = spec.name;
    const RuleSet rules = generate_paper_ruleset(name);
    const u32 n = static_cast<u32>(rules.size());

    const expcuts::BuiltTree tree =
        expcuts::build_tree_parallel(rules, expcuts::Config{});
    const expcuts::ExpCutsClassifier cls(tree);
    all_ok &= run_check(name + "/expcuts", audit::audit_classifier(cls));

    // The Fig. 6 "without aggregation" baseline shares the tree but lays
    // pointers out directly; it must satisfy the same invariants.
    const expcuts::FlatImage flat_direct(tree.nodes, tree.root, cls.config(),
                                         /*aggregated=*/false);
    audit::AuditOptions opts;
    opts.rule_count = n;
    all_ok &= run_check(
        name + "/expcuts-unaggregated",
        audit::audit_flat_image(flat_direct, cls.schedule().depth(), opts));

    // Serialization round trip under strict load: a clean image must pass
    // the on-load audit, and the reloaded words must audit clean again.
    std::stringstream wire;
    expcuts::save_image(wire, cls);
    const expcuts::LoadedImage li = expcuts::load_image(wire, /*strict=*/true);
    all_ok &= run_check(name + "/expcuts-roundtrip",
                        audit::audit_image(li, n));

    const hicuts::HiCutsClassifier hc(rules);
    all_ok &= run_check(name + "/hicuts", audit::audit_hicuts(hc, rules));

    const hsm::HsmClassifier hs(rules);
    all_ok &= run_check(name + "/hsm", audit::audit_hsm(hs, n));
  }
  std::cerr << (all_ok ? "selftest: all audits clean\n"
                       : "selftest: violations found\n");
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    // Split the remaining argv into --flags and positionals.
    bool use_mmap = false;
    bool hw = false;
    u32 threads = 1;
    u64 budget_bytes = 0;
    std::string profile_path;
    std::string semantic_name;
    std::size_t packets = 200000;
    u32 period = 4;
    std::vector<std::string> pos;
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--mmap") {
        use_mmap = true;
      } else if (a == "--hw") {
        hw = true;
      } else if (a.rfind("--threads=", 0) == 0) {
        threads = static_cast<u32>(std::strtoul(a.c_str() + 10, nullptr, 10));
      } else if (a.rfind("--budget=", 0) == 0) {
        budget_bytes = std::strtoull(a.c_str() + 9, nullptr, 10);
      } else if (a.rfind("--profile=", 0) == 0) {
        profile_path = a.substr(10);
      } else if (a.rfind("--semantic=", 0) == 0) {
        semantic_name = a.substr(11);
      } else if (a.rfind("--packets=", 0) == 0) {
        packets = std::strtoull(a.c_str() + 10, nullptr, 10);
      } else if (a.rfind("--period=", 0) == 0) {
        period = static_cast<u32>(std::strtoul(a.c_str() + 9, nullptr, 10));
      } else if (a.rfind("--", 0) == 0) {
        std::cerr << "pclass_audit: unknown flag '" << a << "'\n";
        return usage();
      } else {
        pos.push_back(a);
      }
    }
    // --hw brackets the whole command with PMU counters and prints the
    // deltas to stderr — stdout stays pure JSON for CI's json.load. The
    // bracket is inert (and says why, once) on degraded hosts.
    std::optional<perf::ScopedCounters> hw_scope;
    if (hw) hw_scope.emplace("pclass_audit " + cmd);
    const auto finish_hw = [&](int rc) {
      if (hw_scope.has_value()) {
        std::cerr << "pclass_audit: hw counters for '" << cmd << "':\n"
                  << perf::summarize(hw_scope->stop());
      }
      return rc;
    };
    if (cmd == "audit" && (pos.size() == 1 || pos.size() == 2)) {
      const u32 rule_count =
          pos.size() == 2
              ? static_cast<u32>(std::strtoul(pos[1].c_str(), nullptr, 10))
              : 0;
      return finish_hw(
          cmd_audit(pos[0], rule_count, use_mmap, semantic_name, threads));
    }
    if (cmd == "build" && pos.size() == 2) {
      return finish_hw(
          cmd_build(pos[0], pos[1], threads, budget_bytes, profile_path));
    }
    if (cmd == "profile" && pos.size() == 2) {
      return finish_hw(cmd_profile(pos[0], pos[1], packets, period, threads,
                                   budget_bytes));
    }
    if (cmd == "selftest" && pos.empty() && argc == 2) return cmd_selftest();
    return usage();
  } catch (const Error& e) {
    std::cerr << "pclass_audit: " << e.what() << "\n";
    return 2;
  }
}

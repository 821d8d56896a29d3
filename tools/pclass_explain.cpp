// pclass_explain — decision-path explainer for the ExpCuts SRAM image.
//
// Answers "why did this packet match that rule?": builds one of the seed
// rule sets, runs the given 5-tuple through FlatImage::lookup_explained
// (the production decode_step, so the explanation cannot diverge from
// classify()) and prints every level's HABS rank arithmetic from paper
// Sec. 4.2.2 — header chunk, HABS word, m, j, masked bits, rank i, CPA
// index — down to the final rule and its priority (DESIGN.md §11).
//
//   pclass_explain explain <ruleset> <sip> <dip> <sport> <dport> <proto>
//                  [--algo=expcuts|hicuts|hsm] [--json] [--chrome-trace=PATH]
//                  [--verify] [--direct] [--hw]
//       IPs are dotted quads or plain decimal; ports/proto are decimal.
//       --algo selects the classifier (default expcuts; hicuts/hsm render
//       their decision path from the trace recorder's per-level events);
//       --json emits a pclass-explain-v1 object instead of the table;
//       --chrome-trace=PATH additionally records the lookup with the
//       trace recorder and writes a Perfetto-loadable trace-event file;
//       --verify cross-checks the verdict against the linear-search
//       reference; --direct explains the unaggregated (Fig. 6) layout;
//       --hw re-runs the exercised path 1000x under a PMU counter
//       bracket (src/perf/perf.hpp) and prints per-lookup cycle/miss
//       deltas to stderr (inert, with the reason, on denied hosts).
//   pclass_explain selftest
//       Every seed rule set: explained verdicts must agree with linear
//       search on 10k generated packets plus uniform-random headers, and
//       every path must respect the W/w = 13 depth bound. ctest runs this.
//
// Exit codes: 0 = ok, 1 = verification mismatch, 2 = usage or I/O error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "classify/linear.hpp"
#include "common/error.hpp"
#include "expcuts/build_parallel.hpp"
#include "expcuts/flat.hpp"
#include "hicuts/hicuts.hpp"
#include "hsm/hsm.hpp"
#include "packet/tracegen.hpp"
#include "perf/perf.hpp"
#include "rules/generator.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace {

using namespace pclass;

int usage() {
  std::cerr << "usage: pclass_explain explain <ruleset> <sip> <dip> <sport> "
               "<dport> <proto>\n"
            << "                      [--algo=expcuts|hicuts|hsm] [--json] "
               "[--chrome-trace=PATH]\n"
            << "                      [--verify] [--direct] [--hw]\n"
            << "       pclass_explain selftest\n"
            << "rulesets: ";
  for (const PaperRuleSetSpec& spec : paper_rulesets()) {
    std::cerr << spec.name << " ";
  }
  std::cerr << "\n";
  return 2;
}

/// Parses a dotted quad ("10.1.2.3") or a plain decimal u32. Throws
/// ConfigError on malformed input (trailing junk, octet > 255, > 4 octets).
u32 parse_ip(const std::string& s) {
  u64 octets[4] = {0, 0, 0, 0};
  int n_octets = 0;
  u64 cur = 0;
  bool have_digit = false;
  bool dotted = false;
  for (const char ch : s) {
    if (ch >= '0' && ch <= '9') {
      cur = cur * 10 + static_cast<u64>(ch - '0');
      if (cur > 0xffffffffull) throw ConfigError("IP out of range: " + s);
      have_digit = true;
    } else if (ch == '.') {
      if (!have_digit || n_octets >= 3) throw ConfigError("bad IP: " + s);
      octets[n_octets++] = cur;
      cur = 0;
      have_digit = false;
      dotted = true;
    } else {
      throw ConfigError("bad IP: " + s);
    }
  }
  if (!have_digit) throw ConfigError("bad IP: " + s);
  if (!dotted) return static_cast<u32>(cur);
  if (n_octets != 3) throw ConfigError("bad IP: " + s);
  octets[3] = cur;
  u32 ip = 0;
  for (int i = 0; i < 4; ++i) {
    if (octets[i] > 255) throw ConfigError("IP octet > 255: " + s);
    ip = (ip << 8) | static_cast<u32>(octets[i]);
  }
  return ip;
}

u64 parse_uint(const std::string& s, u64 max, const char* what) {
  if (s.empty()) throw ConfigError(std::string("empty ") + what);
  u64 v = 0;
  for (const char ch : s) {
    if (ch < '0' || ch > '9') {
      throw ConfigError(std::string("bad ") + what + ": " + s);
    }
    v = v * 10 + static_cast<u64>(ch - '0');
    if (v > max) throw ConfigError(std::string(what) + " out of range: " + s);
  }
  return v;
}

std::string action_name(Action a) {
  return a == Action::kPermit ? "permit" : "deny";
}

/// One formatted line per level of the decode, e.g.
///   level  3  sip[15:8]    node@142   chunk=0x1f habs=0x8421 m=1 j=15
///   masked=0x0021 i=1 cpa[31] word@174 -> node@388
void print_steps(std::ostream& os, const std::vector<expcuts::ExplainStep>& steps,
                 const expcuts::Schedule& sched, bool aggregated) {
  char buf[192];
  for (const expcuts::ExplainStep& e : steps) {
    const expcuts::Chunk& ch = sched.level(e.level);
    const u32 w = sched.stride();
    std::snprintf(buf, sizeof(buf),
                  "level %2u  %-5s[%2u:%2u]  node@%-8u chunk=0x%02x", e.level,
                  dim_name(ch.dim), ch.shift + w - 1, ch.shift, e.node_off,
                  e.chunk);
    os << buf;
    if (aggregated) {
      std::snprintf(buf, sizeof(buf),
                    "  habs=0x%04x m=%u j=%-2u masked=0x%04x i=%-2u cpa[%u]",
                    e.habs, e.m, e.j, e.masked, e.rank_i, e.cpa_index);
      os << buf;
    } else {
      std::snprintf(buf, sizeof(buf), "  direct[%u]", e.cpa_index);
      os << buf;
    }
    std::snprintf(buf, sizeof(buf), " word@%u -> ", e.ptr_off);
    os << buf;
    if (expcuts::ptr_is_leaf(e.child)) {
      const RuleId r = expcuts::leaf_rule(e.child);
      if (r == kNoMatch) {
        os << "leaf (no match)";
      } else {
        os << "leaf rule " << r;
      }
    } else {
      os << "node@" << e.child;
    }
    os << "\n";
  }
}

void print_steps_json(std::ostream& os,
                      const std::vector<expcuts::ExplainStep>& steps,
                      const expcuts::Schedule& sched) {
  os << "[";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const expcuts::ExplainStep& e = steps[i];
    const expcuts::Chunk& ch = sched.level(e.level);
    if (i != 0) os << ",";
    os << "\n    {\"level\":" << e.level << ",\"dim\":\""
       << dim_name(ch.dim) << "\",\"bit_lo\":" << ch.shift
       << ",\"node_word\":" << e.node_off << ",\"header\":" << e.header
       << ",\"chunk\":" << e.chunk << ",\"habs\":" << e.habs
       << ",\"m\":" << e.m << ",\"j\":" << e.j << ",\"masked\":" << e.masked
       << ",\"rank_i\":" << e.rank_i << ",\"cpa_index\":" << e.cpa_index
       << ",\"ptr_word\":" << e.ptr_off << ",\"child\":" << e.child
       << ",\"is_leaf\":"
       << (expcuts::ptr_is_leaf(e.child) ? "true" : "false") << "}";
  }
  os << "\n  ]";
}

struct ExplainOptions {
  bool json = false;
  bool verify = false;
  bool aggregated = true;
  bool hw = false;  ///< Bracket the exercised path with PMU counters.
  std::string algo = "expcuts";
  std::string chrome_trace;  ///< Empty = no trace capture.
};

/// --hw: one lookup is far too brief for the PMU to say anything, so the
/// exercised path is re-run identically kHwReps times under a counter
/// bracket and the per-lookup deltas print to stderr (stdout carries the
/// explain output untouched). Inert, with the reason, on denied hosts.
constexpr u64 kHwReps = 1000;

template <typename F>
void print_hw_for_path(F&& one_lookup) {
  perf::ScopedCounters hw("explain");
  for (u64 i = 0; i < kHwReps; ++i) one_lookup();
  std::cerr << "pclass_explain: hw counters over " << kHwReps
            << " identical lookups:\n"
            << perf::summarize(hw.stop(), kHwReps);
}

/// Common tail: the verdict block (text or JSON fragment) and the
/// optional linear-search cross-check. Returns the exit code.
int report_verdict(const RuleSet& rules, const PacketHeader& h,
                   RuleId verdict, const ExplainOptions& opt,
                   bool json_needs_comma) {
  RuleId linear_verdict = kNoMatch;
  bool agree = true;
  if (opt.verify) {
    const LinearSearchClassifier lin(rules);
    linear_verdict = lin.classify(h);
    agree = linear_verdict == verdict;
  }
  const bool matched = verdict != kNoMatch;
  if (opt.json) {
    std::ostream& os = std::cout;
    os << (json_needs_comma ? ",\n" : "") << "  \"verdict\": {\"matched\":"
       << (matched ? "true" : "false")
       << ",\"rule\":" << (matched ? std::to_string(verdict) : "null")
       << ",\"priority\":" << (matched ? std::to_string(verdict) : "null");
    if (matched) {
      os << ",\"action\":\"" << action_name(rules[verdict].action)
         << "\",\"rule_text\":\"" << trace::json_escape(rules[verdict].str())
         << "\"";
    }
    os << "}";
    if (opt.verify) {
      os << ",\n  \"linear\": {\"rule\":"
         << (linear_verdict != kNoMatch ? std::to_string(linear_verdict)
                                        : "null")
         << ",\"agrees\":" << (agree ? "true" : "false") << "}";
    }
    os << "\n}\n";
  } else {
    if (matched) {
      std::cout << "verdict: rule " << verdict << " (priority " << verdict
                << ", " << action_name(rules[verdict].action) << ")  "
                << rules[verdict].str() << "\n";
    } else {
      std::cout << "verdict: no match\n";
    }
    if (opt.verify) {
      std::cout << "linear:  ";
      if (linear_verdict != kNoMatch) {
        std::cout << "rule " << linear_verdict;
      } else {
        std::cout << "no match";
      }
      std::cout << (agree ? " (agrees)" : " (MISMATCH)") << "\n";
    }
  }
  if (!agree) {
    std::cerr << "pclass_explain: verdict disagrees with linear search\n";
    return 1;
  }
  return 0;
}

/// HiCuts / HSM path: classify once with the trace recorder live and
/// render the decision path from this thread's per-level events (the
/// walkers themselves emit them, so the path shown is the path walked).
int cmd_explain_traced(const std::string& ruleset, const RuleSet& rules,
                       const Classifier& cls, const PacketHeader& h,
                       const ExplainOptions& opt) {
  trace::Registry::global().reset();
  trace::Registry::global().set_enabled(true);
  const RuleId verdict = cls.classify(h);
  trace::Registry::global().set_enabled(false);
  const trace::TraceSnapshot snap = trace::Registry::global().snapshot();
  if (!opt.chrome_trace.empty()) {
    trace::write_chrome_trace_file(opt.chrome_trace, snap,
                                   ruleset + " " + h.str());
  }

  const u64 tid = trace::Registry::local().tid();
  std::vector<trace::Event> path;
  for (const trace::ThreadTrace& t : snap.threads) {
    if (t.tid != tid) continue;
    for (const trace::Event& e : t.events) {
      if (e.kind == trace::EventKind::kHiCutsLevel ||
          e.kind == trace::EventKind::kHiCutsLeaf ||
          e.kind == trace::EventKind::kHsmStage) {
        path.push_back(e);
      }
    }
  }
  if (path.empty()) {
    std::cerr << "pclass_explain: no path events captured (built with "
                 "PCLASS_TRACE=OFF?); verdict only\n";
  }
  if (opt.hw) print_hw_for_path([&] { (void)cls.classify(h); });

  if (opt.json) {
    std::cout << "{\n  \"schema\": \"pclass-explain-v1\",\n"
              << "  \"ruleset\": \"" << trace::json_escape(ruleset)
              << "\",\n  \"algo\": \"" << trace::json_escape(opt.algo)
              << "\",\n  \"packet\": {\"sip\":" << h.sip << ",\"dip\":" << h.dip
              << ",\"sport\":" << h.sport << ",\"dport\":" << h.dport
              << ",\"proto\":" << static_cast<u32>(h.proto) << ",\"text\":\""
              << trace::json_escape(h.str()) << "\"},\n  \"steps\": [";
    for (std::size_t i = 0; i < path.size(); ++i) {
      std::cout << (i ? "," : "") << "\n    {\"kind\":\""
                << trace::kind_info(path[i].kind).name << "\","
                << trace::event_args_json(path[i]) << "}";
    }
    std::cout << (path.empty() ? "" : "\n  ") << "]";
    return report_verdict(rules, h, verdict, opt, /*json_needs_comma=*/true);
  }
  std::cout << "ruleset: " << ruleset << " (" << rules.size()
            << " rules)\npacket:  " << h.str() << "\nalgo:    " << opt.algo
            << "\n\n";
  for (const trace::Event& e : path) {
    std::cout << trace::kind_info(e.kind).name << "  "
              << trace::event_args_text(e) << "\n";
  }
  std::cout << "\n";
  return report_verdict(rules, h, verdict, opt, false);
}

int cmd_explain(const std::string& ruleset, const PacketHeader& h,
                const ExplainOptions& opt) {
  const RuleSet rules = generate_paper_ruleset(ruleset);
  if (opt.algo == "hicuts") {
    const hicuts::HiCutsClassifier hc(rules);
    return cmd_explain_traced(ruleset, rules, hc, h, opt);
  }
  if (opt.algo == "hsm") {
    const hsm::HsmClassifier hs(rules);
    return cmd_explain_traced(ruleset, rules, hs, h, opt);
  }
  if (opt.algo != "expcuts") {
    throw ConfigError("unknown --algo: " + opt.algo);
  }
  // --direct explains the Fig. 6 unaggregated baseline: same tree, full
  // 2^w pointer arrays, no HABS rank step.
  const expcuts::BuiltTree tree =
      expcuts::build_tree_parallel(rules, expcuts::Config{});
  const expcuts::FlatImage img(tree.nodes, tree.root, tree.cfg,
                               opt.aggregated);
  const expcuts::Schedule sched =
      expcuts::Schedule::make(tree.cfg.stride_w, tree.cfg.order);

  const bool capture = !opt.chrome_trace.empty();
  if (capture) {
    trace::Registry::global().reset();
    trace::Registry::global().set_enabled(true);
  }
  std::vector<expcuts::ExplainStep> steps;
  const RuleId verdict = img.lookup_explained(h, sched, steps);
  if (capture) {
    trace::Registry::global().set_enabled(false);
    const trace::TraceSnapshot snap = trace::Registry::global().snapshot();
    trace::write_chrome_trace_file(opt.chrome_trace, snap,
                                   ruleset + " " + h.str());
    if (snap.total_events() == 0) {
      std::cerr << "pclass_explain: warning: trace is empty (built with "
                   "PCLASS_TRACE=OFF?)\n";
    }
  }
  if (opt.hw) {
    print_hw_for_path(
        [&] { (void)img.lookup(h, sched, /*trace=*/nullptr); });
  }

  if (opt.json) {
    std::ostream& os = std::cout;
    os << "{\n  \"schema\": \"pclass-explain-v1\",\n"
       << "  \"ruleset\": \"" << trace::json_escape(ruleset) << "\",\n"
       << "  \"algo\": \"expcuts\",\n"
       << "  \"packet\": {\"sip\":" << h.sip << ",\"dip\":" << h.dip
       << ",\"sport\":" << h.sport << ",\"dport\":" << h.dport
       << ",\"proto\":" << static_cast<u32>(h.proto) << ",\"text\":\""
       << trace::json_escape(h.str()) << "\"},\n"
       << "  \"image\": {\"aggregated\":"
       << (img.aggregated() ? "true" : "false")
       << ",\"stride_w\":" << img.stride() << ",\"u\":" << img.cpa_sub_log2()
       << ",\"depth\":" << sched.depth()
       << ",\"words\":" << img.word_count() << "},\n"
       << "  \"steps\": ";
    print_steps_json(os, steps, sched);
    return report_verdict(rules, h, verdict, opt, /*json_needs_comma=*/true);
  }
  std::cout << "ruleset: " << ruleset << " (" << rules.size()
            << " rules)\npacket:  " << h.str() << "\nimage:   "
            << (img.aggregated() ? "aggregated" : "unaggregated")
            << " w=" << img.stride() << " u=" << img.cpa_sub_log2()
            << " depth=" << sched.depth()
            << " words=" << img.word_count() << "\n\n";
  print_steps(std::cout, steps, sched, img.aggregated());
  std::cout << "\n";
  return report_verdict(rules, h, verdict, opt, false);
}

/// Differential + depth-bound proof over every seed rule set: explained
/// walks must agree with the linear-search reference on 10k generated
/// packets (rule-directed plus uniform-random headers) and never exceed
/// the W/w = 13 level bound. Run by ctest.
int cmd_selftest() {
  bool all_ok = true;
  for (const PaperRuleSetSpec& spec : paper_rulesets()) {
    const RuleSet rules = generate_paper_ruleset(spec.name);
    const expcuts::ExpCutsClassifier cls(rules);
    const LinearSearchClassifier lin(rules);
    const u32 depth_bound = cls.schedule().depth();

    TraceGenConfig tg;
    tg.count = 10000;
    tg.rule_directed_fraction = 0.7;  // the rest is uniform random
    tg.seed = 0x9e37 + rules.size();
    const Trace trace = generate_trace(rules, tg);

    std::size_t mismatches = 0;
    std::size_t depth_violations = 0;
    std::size_t max_depth = 0;
    std::vector<expcuts::ExplainStep> steps;
    for (const PacketHeader& h : trace.packets()) {
      const RuleId got = cls.flat().lookup_explained(h, cls.schedule(), steps);
      if (got != lin.classify(h)) ++mismatches;
      if (steps.size() > depth_bound) ++depth_violations;
      max_depth = std::max(max_depth, steps.size());
    }
    const bool ok = mismatches == 0 && depth_violations == 0;
    all_ok &= ok;
    std::cerr << (ok ? "PASS " : "FAIL ") << spec.name << " ("
              << trace.size() << " packets, max depth " << max_depth << "/"
              << depth_bound << ", " << mismatches << " mismatches)\n";
  }
  std::cerr << (all_ok ? "selftest: every explained path agrees with linear "
                         "search within the depth bound\n"
                       : "selftest: violations found\n");
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "selftest" && argc == 2) return cmd_selftest();
    if (cmd == "explain" && argc >= 8) {
      PacketHeader h;
      h.sip = parse_ip(argv[3]);
      h.dip = parse_ip(argv[4]);
      h.sport = static_cast<u16>(parse_uint(argv[5], 0xffff, "sport"));
      h.dport = static_cast<u16>(parse_uint(argv[6], 0xffff, "dport"));
      h.proto = static_cast<u8>(parse_uint(argv[7], 0xff, "proto"));
      ExplainOptions opt;
      for (int i = 8; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
          opt.json = true;
        } else if (arg == "--verify") {
          opt.verify = true;
        } else if (arg == "--direct") {
          opt.aggregated = false;
        } else if (arg == "--hw") {
          opt.hw = true;
        } else if (arg.rfind("--algo=", 0) == 0) {
          opt.algo = arg.substr(std::string("--algo=").size());
        } else if (arg.rfind("--chrome-trace=", 0) == 0) {
          opt.chrome_trace = arg.substr(std::string("--chrome-trace=").size());
          if (opt.chrome_trace.empty()) return usage();
        } else {
          return usage();
        }
      }
      return cmd_explain(argv[2], h, opt);
    }
    return usage();
  } catch (const Error& e) {
    std::cerr << "pclass_explain: " << e.what() << "\n";
    return 2;
  }
}

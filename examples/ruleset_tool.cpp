// ruleset_tool — generate, inspect and convert classification rule sets.
//
//   $ ruleset_tool generate <fw|cr> <count> <seed> [out.rules]
//   $ ruleset_tool paper <FW01..CR04> [out.rules]
//   $ ruleset_tool inspect <file.rules>
//
// Files use the ClassBench filter format, so real ClassBench output can be
// inspected and fed to every benchmark in this repository.
#include <fstream>
#include <iostream>
#include <string>

#include "common/texttable.hpp"
#include "expcuts/expcuts.hpp"
#include "expcuts/report.hpp"
#include "hicuts/hicuts.hpp"
#include "hsm/hsm.hpp"
#include "rules/analysis.hpp"
#include "rules/generator.hpp"
#include "rules/parser.hpp"

namespace {

using namespace pclass;

int usage() {
  std::cerr << "usage:\n"
            << "  ruleset_tool generate <fw|cr> <count> <seed> [out.rules]\n"
            << "  ruleset_tool paper <FW01..CR04> [out.rules]\n"
            << "  ruleset_tool inspect <file.rules>\n";
  return 2;
}

void inspect(const RuleSet& rules) {
  const RuleSetProfile profile = profile_ruleset(rules);
  std::cout << profile.str(rules.name().empty() ? "ruleset" : rules.name())
            << "\n";

  // Data-structure footprints each algorithm would need for this set.
  TextTable t({"algorithm", "memory", "detail"});
  const expcuts::BuiltTree tree =
      expcuts::build_tree_parallel(rules, expcuts::Config{});
  const expcuts::ExpCutsClassifier ec(tree);
  t.add("ExpCuts", format_bytes(static_cast<double>(ec.footprint().bytes)),
        ec.footprint().detail);
  const hicuts::HiCutsClassifier hc(rules);
  t.add("HiCuts", format_bytes(static_cast<double>(hc.footprint().bytes)),
        hc.footprint().detail);
  const hsm::HsmClassifier hs(rules);
  t.add("HSM", format_bytes(static_cast<double>(hs.footprint().bytes)),
        hs.footprint().detail);
  t.print(std::cout);
  std::cout << "\nExpCuts level profile:\n" << expcuts::level_report(tree);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "generate" && argc >= 5) {
      GeneratorConfig cfg;
      cfg.profile = std::string(argv[2]) == "fw" ? RuleProfile::kFirewall
                                                 : RuleProfile::kCoreRouter;
      cfg.rule_count = std::strtoull(argv[3], nullptr, 10);
      cfg.seed = std::strtoull(argv[4], nullptr, 10);
      const RuleSet rules = generate_ruleset(cfg);
      if (argc >= 6) {
        save_ruleset_file(argv[5], rules);
        std::cout << "wrote " << rules.size() << " rules to " << argv[5]
                  << "\n";
      } else {
        write_classbench(std::cout, rules);
      }
      return 0;
    }
    if (cmd == "paper" && argc >= 3) {
      const RuleSet rules = generate_paper_ruleset(argv[2]);
      if (argc >= 4) {
        save_ruleset_file(argv[3], rules);
        std::cout << "wrote " << rules.size() << " rules to " << argv[3]
                  << "\n";
      } else {
        inspect(rules);
      }
      return 0;
    }
    if (cmd == "inspect" && argc >= 3) {
      inspect(load_ruleset_file(argv[2]));
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}

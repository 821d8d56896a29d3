#include "expcuts/report.hpp"

#include <algorithm>
#include <map>

#include "common/texttable.hpp"

namespace pclass {
namespace expcuts {

std::vector<LevelProfile> level_profiles(const BuiltTree& tree) {
  struct Acc {
    u64 nodes = 0;
    u64 distinct = 0;
    u64 set_bits = 0;
    u64 cpa_words = 0;
  };
  std::map<u32, Acc> acc;
  const Config& cfg = tree.cfg;
  for (const Node& n : tree.nodes) {
    Acc& a = acc[n.level];
    ++a.nodes;
    std::vector<Ptr> uniq(n.ptrs);
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    a.distinct += uniq.size();
    const HabsEncoding enc = habs_encode(n.ptrs, cfg.stride_w, cfg.habs_v);
    a.set_bits += enc.set_bits();
    a.cpa_words += enc.cpa_words();
  }
  std::vector<LevelProfile> out;
  out.reserve(acc.size());
  for (const auto& [level, a] : acc) {
    LevelProfile p;
    p.level = level;
    p.nodes = a.nodes;
    p.mean_distinct_children =
        static_cast<double>(a.distinct) / static_cast<double>(a.nodes);
    p.mean_habs_set_bits =
        static_cast<double>(a.set_bits) / static_cast<double>(a.nodes);
    p.cpa_words = a.cpa_words;
    p.bytes_aggregated = (a.nodes + a.cpa_words) * 4;
    out.push_back(p);
  }
  return out;
}

std::string level_report(const BuiltTree& tree) {
  TextTable t({"level", "chunk", "nodes", "distinct_children", "habs_bits",
               "cpa_words", "bytes"});
  const Schedule sched = Schedule::make(tree.cfg.stride_w, tree.cfg.order);
  for (const LevelProfile& p : level_profiles(tree)) {
    const Chunk& c = sched.level(p.level);
    t.add(p.level,
          std::string(dim_name(c.dim)) + "[" +
              std::to_string(c.shift + sched.stride() - 1) + ":" +
              std::to_string(c.shift) + "]",
          p.nodes, format_fixed(p.mean_distinct_children, 2),
          format_fixed(p.mean_habs_set_bits, 2), p.cpa_words,
          format_bytes(static_cast<double>(p.bytes_aggregated)));
  }
  return t.str();
}

}  // namespace expcuts
}  // namespace pclass

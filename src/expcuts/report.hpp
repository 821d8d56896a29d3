// Per-level structural report of an ExpCuts tree.
//
// The level profile drives the paper's memory-allocation decision
// (Table 4 places level ranges on SRAM channels) and explains where the
// HABS earns its compression, so the tooling exposes it directly. It
// reads the BuiltTree (build_tree_parallel): a classifier keeps only its
// image.
#pragma once

#include <string>
#include <vector>

#include "expcuts/build_parallel.hpp"

namespace pclass {
namespace expcuts {

struct LevelProfile {
  u32 level = 0;
  u64 nodes = 0;
  double mean_distinct_children = 0.0;
  double mean_habs_set_bits = 0.0;
  u64 cpa_words = 0;
  u64 bytes_aggregated = 0;
};

/// One entry per level that has nodes (levels skipped by early leaves are
/// omitted).
std::vector<LevelProfile> level_profiles(const BuiltTree& tree);

/// Aligned-table rendering of the profile.
std::string level_report(const BuiltTree& tree);

}  // namespace expcuts
}  // namespace pclass

// ExpCuts tree construction: the one builder, serial or parallel.
//
// Builds the tree in three deterministic phases:
//
//   1. spine expansion (serial) — expand nodes from the root, always the
//      largest remaining sub-problem first, until a fixed-size frontier
//      of independent sub-problems exists. The policy depends only on
//      the rule set, never on the thread count.
//   2. subtree construction — each frontier sub-problem is built by an
//      isolated SubtreeBuilder (own node block, own memo), on the
//      ThreadPool when there is more than one worker, inline otherwise.
//   3. stitch + dedup (serial) — blocks are concatenated in frontier
//      order, pointers rebased, the spine appended children-first, and a
//      structural hash-consing pass re-merges identical subtrees that
//      the per-task memos could not share.
//
// Because every phase is a deterministic function of (rules, config),
// the emitted node array — and therefore the serialized image and its
// checksum — is bit-identical for any thread count, including 1.
// tests/build_parallel_test.cpp holds the builder to exactly that.
//
// Config::share_subtrees = false turns off both the per-task memo and
// the dedup pass, leaving the fully unshared tree the layout ablation
// measures.
//
// Memory budget: Config::memory_budget_bytes bounds the builder's
// transient burst — the full 2^w pointer arrays every node carries
// before HABS aggregation (the aggregated image is ~10-25x smaller;
// Fig. 6). When the running total crosses the budget the attempt aborts
// and restarts at the next coarser stride (8 -> 4 -> 2 -> 1): a deeper
// tree with geometrically smaller per-node arrays. At stride 1 the build
// always completes, so a tiny budget degrades the image instead of
// failing the build.
#pragma once

#include <vector>

#include "expcuts/expcuts.hpp"

namespace pclass {
namespace expcuts {

struct ParallelBuildStats {
  u32 stride_w = 8;         ///< Stride actually used (after degradation).
  u32 degrade_steps = 0;    ///< Budget-forced stride reductions.
  u64 node_count = 0;       ///< After the cross-subtree dedup pass.
  u64 node_count_raw = 0;   ///< Before dedup (duplication the memos missed).
  u32 tasks = 0;            ///< Frontier subtrees (0 = root is a leaf).
  unsigned threads = 1;     ///< Workers the build ran on.
};

/// A built (but not yet serialized) ExpCuts tree.
struct BuiltTree {
  std::vector<Node> nodes;
  Ptr root = kEmptyLeaf;
  Config cfg;  ///< Input config with stride_w/habs_v possibly degraded.
  ParallelBuildStats stats;
  std::size_t rule_count = 0;  ///< Rules the tree was built over.
};

/// Resolves Config::build_threads (0 = one worker per hardware thread).
unsigned effective_build_threads(u32 build_threads);

/// Builds the tree, honouring `cfg.memory_budget_bytes` (see file
/// comment). Subtrees run on `pool` when given, else on a pool of
/// `cfg.build_threads` workers created for this call (none for one
/// worker). Deterministic: the result is identical for every thread
/// count.
BuiltTree build_tree_parallel(const RuleSet& rules, const Config& cfg,
                              ThreadPool* pool = nullptr);

}  // namespace expcuts
}  // namespace pclass

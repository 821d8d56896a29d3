// ExpCuts: Explicit Cuttings (the paper's contribution, Sec. 4.2).
//
// A decision tree with:
//  * a fixed stride: every internal node cuts exactly 2^w sub-spaces,
//    consuming the next w header bits of one field per the Schedule, giving
//    an explicit worst-case depth of exactly W/w levels;
//  * no leaf linear search: cutting continues until each sub-space is fully
//    covered by its highest-priority intersecting rule (binth = 1), so a
//    child pointer resolves directly to the final rule id;
//  * HABS/CPA hierarchical aggregation of the per-node pointer arrays
//    (habs.hpp) to avoid the memory burst the fixed stride would otherwise
//    cause (Fig. 6 measures the effect).
//
// Aggregation-correctness note (implementation clarification of Sec. 4.2.2):
// child pointers are indexed by absolute header chunk bits, so a run of
// consecutive sub-spaces may share one child *node* only when every rule
// intersecting the run covers the run's full span including all
// lower-order bits; the builder enforces this "safe merge" condition. Runs
// that resolve to leaf pointers (rule ids) aggregate unconditionally —
// equal pointers compress through the HABS regardless. Under the safe-merge
// invariant, every path is guaranteed to reach a decided leaf within W/w
// levels (see tests/expcuts_test for the property checks).
#pragma once

#include <memory>
#include <vector>

#include "classify/classifier.hpp"
#include "expcuts/habs.hpp"
#include "expcuts/schedule.hpp"

namespace pclass {

class ThreadPool;  // engine/thread_pool.hpp

namespace expcuts {

struct Config {
  /// Bits consumed per level; tree depth is 104/stride. The paper fixes 8.
  u32 stride_w = 8;
  /// HABS holds 2^habs_v bits; sub-arrays have 2^(stride_w - habs_v)
  /// pointers. The paper uses habs_v = 4 (16-bit HABS in one long-word).
  /// Clamped to stride_w.
  u32 habs_v = 4;
  ChunkOrder order = ChunkOrder::kInterleaved;
  /// Share sub-trees across equivalent sub-problems: a per-subtree memo
  /// over (pruned rule list, level, geometry up to saturated dimensions —
  /// an exact equivalence) plus a structural dedup of the finished node
  /// array (build_parallel.hpp). This is what makes "multiple pointers ...
  /// point to a single child node" (Sec. 4.1) effective across the whole
  /// structure; without it the fixed stride duplicates identical subtrees
  /// and the memory burst returns. Off turns both off; the layout
  /// ablation measures that unshared tree.
  bool share_subtrees = true;
  /// Flat-image packing (flat.hpp): 2 = kLayoutAligned (64-byte-aligned
  /// nodes, level clustering — the default), 1 = kLayoutLinear (the
  /// historical back-to-back packing; the layout ablation measures it).
  u32 layout = 2;
  /// Build workers: 0 = one per hardware thread, otherwise the exact
  /// count (1 = serial). The tree, and so the image, is the same for
  /// every value; only build time changes.
  u32 build_threads = 1;
  /// Upper bound on the build's transient pointer-array burst, in bytes
  /// (0 = unlimited). When exceeded, the build restarts at the next
  /// coarser stride (8 -> 4 -> 2 -> 1) instead of OOMing; the image
  /// degrades, the build never fails.
  u64 memory_budget_bytes = 0;
  /// Run the symbolic semantic verifier (analysis/verify_image.hpp) over
  /// every image the DynamicExpCutsClassifier rebuild path produces,
  /// proving image ≡ rule list before lookups can touch it; a violation
  /// throws AuditError with a region witness. Costs roughly one
  /// structural-audit pass extra (see BENCH_scale.json,
  /// semantic_audit_seconds); off by default.
  bool verify_semantics = false;
};

/// Tagged child pointer: bit 31 set = leaf (bits 0..30 = rule id, all-ones
/// = no match); bit 31 clear = index of an internal node.
using Ptr = u32;
inline constexpr Ptr kLeafBit = 0x80000000u;
inline constexpr Ptr kEmptyLeaf = 0xffffffffu;

constexpr bool ptr_is_leaf(Ptr p) { return (p & kLeafBit) != 0; }
constexpr Ptr make_leaf(RuleId id) { return kLeafBit | id; }
constexpr RuleId leaf_rule(Ptr p) {
  return (p == kEmptyLeaf) ? kNoMatch : (p & ~kLeafBit);
}

struct Node {
  u16 level = 0;
  std::vector<Ptr> ptrs;  ///< 2^w entries indexed by the header chunk.
};

struct TreeStats {
  u64 node_count = 0;
  u32 depth = 0;                 ///< Exactly 104/w (explicit bound).
  u32 build_degrade_steps = 0;   ///< Budget-forced stride reductions.
  u32 build_tasks = 0;           ///< Frontier subtrees (0 = root is a leaf).
  unsigned build_threads = 1;    ///< Workers the build actually used.
  double mean_distinct_children = 0.0;  ///< Paper: "less than 10" at w=8.
  u32 max_distinct_children = 0;
  double mean_habs_set_bits = 0.0;
  u64 cpa_words = 0;             ///< Total CPA words across nodes.
  u64 bytes_aggregated = 0;      ///< HABS+CPA image size (Fig. 6 "with").
  u64 bytes_unaggregated = 0;    ///< Full pointer arrays (Fig. 6 "without").
  u64 leaf_ptrs = 0;
};

class FlatImage;       // flat.hpp — the serialized SRAM image.
struct BuiltTree;      // build_parallel.hpp — the tree before emission.

/// The runtime classifier: the emitted HABS/CPA image plus what a lookup
/// needs to walk it. The tree it was built from is dropped after
/// emission; callers that need the nodes themselves (ablations, relayout)
/// call build_tree_parallel and construct from the BuiltTree.
class ExpCutsClassifier final : public Classifier {
 public:
  /// Builds the tree (build_tree_parallel), computes its stats, emits the
  /// image and frees the tree. One thread pool serves all three passes
  /// when `cfg.build_threads` asks for more than one worker.
  ExpCutsClassifier(const RuleSet& rules, const Config& cfg = {});
  /// Emits the image of an already built tree (which stays the caller's).
  explicit ExpCutsClassifier(const BuiltTree& tree);
  ~ExpCutsClassifier() override;

  std::string name() const override { return "ExpCuts"; }
  /// Walks the flat image, the same structure every other path reads.
  RuleId classify(const PacketHeader& h) const override;
  RuleId classify_traced(const PacketHeader& h,
                         LookupTrace& trace) const override;
  /// G-way interleaved walk of the serialized word image (flat.hpp), the
  /// same structure traced lookups execute against.
  void classify_batch(const PacketHeader* h, RuleId* out, std::size_t n,
                      BatchLookupStats* stats = nullptr) const override;
  MemoryFootprint footprint() const override;

  const Config& config() const { return cfg_; }
  const Schedule& schedule() const { return sched_; }
  const TreeStats& stats() const { return stats_; }
  /// Size of the rule list the image was built over (leaf ids index it).
  std::size_t rule_count() const { return rule_count_; }
  /// The serialized word image every lookup executes against.
  const FlatImage& flat() const { return *flat_; }

 private:
  void emit(const BuiltTree& tree, ThreadPool* pool);

  Config cfg_;
  Schedule sched_;
  TreeStats stats_;
  std::unique_ptr<FlatImage> flat_;
  std::size_t rule_count_ = 0;
};

}  // namespace expcuts
}  // namespace pclass

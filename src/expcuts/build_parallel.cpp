#include "expcuts/build_parallel.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <queue>
#include <thread>
#include <unordered_map>

#include "common/error.hpp"
#include "engine/thread_pool.hpp"
#include "geom/box.hpp"

namespace pclass {
namespace expcuts {
namespace {

/// Sub-problems with at least this many rules are worth splitting further
/// during spine expansion; smaller ones go to the frontier as-is.
constexpr std::size_t kExpandMinIds = 512;
/// Spine expansion stops once the frontier reaches this many independent
/// sub-problems (a constant, NOT a function of the thread count — the
/// decomposition must be identical for every thread count).
constexpr std::size_t kFrontierTarget = 64;
/// Sub-problems with more rules than this are not memoized: their keys
/// copy the whole id list, and at 100k+ rules the memo itself would
/// dominate the build's memory. Huge lists essentially never recur
/// anyway; the post-stitch dedup pass still catches structural repeats.
constexpr std::size_t kMemoMaxIds = 4096;

/// Thrown (internally) when the running pointer-array estimate crosses
/// Config::memory_budget_bytes; the driver retries at a coarser stride.
struct BudgetExceeded {};

/// Shared budget accounting across all subtree tasks of one attempt.
struct BudgetState {
  u64 budget_words = 0;  ///< 0 = unlimited.
  std::atomic<u64> words{0};
  std::atomic<bool> exceeded{false};

  void charge(u64 node_words) {
    if (budget_words == 0) return;
    if (words.fetch_add(node_words, std::memory_order_relaxed) + node_words >
        budget_words) {
      exceeded.store(true, std::memory_order_relaxed);
    }
  }
  bool hit() const { return exceeded.load(std::memory_order_relaxed); }
};

/// One undecided sub-problem: build the subtree for `ids` inside `box`
/// starting at `level`. Lists arriving here are already priority-pruned.
struct SubProblem {
  Box box;
  std::vector<RuleId> ids;
  u32 level = 0;
};

/// Priority pruning (rules after the first one that covers the box can
/// never win inside it) + the decided test (binth = 1: the first
/// remaining rule covers the box). Returns true and sets `leaf` when the
/// sub-problem is already a leaf.
bool normalize(const RuleSet& rules, const Box& box, std::vector<RuleId>& ids,
               Ptr& leaf) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (rules[ids[i]].covers(box)) {
      ids.resize(i + 1);
      break;
    }
  }
  if (ids.empty()) {
    leaf = kEmptyLeaf;
    return true;
  }
  if (rules[ids[0]].covers(box)) {
    leaf = make_leaf(ids[0]);
    return true;
  }
  return false;
}

/// Partitions one node: clip each rule into the 2^w slots of the level's
/// chunk, then merge maximal safe runs (identical lists whose every rule
/// covers the run's full span). Calls
/// `child(box, ids, slot_lo, slot_hi)` once per merged run, and
/// `passthrough(ids)` instead when the extent is unaligned (a saturated
/// dimension from an earlier safe merge: all slots share one child).
template <typename ChildFn, typename PassFn>
void partition_node(const RuleSet& rules, const Schedule& sched,
                    const Config& cfg, const Box& box,
                    std::vector<RuleId>&& ids, u32 level, ChildFn&& child,
                    PassFn&& passthrough) {
  const Chunk& ch = sched.level(level);
  const Dim d = ch.dim;
  const Interval extent = box[d];
  const u32 fanout = 1u << cfg.stride_w;
  const u64 slot_width = u64{1} << ch.shift;
  const u64 chunk_block = slot_width << cfg.stride_w;

  const bool aligned =
      extent.width() == chunk_block && (extent.lo % chunk_block) == 0;
  if (!aligned) {
    for (RuleId id : ids) {
      check(rules[id].field(d).contains(extent),
            "ExpCuts: merge invariant violated (unsaturated extent)");
    }
    passthrough(std::move(ids));
    return;
  }

  std::vector<std::vector<RuleId>> slot_ids(fanout);
  for (RuleId id : ids) {
    const Interval clipped = rules[id].field(d).intersect(extent);
    const u32 c_lo = static_cast<u32>((clipped.lo - extent.lo) >> ch.shift);
    const u32 c_hi = static_cast<u32>((clipped.hi - extent.lo) >> ch.shift);
    for (u32 c = c_lo; c <= c_hi; ++c) slot_ids[c].push_back(id);
  }

  u32 a = 0;
  while (a < fanout) {
    u32 b = a;
    auto run_safe = [&](u32 hi_slot) {
      const Interval span{
          extent.lo + u64{a} * slot_width,
          extent.lo + u64{hi_slot} * slot_width + slot_width - 1};
      for (RuleId id : slot_ids[a]) {
        if (!rules[id].field(d).contains(span)) return false;
      }
      return true;
    };
    while (b + 1 < fanout && slot_ids[b + 1] == slot_ids[a] &&
           run_safe(b + 1)) {
      ++b;
    }
    Box child_box = box;
    child_box[d] = Interval{extent.lo + u64{a} * slot_width,
                            extent.lo + u64{b} * slot_width + slot_width - 1};
    child(std::move(child_box), std::move(slot_ids[a]), a, b);
    a = b + 1;
  }
}

/// Recursive builder for one frontier subtree: local node block, local
/// memo (capped at kMemoMaxIds), shared budget. Memo keys are exact: two
/// sub-problems with the same pruned rule list, level and geometry up to
/// saturated dimensions build identical subtrees.
class SubtreeBuilder {
 public:
  SubtreeBuilder(const RuleSet& rules, const Config& cfg,
                 const Schedule& sched, BudgetState& budget)
      : rules_(rules), cfg_(cfg), sched_(sched), budget_(budget) {}

  Ptr build(const Box& box, std::vector<RuleId> ids, u32 level) {
    Ptr leaf = kEmptyLeaf;
    if (normalize(rules_, box, ids, leaf)) return leaf;
    check(level < sched_.depth(), "ExpCuts: undecided sub-space at full depth");

    const bool memoize = cfg_.share_subtrees && ids.size() <= kMemoMaxIds;
    MemoKey key;
    if (memoize) {
      key = make_key(box, ids, level);
      const auto it = memo_.find(key);
      if (it != memo_.end()) return it->second;
    }

    const u32 fanout = 1u << cfg_.stride_w;
    Node node;
    node.level = static_cast<u16>(level);
    node.ptrs.assign(fanout, kEmptyLeaf);
    partition_node(
        rules_, sched_, cfg_, box, std::move(ids), level,
        [&](Box&& child_box, std::vector<RuleId>&& child_ids, u32 a, u32 b) {
          const Ptr child = build(child_box, std::move(child_ids), level + 1);
          for (u32 c = a; c <= b; ++c) node.ptrs[c] = child;
        },
        [&](std::vector<RuleId>&& pass_ids) {
          const Ptr child = build(box, std::move(pass_ids), level + 1);
          node.ptrs.assign(fanout, child);
        });
    const Ptr result = intern(std::move(node));
    if (memoize) memo_.emplace(std::move(key), result);
    return result;
  }

  std::vector<Node> take_nodes() { return std::move(nodes_); }

 private:
  struct MemoKey {
    u32 level = 0;
    std::vector<RuleId> ids;
    std::array<std::pair<u64, u64>, kNumDims> extents;
    bool operator==(const MemoKey& o) const = default;
  };
  struct MemoKeyHash {
    std::size_t operator()(const MemoKey& k) const {
      u64 h = 0x9e3779b97f4a7c15ULL ^ k.level;
      auto mix = [&h](u64 v) {
        h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      };
      for (RuleId id : k.ids) mix(id);
      for (const auto& [lo, hi] : k.extents) {
        mix(lo);
        mix(hi);
      }
      return static_cast<std::size_t>(h);
    }
  };

  MemoKey make_key(const Box& box, const std::vector<RuleId>& ids,
                   u32 level) const {
    MemoKey key;
    key.level = level;
    key.ids = ids;
    for (std::size_t d = 0; d < kNumDims; ++d) {
      const Interval& extent = box.dims[d];
      bool saturated = true;
      for (RuleId id : ids) {
        if (!rules_[id].box.dims[d].contains(extent)) {
          saturated = false;
          break;
        }
      }
      // A saturated dimension cannot influence the subtree: all its
      // further cuts are uniform pass-throughs and all cover tests along
      // it succeed for every rule in `ids`, so sub-problems differing
      // only there are equivalent; the (1, 0) sentinel stands for them.
      key.extents[d] = saturated ? std::pair<u64, u64>{1, 0}
                                 : std::pair{extent.lo, extent.hi};
    }
    return key;
  }

  Ptr intern(Node&& n) {
    budget_.charge(1 + n.ptrs.size());
    if (budget_.hit()) throw BudgetExceeded{};
    const u32 idx = static_cast<u32>(nodes_.size());
    check((idx & kLeafBit) == 0, "ExpCuts: node index overflow");
    nodes_.push_back(std::move(n));
    return idx;
  }

  const RuleSet& rules_;
  const Config& cfg_;
  const Schedule& sched_;
  BudgetState& budget_;
  std::vector<Node> nodes_;
  std::unordered_map<MemoKey, Ptr, MemoKeyHash> memo_;
};

// Spine child-slot encoding. Leaf-tagged pointers (bit 31) pass through;
// non-leaf slots refer to either a frontier task's subtree root or
// another spine node, distinguished by bit 30.
constexpr u32 kSpineRefBit = 0x40000000u;
constexpr u32 task_ref(std::size_t i) { return static_cast<u32>(i); }
constexpr u32 spine_ref(std::size_t i) {
  return kSpineRefBit | static_cast<u32>(i);
}

struct SpineNode {
  u16 level = 0;
  std::vector<u32> slots;  ///< Leaf ptrs, task_ref() or spine_ref().
};

/// Phase 1: expand the largest sub-problems first until the frontier is
/// wide enough. Returns the spine (index 0 = root) and the frontier; if
/// the whole tree is a single leaf, sets `root_leaf`.
struct Decomposition {
  std::vector<SpineNode> spine;
  std::vector<SubProblem> frontier;
  bool root_is_leaf = false;
  Ptr root_leaf = kEmptyLeaf;
  /// The root slot when the spine is empty but the tree is not a leaf:
  /// always task 0 in that case.
};

Decomposition decompose(const RuleSet& rules, const Config& cfg,
                        const Schedule& sched, BudgetState& budget) {
  Decomposition d;
  {
    std::vector<RuleId> all(rules.size());
    for (RuleId i = 0; i < rules.size(); ++i) all[i] = i;
    Ptr leaf = kEmptyLeaf;
    if (normalize(rules, Box::full(), all, leaf)) {
      d.root_is_leaf = true;
      d.root_leaf = leaf;
      return d;
    }
    d.frontier.push_back(SubProblem{Box::full(), std::move(all), 0});
  }

  // Max-heap over frontier indices by (ids.size(), earliest-created
  // first). Entries expanded out of the frontier leave a tombstone
  // (moved-from ids) — slots referencing them are rewritten immediately.
  struct HeapEntry {
    std::size_t size;
    std::size_t idx;
    bool operator<(const HeapEntry& o) const {
      if (size != o.size) return size < o.size;
      return idx > o.idx;  // older entries first on ties
    }
  };
  std::priority_queue<HeapEntry> heap;
  heap.push({d.frontier[0].ids.size(), 0});
  // Slots across the spine that name a frontier entry; when entry `idx`
  // is expanded into a spine node, every slot holding task_ref(idx) is
  // patched to the new spine_ref. Tracked per entry to avoid rescans.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> backrefs(1);

  while (d.frontier.size() - d.spine.size() < kFrontierTarget &&
         !heap.empty()) {
    const HeapEntry top = heap.top();
    if (top.size < kExpandMinIds) break;
    heap.pop();
    const std::size_t idx = top.idx;
    SubProblem prob = std::move(d.frontier[idx]);
    d.frontier[idx].ids.clear();  // tombstone the expanded entry

    SpineNode node;
    node.level = static_cast<u16>(prob.level);
    node.slots.assign(std::size_t{1} << cfg.stride_w, kEmptyLeaf);
    const std::size_t spine_idx = d.spine.size();
    partition_node(
        rules, sched, cfg, prob.box, std::move(prob.ids), prob.level,
        [&](Box&& child_box, std::vector<RuleId>&& child_ids, u32 a, u32 b) {
          Ptr leaf = kEmptyLeaf;
          u32 slot_val;
          if (normalize(rules, child_box, child_ids, leaf)) {
            slot_val = leaf;
          } else {
            const std::size_t child_idx = d.frontier.size();
            d.frontier.push_back(SubProblem{std::move(child_box),
                                            std::move(child_ids),
                                            prob.level + 1});
            backrefs.emplace_back();
            heap.push({d.frontier[child_idx].ids.size(), child_idx});
            slot_val = task_ref(child_idx);
            for (u32 c = a; c <= b; ++c) {
              backrefs[child_idx].emplace_back(spine_idx, c);
            }
          }
          for (u32 c = a; c <= b; ++c) node.slots[c] = slot_val;
        },
        [&](std::vector<RuleId>&& pass_ids) {
          const std::size_t child_idx = d.frontier.size();
          d.frontier.push_back(
              SubProblem{prob.box, std::move(pass_ids), prob.level + 1});
          backrefs.emplace_back();
          heap.push({d.frontier[child_idx].ids.size(), child_idx});
          for (std::size_t c = 0; c < node.slots.size(); ++c) {
            node.slots[c] = task_ref(child_idx);
            backrefs[child_idx].emplace_back(spine_idx, c);
          }
        });
    budget.charge(1 + node.slots.size());
    if (budget.hit()) throw BudgetExceeded{};
    d.spine.push_back(std::move(node));
    // Re-point every slot that named the expanded entry at the new spine
    // node (for the root entry there are none — the root slot is implied).
    for (const auto& [s, c] : backrefs[idx]) {
      d.spine[s].slots[c] = spine_ref(spine_idx);
    }
    backrefs[idx].clear();
  }

  // Compact the frontier: drop tombstones (expanded entries), remapping
  // task refs. Expanded entries have empty id lists and at least one
  // spine node; live entries are never empty (normalize() filtered those).
  std::vector<u32> remap(d.frontier.size(), 0);
  std::vector<SubProblem> live;
  live.reserve(d.frontier.size());
  std::vector<bool> expanded(d.frontier.size(), false);
  {
    // An entry was expanded iff it was popped and turned into a spine
    // node; those entries were tombstoned by the std::move above.
    for (std::size_t i = 0; i < d.frontier.size(); ++i) {
      expanded[i] = d.frontier[i].ids.empty();
    }
  }
  for (std::size_t i = 0; i < d.frontier.size(); ++i) {
    if (expanded[i]) continue;
    remap[i] = static_cast<u32>(live.size());
    live.push_back(std::move(d.frontier[i]));
  }
  for (SpineNode& sn : d.spine) {
    for (u32& slot : sn.slots) {
      if (!ptr_is_leaf(slot) && (slot & kSpineRefBit) == 0) {
        slot = task_ref(remap[slot]);
      }
    }
  }
  d.frontier = std::move(live);
  return d;
}

/// Phase 3b: structural hash-consing over the stitched node array (which
/// is ordered children-before-parents), re-merging identical subtrees
/// across task blocks. Deterministic compaction.
std::vector<Node> dedup_nodes(std::vector<Node> nodes, Ptr& root,
                              u64* raw_count) {
  *raw_count = nodes.size();
  std::vector<u32> canon(nodes.size());
  std::vector<Node> out;
  out.reserve(nodes.size());
  std::unordered_multimap<u64, u32> by_digest;
  by_digest.reserve(nodes.size());
  auto digest = [](const Node& n) {
    u64 h = 0x9e3779b97f4a7c15ULL ^ n.level;
    for (Ptr p : n.ptrs) {
      h ^= p + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h *= 0xff51afd7ed558ccdULL;
    }
    return h;
  };
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    Node& nd = nodes[i];
    for (Ptr& p : nd.ptrs) {
      if (!ptr_is_leaf(p)) p = canon[p];
    }
    const u64 h = digest(nd);
    u32 found = kEmptyLeaf;
    auto [lo, hi] = by_digest.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      const Node& cand = out[it->second];
      if (cand.level == nd.level && cand.ptrs == nd.ptrs) {
        found = it->second;
        break;
      }
    }
    if (found != kEmptyLeaf) {
      canon[i] = found;
    } else {
      canon[i] = static_cast<u32>(out.size());
      by_digest.emplace(h, canon[i]);
      out.push_back(std::move(nd));
    }
  }
  if (!ptr_is_leaf(root)) root = canon[root];
  return out;
}

BuiltTree attempt(const RuleSet& rules, const Config& cfg, ThreadPool* pool) {
  const Schedule sched = Schedule::make(cfg.stride_w, cfg.order);
  BudgetState budget;
  budget.budget_words = cfg.memory_budget_bytes / sizeof(u32);

  Decomposition d = decompose(rules, cfg, sched, budget);
  BuiltTree t;
  t.cfg = cfg;
  t.rule_count = rules.size();
  t.stats.stride_w = cfg.stride_w;
  t.stats.threads = pool != nullptr ? pool->thread_count() : 1;
  if (d.root_is_leaf) {
    t.root = d.root_leaf;
    return t;
  }
  t.stats.tasks = static_cast<u32>(d.frontier.size());

  // Phase 2: build every frontier subtree. Tasks must not throw across
  // the pool boundary; a budget hit is recorded and re-thrown serially.
  struct TaskResult {
    std::vector<Node> nodes;
    Ptr root = kEmptyLeaf;
  };
  std::vector<TaskResult> results(d.frontier.size());
  std::atomic<bool> budget_hit{false};
  auto run_task = [&](std::size_t i) {
    try {
      SubtreeBuilder builder(rules, cfg, sched, budget);
      results[i].root = builder.build(d.frontier[i].box,
                                      std::move(d.frontier[i].ids),
                                      d.frontier[i].level);
      results[i].nodes = builder.take_nodes();
    } catch (const BudgetExceeded&) {
      budget_hit.store(true, std::memory_order_relaxed);
    }
  };
  if (pool != nullptr && d.frontier.size() > 1) {
    for (std::size_t i = 0; i < d.frontier.size(); ++i) {
      pool->submit([&run_task, i] { run_task(i); });
    }
    pool->wait_idle();
  } else {
    for (std::size_t i = 0; i < d.frontier.size(); ++i) run_task(i);
  }
  if (budget_hit.load()) throw BudgetExceeded{};

  // Phase 3a: stitch. Blocks first (frontier order, pointers rebased),
  // then the spine in reverse creation order so children precede parents.
  u64 total = 0;
  std::vector<u64> base(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    base[i] = total;
    total += results[i].nodes.size();
  }
  const u64 spine_base = total;
  total += d.spine.size();
  check(total < kLeafBit, "ExpCuts: node index overflow");
  std::vector<Node> nodes;
  nodes.reserve(static_cast<std::size_t>(total));
  for (std::size_t i = 0; i < results.size(); ++i) {
    for (Node& nd : results[i].nodes) {
      for (Ptr& p : nd.ptrs) {
        if (!ptr_is_leaf(p)) p += static_cast<u32>(base[i]);
      }
      nodes.push_back(std::move(nd));
    }
  }
  // Spine node k lands at index spine_base + (spine_count - 1 - k).
  auto spine_pos = [&](std::size_t k) {
    return static_cast<u32>(spine_base + (d.spine.size() - 1 - k));
  };
  auto resolve_slot = [&](u32 slot) -> Ptr {
    if (ptr_is_leaf(slot)) return slot;
    if ((slot & kSpineRefBit) != 0) return spine_pos(slot & ~kSpineRefBit);
    const std::size_t task = slot;
    const Ptr r = results[task].root;
    return ptr_is_leaf(r) ? r : r + static_cast<u32>(base[task]);
  };
  for (std::size_t k = d.spine.size(); k-- > 0;) {
    Node nd;
    nd.level = d.spine[k].level;
    nd.ptrs.reserve(d.spine[k].slots.size());
    for (u32 slot : d.spine[k].slots) nd.ptrs.push_back(resolve_slot(slot));
    nodes.push_back(std::move(nd));
  }
  t.root = d.spine.empty() ? resolve_slot(task_ref(0)) : spine_pos(0);

  // Phase 3b: cross-subtree dedup (part of subtree sharing).
  if (cfg.share_subtrees) {
    nodes = dedup_nodes(std::move(nodes), t.root, &t.stats.node_count_raw);
  } else {
    t.stats.node_count_raw = nodes.size();
  }
  t.stats.node_count = nodes.size();
  t.nodes = std::move(nodes);
  return t;
}

u32 next_coarser_stride(u32 w) {
  switch (w) {
    case 8: return 4;
    case 4: return 2;
    case 2: return 1;
    default: return 0;  // already at the floor
  }
}

}  // namespace

unsigned effective_build_threads(u32 build_threads) {
  if (build_threads != 0) return build_threads;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

BuiltTree build_tree_parallel(const RuleSet& rules, const Config& cfg_in,
                              ThreadPool* pool) {
  Config cfg = cfg_in;
  cfg.habs_v = std::min({cfg.habs_v, cfg.stride_w, 4u});
  // One pool for every attempt; a caller's pool fixes the worker count.
  std::unique_ptr<ThreadPool> own_pool;
  const unsigned threads = effective_build_threads(cfg.build_threads);
  if (pool == nullptr && threads > 1) {
    own_pool = std::make_unique<ThreadPool>(threads);
    pool = own_pool.get();
  }
  u32 degrade_steps = 0;
  for (;;) {
    try {
      BuiltTree t = attempt(rules, cfg, pool);
      t.stats.degrade_steps = degrade_steps;
      return t;
    } catch (const BudgetExceeded&) {
      const u32 next = next_coarser_stride(cfg.stride_w);
      if (next == 0) {
        // Coarsest stride still over budget: complete anyway — the knob
        // degrades the image, it never fails the build.
        Config last = cfg;
        last.memory_budget_bytes = 0;
        BuiltTree t = attempt(rules, last, pool);
        t.cfg.memory_budget_bytes = cfg_in.memory_budget_bytes;
        t.stats.degrade_steps = degrade_steps;
        return t;
      }
      cfg.stride_w = next;
      cfg.habs_v = std::min(cfg.habs_v, next);
      ++degrade_steps;
    }
  }
}

}  // namespace expcuts
}  // namespace pclass

#include "expcuts/expcuts.hpp"

#include <algorithm>

#include "audit/image_audit.hpp"
#include "common/error.hpp"
#include "engine/thread_pool.hpp"
#include "expcuts/build_parallel.hpp"
#include "expcuts/flat.hpp"
#include "trace/trace.hpp"

namespace pclass {
namespace expcuts {
namespace {

std::unique_ptr<ThreadPool> make_pool(unsigned threads) {
  return threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
}

/// Structural stats of a built tree. Fixed 1024-node blocks accumulate
/// locally and combine in block order, so the result is the same whether
/// the blocks run on `pool` or inline, for any thread count.
TreeStats tree_stats(const BuiltTree& t, u32 depth, ThreadPool* pool) {
  struct Shard {
    u64 leaf_ptrs = 0;
    u64 cpa_words = 0;
    u32 max_distinct = 0;
    double distinct_sum = 0.0;
    double habs_bits_sum = 0.0;
  };
  constexpr std::size_t kBlock = 1024;
  const std::vector<Node>& nodes = t.nodes;
  const std::size_t blocks = (nodes.size() + kBlock - 1) / kBlock;
  std::vector<Shard> shards(blocks);
  const auto run_block = [&](std::size_t b) {
    Shard& sh = shards[b];
    const std::size_t hi = std::min(nodes.size(), (b + 1) * kBlock);
    for (std::size_t i = b * kBlock; i < hi; ++i) {
      const Node& n = nodes[i];
      // Distinct children of this node (paper: commonly < 10 at 256 cuts).
      std::vector<Ptr> uniq(n.ptrs);
      std::sort(uniq.begin(), uniq.end());
      uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
      sh.distinct_sum += static_cast<double>(uniq.size());
      sh.max_distinct =
          std::max<u32>(sh.max_distinct, static_cast<u32>(uniq.size()));
      for (Ptr p : n.ptrs) {
        if (ptr_is_leaf(p)) ++sh.leaf_ptrs;
      }
      const HabsEncoding enc =
          habs_encode(n.ptrs, t.cfg.stride_w, t.cfg.habs_v);
      sh.habs_bits_sum += static_cast<double>(enc.set_bits());
      sh.cpa_words += enc.cpa_words();
    }
  };
  if (pool != nullptr && blocks > 1) {
    for (std::size_t b = 0; b < blocks; ++b) {
      pool->submit([&run_block, b] { run_block(b); });
    }
    pool->wait_idle();
  } else {
    for (std::size_t b = 0; b < blocks; ++b) run_block(b);
  }

  TreeStats st;
  st.node_count = nodes.size();
  st.depth = depth;
  st.build_degrade_steps = t.stats.degrade_steps;
  st.build_tasks = t.stats.tasks;
  st.build_threads = t.stats.threads;
  double distinct_sum = 0.0;
  double habs_bits_sum = 0.0;
  for (const Shard& sh : shards) {
    st.leaf_ptrs += sh.leaf_ptrs;
    st.cpa_words += sh.cpa_words;
    st.max_distinct_children =
        std::max(st.max_distinct_children, sh.max_distinct);
    distinct_sum += sh.distinct_sum;
    habs_bits_sum += sh.habs_bits_sum;
  }
  if (!nodes.empty()) {
    st.mean_distinct_children =
        distinct_sum / static_cast<double>(nodes.size());
    st.mean_habs_set_bits = habs_bits_sum / static_cast<double>(nodes.size());
  }
  // Aggregated image: one header long-word (HABS + cutting info, Fig. 4)
  // plus the CPA words, per node; plus the root pointer word.
  st.bytes_aggregated = (st.node_count + st.cpa_words) * 4 + 4;
  // Unaggregated: the header word plus the full 2^w pointer array per node.
  const u64 fanout = u64{1} << t.cfg.stride_w;
  st.bytes_unaggregated = st.node_count * (1 + fanout) * 4 + 4;
  return st;
}

}  // namespace

ExpCutsClassifier::ExpCutsClassifier(const RuleSet& rules, const Config& cfg)
    : cfg_(cfg), sched_(Schedule::make(cfg.stride_w, cfg.order)) {
  // Covers cutting + stats; the HABS compression and word-image emission
  // get their own child spans (FlatImage ctor).
  PCLASS_TRACE_SPAN(kExpCutsBuild, rules.size());
  const std::unique_ptr<ThreadPool> pool =
      make_pool(effective_build_threads(cfg.build_threads));
  // The tree is a temporary: it is freed as soon as the image exists.
  emit(build_tree_parallel(rules, cfg, pool.get()), pool.get());
}

ExpCutsClassifier::ExpCutsClassifier(const BuiltTree& tree)
    : cfg_(tree.cfg),
      sched_(Schedule::make(tree.cfg.stride_w, tree.cfg.order)) {
  const std::unique_ptr<ThreadPool> pool = make_pool(tree.stats.threads);
  emit(tree, pool.get());
}

void ExpCutsClassifier::emit(const BuiltTree& tree, ThreadPool* pool) {
  // The stride may come back coarser than requested when the budget
  // forced degradation, so config and schedule follow the built tree.
  cfg_ = tree.cfg;
  sched_ = Schedule::make(cfg_.stride_w, cfg_.order);
  rule_count_ = tree.rule_count;
  stats_ = tree_stats(tree, sched_.depth(), pool);
  flat_ = std::make_unique<FlatImage>(tree.nodes, tree.root, cfg_, true, pool);
#if !defined(NDEBUG) || defined(PCLASS_AUDIT_BUILDS)
  // Debug builds prove every freshly built image well-formed (HABS
  // coherence, depth bound, leaf finality, coverage) before it is used;
  // release builds rely on tests + tools/pclass_audit instead.
  audit::AuditOptions aopts;
  aopts.rule_count = static_cast<u32>(rule_count_);
  const audit::AuditReport report =
      audit::audit_flat_image(*flat_, sched_.depth(), aopts);
  check(report.ok(), "ExpCuts build produced a malformed image");
#endif
}

RuleId ExpCutsClassifier::classify(const PacketHeader& h) const {
  return flat_->lookup(h, sched_, nullptr);
}

RuleId ExpCutsClassifier::classify_traced(const PacketHeader& h,
                                          LookupTrace& trace) const {
  return flat_->lookup(h, sched_, &trace);
}

void ExpCutsClassifier::classify_batch(const PacketHeader* h, RuleId* out,
                                       std::size_t n,
                                       BatchLookupStats* stats) const {
  flat_->lookup_batch(h, out, n, sched_, stats);
}

MemoryFootprint ExpCutsClassifier::footprint() const {
  MemoryFootprint f;
  f.bytes = stats_.bytes_aggregated;
  f.node_count = stats_.node_count;
  f.leaf_count = stats_.leaf_ptrs;
  f.max_depth = stats_.depth;
  f.detail = "w=" + std::to_string(cfg_.stride_w) +
             " habs_v=" + std::to_string(cfg_.habs_v) +
             " cpa_words=" + std::to_string(stats_.cpa_words);
  return f;
}

ExpCutsClassifier::~ExpCutsClassifier() = default;

}  // namespace expcuts
}  // namespace pclass

// Incremental rule updates on top of ExpCuts.
//
// Decision-tree classifiers are preprocessing-heavy: the paper (like
// HiCuts before it) rebuilds offline. Real gateways need live policy
// edits, so this layer adds the standard delta/tombstone scheme:
//
//  * the tree is built over a rule-set *snapshot*;
//  * inserted rules go to a small delta list searched linearly (bounded,
//    so the explicit worst case only grows by |delta| rule reads);
//  * deleted snapshot rules become tombstones — a lookup whose tree answer
//    is tombstoned falls back to a snapshot scan from that priority on
//    (correct, rare, and a rebuild trigger);
//  * once pending updates reach `rebuild_threshold`, the snapshot is
//    compacted and the tree rebuilt.
//
// Classification answers are always exact with respect to the *current*
// rule view (verified differentially in tests after every update).
//
// Thread-safety: the paper's deployment splits control plane (updates)
// from data plane (lookups); here a reader/writer lock encodes exactly
// that split — classify takes the lock shared, insert/erase/rebuild take
// it exclusive — and clang thread-safety annotations prove every access
// to the snapshot/delta state happens under the right mode.
#pragma once

#include "common/mutex.hpp"
#include "expcuts/expcuts.hpp"

namespace pclass {
namespace expcuts {

class DynamicExpCutsClassifier final : public Classifier {
 public:
  /// `rebuild_threshold` caps pending updates before an automatic
  /// rebuild; each pending insert costs one worst-case 6-word reference
  /// per lookup, so the default keeps the degradation within ~2x on the
  /// simulated NP (see bench_update).
  explicit DynamicExpCutsClassifier(RuleSet initial, Config cfg = {},
                                    u32 rebuild_threshold = 16);

  std::string name() const override { return "DynamicExpCuts"; }
  RuleId classify(const PacketHeader& h) const override;
  RuleId classify_traced(const PacketHeader& h,
                         LookupTrace& trace) const override;
  /// One shared lock for the whole batch: the snapshot image's batch walk,
  /// then the per-packet delta/tombstone fix-ups.
  void classify_batch(const PacketHeader* h, RuleId* out, std::size_t n,
                      BatchLookupStats* stats = nullptr) const override;
  MemoryFootprint footprint() const override;

  /// The live rule view; returned RuleIds index into it. The reference is
  /// only stable while no concurrent insert/erase/rebuild runs — callers
  /// that share the classifier across threads must copy under their own
  /// synchronization.
  const RuleSet& rules() const PCLASS_NO_THREAD_SAFETY_ANALYSIS {
    return current_;
  }

  /// Inserts `r` at priority position `pos` (0 = highest priority,
  /// rules().size() = lowest). Triggers a rebuild past the threshold.
  void insert(const Rule& r, std::size_t pos) PCLASS_EXCLUDES(mu_);

  /// Removes the rule at priority position `pos`.
  void erase(std::size_t pos) PCLASS_EXCLUDES(mu_);

  /// Pending delta inserts + tombstones since the last rebuild.
  u32 pending_updates() const PCLASS_EXCLUDES(mu_) {
    const ReaderLock lock(mu_);
    return static_cast<u32>(delta_.size()) + tombstones_;
  }

  /// Compacts the snapshot and rebuilds the tree now.
  void rebuild() PCLASS_EXCLUDES(mu_);

  /// Rebuilds performed so far (including the initial build).
  u32 rebuild_count() const PCLASS_EXCLUDES(mu_) {
    const ReaderLock lock(mu_);
    return rebuilds_;
  }

 private:
  /// Maps the snapshot image's answer `snap` for `h` to the live view:
  /// renumbering, tombstone fallback scan, then the delta rules. Charges
  /// the rule reads to `trace` when non-null.
  RuleId apply_updates(const PacketHeader& h, RuleId snap,
                       LookupTrace* trace) const PCLASS_REQUIRES_SHARED(mu_);
  void rebuild_locked() PCLASS_REQUIRES(mu_);
  void maybe_rebuild() PCLASS_REQUIRES(mu_);

  Config cfg_;
  u32 rebuild_threshold_;
  /// Control plane (insert/erase/rebuild) writes under the exclusive lock;
  /// data plane (classify) reads under the shared lock.
  mutable SharedMutex mu_;
  RuleSet current_ PCLASS_GUARDED_BY(mu_);   ///< Live view.
  RuleSet snapshot_ PCLASS_GUARDED_BY(mu_);  ///< What the tree was built over.
  std::unique_ptr<ExpCutsClassifier> tree_ PCLASS_GUARDED_BY(mu_);
  /// snapshot id -> current index, or kNoMatch when deleted.
  std::vector<RuleId> snap_to_cur_ PCLASS_GUARDED_BY(mu_);
  /// Current indices of rules inserted since the snapshot, ascending.
  std::vector<RuleId> delta_ PCLASS_GUARDED_BY(mu_);
  u32 tombstones_ PCLASS_GUARDED_BY(mu_) = 0;
  u32 rebuilds_ PCLASS_GUARDED_BY(mu_) = 0;
};

}  // namespace expcuts
}  // namespace pclass

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
//    is tombstoned falls back to a scan of the remaining live snapshot
//    rules from that priority on (correct, rare, and a rebuild trigger);
//  * once pending updates reach `rebuild_threshold`, the snapshot is
//    compacted and the tree rebuilt.
//
// Classification answers are always exact with respect to the *current*
// rule view (verified differentially in tests after every update).
//
// Thread-safety: the paper's deployment splits control plane (updates)
// from data plane (lookups). Everything a lookup reads is one immutable
// *generation* — the image, the live rule view, the snapshot-to-view map,
// the delta and the tombstone count. Writers (insert/erase/rebuild)
// serialize on their own `update_mu_` and build the next generation
// entirely outside the reader lock, including the image build and its
// semantic verification. The reader lock `mu_` is taken exclusively only
// to publish: an O(1) swap with no allocation, free or rule scan inside.
// The replaced generation is destroyed on the writer thread after the
// lock is released, so freeing an old image never stalls a reader.
// Readers take `mu_` shared once per classify/classify_batch and so never
// wait on a build or a verify. Nothing is published until the whole
// candidate (update, optional rebuild, verification) succeeds, so insert,
// erase and rebuild give the strong exception guarantee: on a throw the
// previous generation keeps answering and no rejected image is ever
// visible. Updates stay synchronous — no thread runs between calls.
// Clang thread-safety annotations prove every access to the published
// generation happens under the right mode of `mu_`.
#pragma once

#include <functional>
#include <memory>

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
    return live_.current;
  }

  /// Inserts `r` at priority position `pos` (0 = highest priority,
  /// rules().size() = lowest). Triggers a rebuild past the threshold.
  void insert(const Rule& r, std::size_t pos)
      PCLASS_EXCLUDES(update_mu_, mu_);

  /// Removes the rule at priority position `pos`.
  void erase(std::size_t pos) PCLASS_EXCLUDES(update_mu_, mu_);

  /// Pending delta inserts + tombstones since the last rebuild.
  u32 pending_updates() const PCLASS_EXCLUDES(mu_) {
    const ReaderLock lock(mu_);
    return live_.pending();
  }

  /// Compacts the snapshot and rebuilds the tree now.
  void rebuild() PCLASS_EXCLUDES(update_mu_, mu_);

  /// Rebuilds performed so far (including the initial build).
  u32 rebuild_count() const PCLASS_EXCLUDES(mu_) {
    const ReaderLock lock(mu_);
    return live_.rebuilds;
  }

 private:
  /// Everything one lookup reads. Never mutated once published; the next
  /// update builds a fresh one.
  struct Generation {
    /// Built over the snapshot the last rebuild compacted; shared by the
    /// generations until the next rebuild replaces it.
    std::shared_ptr<const ExpCutsClassifier> image;
    RuleSet current;  ///< Live view.
    /// Snapshot id (the image's rule ids) -> current index, or kNoMatch
    /// when deleted. A live snapshot rule s is `current[snap_to_cur[s]]`.
    std::vector<RuleId> snap_to_cur;
    /// Current indices of rules inserted since the snapshot, ascending.
    std::vector<RuleId> delta;
    u32 tombstones = 0;
    u32 rebuilds = 0;

    u32 pending() const {
      return static_cast<u32>(delta.size()) + tombstones;
    }
    /// Maps the image's answer `snap` for `h` to the live view:
    /// renumbering, tombstone fallback scan, then the delta rules. Charges
    /// the rule reads to `trace` when non-null.
    RuleId apply_updates(const PacketHeader& h, RuleId snap,
                         LookupTrace* trace) const;
    /// This generation with `r` inserted at `pos` / the rule at `pos`
    /// erased, sharing the image.
    Generation with_insert(const Rule& r, std::size_t pos) const;
    Generation with_erase(std::size_t pos) const;
    /// Builds (and, when `cfg.verify_semantics`, proves) an image of the
    /// current view and makes it the snapshot. Throws before touching
    /// `*this` when the build or the verification fails.
    void rebuild(const Config& cfg);
  };

  /// Rebuilds `next` when `force` or past the threshold, runs the
  /// pre-publish seam, then publishes it. The replaced generation is
  /// destroyed after `mu_` is released.
  void commit(Generation next, bool force) PCLASS_REQUIRES(update_mu_)
      PCLASS_EXCLUDES(mu_);

  /// Tests install the pre-publish seam through this.
  friend struct DynamicExpCutsTestAccess;

  const Config cfg_;
  const u32 rebuild_threshold_;
  /// Serializes the control plane (insert/erase/rebuild); held for a whole
  /// update, build and verify included.
  Mutex update_mu_;
  /// Test-only seam: runs after the candidate is built and verified, just
  /// before it is published, with whether the candidate was rebuilt. A
  /// throw aborts the update like a failed verification.
  std::function<void(bool rebuilt)> before_publish_
      PCLASS_GUARDED_BY(update_mu_);
  /// Guards the published generation: readers shared for one lookup or
  /// batch, writers exclusive for the O(1) publish only.
  mutable SharedMutex mu_;
  Generation live_ PCLASS_GUARDED_BY(mu_);
};

}  // namespace expcuts
}  // namespace pclass

#include "expcuts/dynamic.hpp"

#include <algorithm>

#include "analysis/verify_image.hpp"
#include "classify/linear.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "expcuts/flat.hpp"

namespace pclass {
namespace expcuts {
namespace {

/// Update-path metrics: how big the bounded delta actually runs, how often
/// the rare tombstone fallback scan triggers, and rebuild cadence.
struct UpdateMetrics {
  metrics::Counter& inserts;
  metrics::Counter& erases;
  metrics::Counter& rebuilds;
  metrics::Counter& tombstone_fallbacks;
  metrics::Histogram& delta_size;
};
UpdateMetrics& update_metrics() {
  metrics::Registry& reg = metrics::Registry::global();
  static UpdateMetrics m{
      reg.counter("dynamic.inserts"),
      reg.counter("dynamic.erases"),
      reg.counter("dynamic.rebuilds"),
      reg.counter("dynamic.tombstone_fallbacks"),
      reg.histogram("dynamic.delta_size", metrics::Scale::kLog2, 12),
  };
  return m;
}

}  // namespace

DynamicExpCutsClassifier::DynamicExpCutsClassifier(RuleSet initial,
                                                   Config cfg,
                                                   u32 rebuild_threshold)
    : cfg_(cfg),
      rebuild_threshold_(std::max(rebuild_threshold, 1u)),
      current_(std::move(initial)) {
  current_.validate();
  rebuild();
}

void DynamicExpCutsClassifier::rebuild() {
  const WriterLock lock(mu_);
  rebuild_locked();
}

void DynamicExpCutsClassifier::rebuild_locked() {
  // Compact: the snapshot becomes the current view.
  snapshot_ = current_;
  tree_ = std::make_unique<ExpCutsClassifier>(snapshot_, cfg_);
  if (cfg_.verify_semantics) {
    // Live updates are exactly where a builder bug would ship a wrong
    // image straight into the data plane; with the flag on, every rebuilt
    // image is proven ≡ its snapshot before any lookup runs against it.
    analysis::SemanticOptions opts;
    opts.threads = cfg_.build_threads;
    const analysis::SemanticReport sem = analysis::verify_flat_image(
        tree_->flat(), tree_->schedule(), snapshot_, opts);
    if (!sem.ok()) {
      throw AuditError("DynamicExpCuts rebuild failed semantic verification: " +
                       sem.report.summary());
    }
  }
  snap_to_cur_.resize(snapshot_.size());
  for (RuleId i = 0; i < snapshot_.size(); ++i) snap_to_cur_[i] = i;
  delta_.clear();
  tombstones_ = 0;
  ++rebuilds_;
  update_metrics().rebuilds.inc();
}

void DynamicExpCutsClassifier::maybe_rebuild() {
  const u32 pending = static_cast<u32>(delta_.size()) + tombstones_;
  if (pending >= rebuild_threshold_) rebuild_locked();
}

void DynamicExpCutsClassifier::insert(const Rule& r, std::size_t pos) {
  const WriterLock lock(mu_);
  check(pos <= current_.size(), "DynamicExpCuts::insert: position out of range");
  // Shift every current index at or past pos.
  for (RuleId& m : snap_to_cur_) {
    if (m != kNoMatch && m >= pos) ++m;
  }
  for (RuleId& d : delta_) {
    if (d >= pos) ++d;
  }
  std::vector<Rule> rules = current_.rules();
  rules.insert(rules.begin() + static_cast<std::ptrdiff_t>(pos), r);
  current_ = RuleSet(std::move(rules), current_.name());
  delta_.push_back(static_cast<RuleId>(pos));
  std::sort(delta_.begin(), delta_.end());
  update_metrics().inserts.inc();
  update_metrics().delta_size.record(delta_.size());
  maybe_rebuild();
}

void DynamicExpCutsClassifier::erase(std::size_t pos) {
  const WriterLock lock(mu_);
  check(pos < current_.size(), "DynamicExpCuts::erase: position out of range");
  const RuleId target = static_cast<RuleId>(pos);
  // Either a delta rule or a live snapshot rule.
  const auto dit = std::find(delta_.begin(), delta_.end(), target);
  if (dit != delta_.end()) {
    delta_.erase(dit);
  } else {
    bool found = false;
    for (RuleId& m : snap_to_cur_) {
      if (m == target) {
        m = kNoMatch;
        ++tombstones_;
        found = true;
        break;
      }
    }
    check(found, "DynamicExpCuts::erase: position not mapped");
  }
  for (RuleId& m : snap_to_cur_) {
    if (m != kNoMatch && m > target) --m;
  }
  for (RuleId& d : delta_) {
    if (d > target) --d;
  }
  std::vector<Rule> rules = current_.rules();
  rules.erase(rules.begin() + static_cast<std::ptrdiff_t>(pos));
  current_ = RuleSet(std::move(rules), current_.name());
  update_metrics().erases.inc();
  update_metrics().delta_size.record(delta_.size());
  maybe_rebuild();
}

RuleId DynamicExpCutsClassifier::classify(const PacketHeader& h) const {
  const ReaderLock lock(mu_);
  return apply_updates(h, tree_->classify(h), nullptr);
}

RuleId DynamicExpCutsClassifier::classify_traced(const PacketHeader& h,
                                                 LookupTrace& trace) const {
  const ReaderLock lock(mu_);
  return apply_updates(h, tree_->classify_traced(h, trace), &trace);
}

void DynamicExpCutsClassifier::classify_batch(const PacketHeader* h,
                                              RuleId* out, std::size_t n,
                                              BatchLookupStats* stats) const {
  const ReaderLock lock(mu_);
  tree_->classify_batch(h, out, n, stats);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = apply_updates(h[i], out[i], nullptr);
  }
}

RuleId DynamicExpCutsClassifier::apply_updates(const PacketHeader& h,
                                               RuleId snap,
                                               LookupTrace* trace) const {
  RuleId best = kNoMatch;
  if (snap != kNoMatch) {
    if (snap_to_cur_[snap] != kNoMatch) {
      best = snap_to_cur_[snap];
    } else {
      // Tombstoned match: scan the remaining snapshot priorities.
      update_metrics().tombstone_fallbacks.inc();
      for (RuleId s = snap + 1; s < snapshot_.size(); ++s) {
        if (trace != nullptr) {
          trace->accesses.push_back(MemAccess{0, kRuleWords, 10});
        }
        if (snap_to_cur_[s] != kNoMatch && snapshot_[s].matches(h)) {
          best = snap_to_cur_[s];
          break;
        }
      }
    }
  }
  // Delta rules (ascending current index = descending priority), each a
  // 6-word reference like any linear search.
  for (RuleId d : delta_) {
    if (best != kNoMatch && d > best) break;  // cannot improve
    if (trace != nullptr) {
      trace->accesses.push_back(MemAccess{0, kRuleWords, 10});
    }
    if (current_[d].matches(h)) {
      if (best == kNoMatch || d < best) best = d;
      break;
    }
  }
  return best;
}

MemoryFootprint DynamicExpCutsClassifier::footprint() const {
  const ReaderLock lock(mu_);
  MemoryFootprint f = tree_->footprint();
  f.bytes += delta_.size() * kRuleWords * 4 + snap_to_cur_.size() * 4;
  f.detail += " delta=" + std::to_string(delta_.size()) +
              " tombstones=" + std::to_string(tombstones_);
  return f;
}

}  // namespace expcuts
}  // namespace pclass

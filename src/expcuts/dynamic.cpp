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

/// `rs` with `r` inserted at `pos`, in one pass.
std::vector<Rule> with_rule(const RuleSet& rs, std::size_t pos,
                            const Rule& r) {
  const auto at = rs.rules().begin() + static_cast<std::ptrdiff_t>(pos);
  std::vector<Rule> out;
  out.reserve(rs.size() + 1);
  out.insert(out.end(), rs.rules().begin(), at);
  out.push_back(r);
  out.insert(out.end(), at, rs.rules().end());
  return out;
}

/// `rs` without the rule at `pos`, in one pass.
std::vector<Rule> without_rule(const RuleSet& rs, std::size_t pos) {
  const auto at = rs.rules().begin() + static_cast<std::ptrdiff_t>(pos);
  std::vector<Rule> out;
  out.reserve(rs.size() - 1);
  out.insert(out.end(), rs.rules().begin(), at);
  out.insert(out.end(), at + 1, rs.rules().end());
  return out;
}

}  // namespace

DynamicExpCutsClassifier::DynamicExpCutsClassifier(RuleSet initial,
                                                   Config cfg,
                                                   u32 rebuild_threshold)
    : cfg_(cfg), rebuild_threshold_(std::max(rebuild_threshold, 1u)) {
  initial.validate();
  Generation first;
  first.current = std::move(initial);
  const MutexLock writer(update_mu_);
  commit(std::move(first), true);
}

void DynamicExpCutsClassifier::rebuild() {
  const MutexLock writer(update_mu_);
  Generation next;
  {
    const ReaderLock lock(mu_);
    next.current = live_.current;
    next.rebuilds = live_.rebuilds;
  }
  commit(std::move(next), true);
}

void DynamicExpCutsClassifier::insert(const Rule& r, std::size_t pos) {
  const MutexLock writer(update_mu_);
  Generation next;
  {
    const ReaderLock lock(mu_);
    check(pos <= live_.current.size(),
          "DynamicExpCuts::insert: position out of range");
    next = live_.with_insert(r, pos);
  }
  const std::size_t delta = next.delta.size();
  commit(std::move(next), false);
  update_metrics().inserts.inc();
  update_metrics().delta_size.record(delta);
}

void DynamicExpCutsClassifier::erase(std::size_t pos) {
  const MutexLock writer(update_mu_);
  Generation next;
  {
    const ReaderLock lock(mu_);
    check(pos < live_.current.size(),
          "DynamicExpCuts::erase: position out of range");
    next = live_.with_erase(pos);
  }
  const std::size_t delta = next.delta.size();
  commit(std::move(next), false);
  update_metrics().erases.inc();
  update_metrics().delta_size.record(delta);
}

void DynamicExpCutsClassifier::commit(Generation next, bool force) {
  const bool rebuilt = force || next.pending() >= rebuild_threshold_;
  if (rebuilt) next.rebuild(cfg_);
  if (before_publish_) before_publish_(rebuilt);
  {
    const WriterLock lock(mu_);
    std::swap(live_, next);  // moves only: no allocation, no free
  }
  // `next` now holds the replaced generation (and, after a rebuild, the
  // last reference to the old image); it dies here, off the reader lock.
  if (rebuilt) update_metrics().rebuilds.inc();
}

DynamicExpCutsClassifier::Generation
DynamicExpCutsClassifier::Generation::with_insert(const Rule& r,
                                                  std::size_t pos) const {
  Generation g{image, RuleSet(with_rule(current, pos, r), current.name()),
               snap_to_cur, delta, tombstones, rebuilds};
  // Shift every current index at or past pos.
  for (RuleId& m : g.snap_to_cur) {
    if (m != kNoMatch && m >= pos) ++m;
  }
  for (RuleId& d : g.delta) {
    if (d >= pos) ++d;
  }
  g.delta.push_back(static_cast<RuleId>(pos));
  std::sort(g.delta.begin(), g.delta.end());
  return g;
}

DynamicExpCutsClassifier::Generation
DynamicExpCutsClassifier::Generation::with_erase(std::size_t pos) const {
  Generation g{image, RuleSet(without_rule(current, pos), current.name()),
               snap_to_cur, delta, tombstones, rebuilds};
  const RuleId target = static_cast<RuleId>(pos);
  // Either a delta rule or a live snapshot rule.
  const auto dit = std::find(g.delta.begin(), g.delta.end(), target);
  if (dit != g.delta.end()) {
    g.delta.erase(dit);
  } else {
    const auto sit = std::find(g.snap_to_cur.begin(), g.snap_to_cur.end(),
                               target);
    check(sit != g.snap_to_cur.end(),
          "DynamicExpCuts::erase: position not mapped");
    *sit = kNoMatch;
    ++g.tombstones;
  }
  for (RuleId& m : g.snap_to_cur) {
    if (m != kNoMatch && m > target) --m;
  }
  for (RuleId& d : g.delta) {
    if (d > target) --d;
  }
  return g;
}

void DynamicExpCutsClassifier::Generation::rebuild(const Config& cfg) {
  // Compact: the snapshot becomes the current view.
  auto built = std::make_shared<const ExpCutsClassifier>(current, cfg);
  if (cfg.verify_semantics) {
    // Live updates are exactly where a builder bug would ship a wrong
    // image straight into the data plane; with the flag on, every rebuilt
    // image is proven ≡ its snapshot before it can be published.
    analysis::SemanticOptions opts;
    opts.threads = cfg.build_threads;
    const analysis::SemanticReport sem = analysis::verify_flat_image(
        built->flat(), built->schedule(), current, opts);
    if (!sem.ok()) {
      throw AuditError("DynamicExpCuts rebuild failed semantic verification: " +
                       sem.report.summary());
    }
  }
  std::vector<RuleId> identity(current.size());
  for (RuleId i = 0; i < identity.size(); ++i) identity[i] = i;
  image = std::move(built);
  snap_to_cur = std::move(identity);
  delta.clear();
  tombstones = 0;
  ++rebuilds;
}

RuleId DynamicExpCutsClassifier::classify(const PacketHeader& h) const {
  const ReaderLock lock(mu_);
  return live_.apply_updates(h, live_.image->classify(h), nullptr);
}

RuleId DynamicExpCutsClassifier::classify_traced(const PacketHeader& h,
                                                 LookupTrace& trace) const {
  const ReaderLock lock(mu_);
  return live_.apply_updates(h, live_.image->classify_traced(h, trace),
                             &trace);
}

void DynamicExpCutsClassifier::classify_batch(const PacketHeader* h,
                                              RuleId* out, std::size_t n,
                                              BatchLookupStats* stats) const {
  const ReaderLock lock(mu_);
  live_.image->classify_batch(h, out, n, stats);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = live_.apply_updates(h[i], out[i], nullptr);
  }
}

RuleId DynamicExpCutsClassifier::Generation::apply_updates(
    const PacketHeader& h, RuleId snap, LookupTrace* trace) const {
  RuleId best = kNoMatch;
  if (snap != kNoMatch) {
    if (snap_to_cur[snap] != kNoMatch) {
      best = snap_to_cur[snap];
    } else {
      // Tombstoned match: scan the remaining live snapshot priorities.
      update_metrics().tombstone_fallbacks.inc();
      for (RuleId s = snap + 1; s < snap_to_cur.size(); ++s) {
        if (trace != nullptr) {
          trace->accesses.push_back(MemAccess{0, kRuleWords, 10});
        }
        if (snap_to_cur[s] != kNoMatch && current[snap_to_cur[s]].matches(h)) {
          best = snap_to_cur[s];
          break;
        }
      }
    }
  }
  // Delta rules (ascending current index = descending priority), each a
  // 6-word reference like any linear search.
  for (RuleId d : delta) {
    if (best != kNoMatch && d > best) break;  // cannot improve
    if (trace != nullptr) {
      trace->accesses.push_back(MemAccess{0, kRuleWords, 10});
    }
    if (current[d].matches(h)) {
      if (best == kNoMatch || d < best) best = d;
      break;
    }
  }
  return best;
}

MemoryFootprint DynamicExpCutsClassifier::footprint() const {
  const ReaderLock lock(mu_);
  MemoryFootprint f = live_.image->footprint();
  f.bytes += live_.delta.size() * kRuleWords * 4 + live_.snap_to_cur.size() * 4;
  f.detail += " delta=" + std::to_string(live_.delta.size()) +
              " tombstones=" + std::to_string(live_.tombstones);
  return f;
}

}  // namespace expcuts
}  // namespace pclass

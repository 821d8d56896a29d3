// End-to-end benchmark: packets in, verdicts out, on two named
// workloads, through the library's public entry points only.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH]
//
// The last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"} holding every metric the run measured; run.py
// keeps the ones BENCHMARK.json names for the mode. With --trace 0 span
// recording is off and the end-to-end metrics are the ones that count;
// with --trace 1 the per-layer metrics come from spans recorded around
// each call into a layer (written to --spans at exit). Lookup and update
// timings are reported as on a host of reference speed, scaled by a
// memory probe sampled through the run (HostProbe); build times are
// reported as measured. The line before it is a "context" object:
// machine state, the host speed, every timing as measured, sample counts
// and the verdict-check tally, recorded but not compared.
//
// NOTE.md (next to this file) explains the workloads, the metric ->
// layer -> workload map, why updates are paced and why a churn workload
// was dropped.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/verify_image.hpp"
#include "classify/linear.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "engine/flow_cache.hpp"
#include "engine/parallel.hpp"
#include "expcuts/dynamic.hpp"
#include "expcuts/expcuts.hpp"
#include "expcuts/flat.hpp"
#include "packet/flowgen.hpp"
#include "packet/tracegen.hpp"
#include "workload/scalegen.hpp"

namespace {

using namespace pclass;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- knobs

constexpr std::size_t kBatch = 256;          // packets per classify_batch
constexpr std::size_t kTracePackets = 1u << 20;
constexpr std::size_t kOracleSample = 1024;  // verdicts checked per pass
constexpr std::size_t kFlowCacheEntries = 65536;
constexpr std::size_t kSetupReps = 4;        // setup_s is their median
constexpr u32 kRebuildThreshold = 16;        // DynamicExpCuts default
constexpr std::size_t kBatchesPerUpdate = 256;  // phase A reads per update
constexpr std::size_t kUpdateSample = 256;   // phase A verdicts per update
// Batch latency quantiles are taken per chunk of this many calls (so p99
// has ten samples beyond it) and reported as the median over chunks.
constexpr std::size_t kLatencyChunk = 1024;
constexpr auto kUpdatePause = std::chrono::milliseconds(5);  // phase B
// The host speed probe (HostProbe) reads a buffer of this size, at this
// rate in million loads/s on a host of reference speed.
constexpr std::size_t kProbeBytes = std::size_t{128} << 20;
constexpr double kProbeReferenceMloads = 50.0;

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

unsigned reader_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 1 ? n - 1 : 1;
}

// ------------------------------------------------------- machine context

/// A "Key:   123 kB" field of a /proc file, in kB; -1 when unavailable.
long proc_kb(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtol(line.c_str() + prefix.size(), nullptr, 10);
    }
  }
  return -1;
}

double vmhwm_mb() { return proc_kb("/proc/self/status", "VmHWM") / 1024.0; }

struct CpuTimes {
  u64 total = 0;
  u64 steal = 0;
  bool ok = false;
};

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTimes t;
  if (!(in >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    u64 v = 0;
    if (!(in >> v)) return t;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  t.ok = true;
  return t;
}

long involuntary_switches() {
  rusage ru{};
  return getrusage(RUSAGE_SELF, &ru) == 0 ? ru.ru_nivcsw : -1;
}

// ----------------------------------------------------------- host speed

/// How fast the host runs memory-bound code at the moment. On a shared
/// host the lookups and updates speed up and slow down together with the
/// memory system, by up to 40% over minutes, and the slow stretches
/// outlast a run. The probe is fixed code outside the library: eight
/// independent chains of dependent loads at hashed offsets of a buffer
/// of fixed contents, the size of the image. It runs right after each
/// group of timed lookups or updates, never while the library works, and
/// those timings are reported as on a host on which the probe reads
/// kProbeReferenceMloads (Series). Builds do not follow the probe and
/// are reported as measured (NOTE.md has the evidence).
class HostProbe {
 public:
  /// Runs the probe once; returns the host's speed relative to the
  /// reference host (above 1 when faster).
  double sample() {
    if (buf_.empty()) {
      buf_.resize(kProbeBytes / sizeof(u64));
      Rng fill(0x5eed);
      for (u64& w : buf_) w = fill.next_u64();
    }
    constexpr int kChains = 8;
    constexpr int kSteps = 100000;
    const u64 mask = buf_.size() - 1;
    u64 chain[kChains];
    for (int k = 0; k < kChains; ++k) chain[k] = static_cast<u64>(k) + 1;
    const i64 t0 = now_ns();
    for (int i = 0; i < kSteps; ++i) {
      for (u64& x : chain) x ^= buf_[(x * 0x9e3779b97f4a7c15ull >> 20) & mask];
    }
    const i64 t1 = now_ns();
    for (const u64 x : chain) sink_ = sink_ ^ x;
    mloads_.push_back(kChains * kSteps * 1e3 / static_cast<double>(t1 - t0));
    return mloads_.back() / kProbeReferenceMloads;
  }
  /// The run's median speed, for timings aggregated over the whole run.
  double speed() const { return median(mloads_) / kProbeReferenceMloads; }
  std::size_t samples() const { return mloads_.size(); }

 private:
  std::vector<u64> buf_;
  std::vector<double> mloads_;
  volatile u64 sink_ = 0;  // keeps the loads live
};

// ---------------------------------------------------------------- spans

/// One call into a layer, as seen from the benchmark.
struct Span {
  u32 id;
  u32 parent;  // 0 = none
  u32 pass;    // spans of one pass share it
  const char* layer;
  i64 t0;
  i64 t1;
  u64 items;   // packets, updates, ...
};

/// In-memory span log, written out at exit. Spans are recorded on the
/// benchmark's main thread only; work that fans out to other threads is
/// covered by the span of the call that fanned it out.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), owner_(std::this_thread::get_id()) {
    if (on_) spans_.reserve(1u << 18);
  }

  bool on() const { return on_ && !paused_; }
  void pause(bool p) { paused_ = p; }
  void next_pass() { ++pass_; }

  /// Opens a span nested in the innermost open one; 0 when off.
  u32 open(const char* layer) {
    if (!recording()) return 0;
    spans_.push_back({static_cast<u32>(spans_.size() + 1), parent(), pass_,
                      layer, now_ns(), 0, 0});
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }
  void close(u32 id, u64 items) {
    if (id == 0) return;
    Span& s = spans_[id - 1];
    s.t1 = now_ns();
    s.items = items;
    stack_.pop_back();
  }
  /// A leaf span whose times the caller already took.
  void record(const char* layer, i64 t0, i64 t1, u64 items) {
    if (!recording()) return;
    spans_.push_back({static_cast<u32>(spans_.size() + 1), parent(), pass_,
                      layer, t0, t1, items});
  }

  struct Total {
    double ns = 0;
    u64 items = 0;
  };
  Total total(const std::string& layer) const {
    Total t;
    for (const Span& s : spans_) {
      if (layer != s.layer) continue;
      t.ns += static_cast<double>(s.t1 - s.t0);
      t.items += s.items;
    }
    return t;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"pass\": " << s.pass
          << ", \"layer\": \"" << s.layer << "\", \"start_ns\": " << s.t0
          << ", \"end_ns\": " << s.t1 << ", \"items\": " << s.items << "}";
    }
    out << "\n]}\n";
  }

 private:
  bool recording() const {
    return on() && std::this_thread::get_id() == owner_;
  }
  u32 parent() const { return stack_.empty() ? 0 : stack_.back(); }

  bool on_;
  bool paused_ = false;
  std::thread::id owner_;
  u32 pass_ = 0;
  std::vector<Span> spans_;
  std::vector<u32> stack_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* layer) : t_(t), id_(t.open(layer)) {}
  ~Scope() { t_.close(id_, items_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void items(u64 n) { items_ = n; }

 private:
  Tracer& t_;
  u32 id_;
  u64 items_ = 0;
};

/// Forwards to an inner classifier and records a span per batch call —
/// how the traced run sees the walker underneath the flow cache.
class SpannedClassifier final : public Classifier {
 public:
  SpannedClassifier(const Classifier& inner, Tracer& t, const char* layer)
      : inner_(inner), t_(t), layer_(layer) {}
  std::string name() const override { return inner_.name(); }
  RuleId classify(const PacketHeader& h) const override {
    return inner_.classify(h);
  }
  RuleId classify_traced(const PacketHeader& h,
                         LookupTrace& trace) const override {
    return inner_.classify_traced(h, trace);
  }
  void classify_batch(const PacketHeader* h, RuleId* out, std::size_t n,
                      BatchLookupStats* stats) const override {
    const i64 t0 = t_.on() ? now_ns() : 0;
    inner_.classify_batch(h, out, n, stats);
    if (t_.on()) t_.record(layer_, t0, now_ns(), n);
  }
  MemoryFootprint footprint() const override { return inner_.footprint(); }

 private:
  const Classifier& inner_;
  Tracer& t_;
  const char* layer_;
};

// ------------------------------------------------------ verdict oracle

/// Tally of verdicts compared with first-match linear search.
struct Verdicts {
  u64 checked = 0;
  u64 failed = 0;
};

/// A fixed sample of trace positions and their linear-search verdicts.
struct Oracle {
  std::vector<std::size_t> idx;
  std::vector<RuleId> want;

  Oracle(const RuleSet& rules, const std::vector<PacketHeader>& pkts,
         std::vector<std::size_t> positions)
      : idx(std::move(positions)) {
    const LinearSearchClassifier linear(rules);
    want.reserve(idx.size());
    for (std::size_t i : idx) want.push_back(linear.classify(pkts[i]));
  }

  /// Compares the sampled positions of `got` (indexed like the trace).
  void check(const RuleId* got, Verdicts& v) const {
    for (std::size_t k = 0; k < idx.size(); ++k) {
      ++v.checked;
      if (got[idx[k]] != want[k]) ++v.failed;
    }
  }
};

std::vector<std::size_t> sample_positions(std::size_t n, std::size_t count,
                                          Rng& rng) {
  std::vector<std::size_t> pos(count);
  for (std::size_t& p : pos) p = rng.next_below(n);
  return pos;
}

// ------------------------------------------------------------ workloads

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

/// Diverse traffic: 90% sampled inside a uniformly drawn rule, 10%
/// uniform random headers.
std::vector<PacketHeader> diverse_trace(const RuleSet& rules, std::size_t n,
                                        u64 seed) {
  Rng rng(seed);
  std::vector<PacketHeader> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.9)) {
      out.push_back(sample_in_rule(
          rules[static_cast<RuleId>(rng.next_below(rules.size()))], rng));
    } else {
      out.push_back(sample_uniform(rng));
    }
  }
  return out;
}

/// Samples of one timing, each stamped with the host speed the probe
/// measured right after it. A time on the reference host is the measured
/// time times that speed; a rate is divided by it.
struct Series {
  std::vector<double> measured;
  std::vector<double> speed;

  void add(double v) { measured.push_back(v); }
  /// Stamps every sample added since the last stamp.
  void stamp(double s) { speed.resize(measured.size(), s); }
  std::vector<double> reference(bool rate = false) const {
    std::vector<double> out(measured.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = rate ? measured[i] / speed.at(i) : measured[i] * speed.at(i);
    }
    return out;
  }
  std::size_t size() const { return measured.size(); }
};

Series joined(Series a, const Series& b) {
  a.measured.insert(a.measured.end(), b.measured.begin(), b.measured.end());
  a.speed.insert(a.speed.end(), b.speed.begin(), b.speed.end());
  return a;
}

/// Everything a run reports; names match BENCHMARK.json.
struct Report {
  struct Metric {
    double value;  // as on the reference host, for timings
    const char* unit;
    double measured;  // timings: as measured on this host; else NaN
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> context;  // name -> JSON value
  Verdicts verdicts;
  HostProbe host;
  bool image_verified = true;

  /// A size, count or ratio.
  void metric(const std::string& name, double v, const char* unit) {
    metrics[name] = {v, unit, std::nan("")};
  }
  void timing(const std::string& name, double measured, double reference,
              const char* unit) {
    metrics[name] = {reference, unit, measured};
  }
  /// The median of a series; `rate` for throughputs.
  void median_of(const std::string& name, const Series& s, const char* unit,
                 bool rate = false) {
    timing(name, median(s.measured), median(s.reference(rate)), unit);
  }
  /// A time aggregated over the run (spans, probes), scaled by the run's
  /// median host speed.
  void run_time(const std::string& name, double v, const char* unit) {
    timing(name, v, v * host.speed(), unit);
  }
  /// A build-bound time, reported as measured.
  void build_time(const std::string& name, double v, const char* unit) {
    timing(name, v, v, unit);
  }
  void note(const std::string& name, double v) {
    std::ostringstream os;
    if (std::isfinite(v)) {
      os.precision(17);
      os << v;
    } else {
      os << "null";
    }
    context[name] = os.str();
  }
  void note(const std::string& name, const std::string& s) {
    context[name] = "\"" + s + "\"";
  }
};

/// A slice of the workload's trace plus the linear-search verdicts of a
/// fixed sample of its packets. One timed pass replays one slice, so
/// passes are short and many, spread over the whole run: the host's
/// spread moves on a scale of seconds.
struct Slice {
  Trace trace;
  Oracle oracle;
};

std::vector<Slice> make_slices(const RuleSet& rules,
                               const std::vector<PacketHeader>& pkts,
                               std::size_t slice_pkts, u64 seed) {
  Rng pick(seed);
  std::vector<Slice> slices;
  for (std::size_t b = 0; b + slice_pkts <= pkts.size(); b += slice_pkts) {
    std::vector<PacketHeader> part(pkts.begin() + b,
                                   pkts.begin() + b + slice_pkts);
    Oracle oracle(rules, part,
                  sample_positions(slice_pkts, kOracleSample, pick));
    slices.push_back({Trace(std::move(part)), std::move(oracle)});
  }
  return slices;
}

/// Everything the timed passes of a run collect.
struct Passes {
  Series mpps;      // single-thread, one per pass
  Series call_us;   // every timed classify_batch call
  Series mpps_mt;   // classify_parallel, one per pass
  Series untraced;  // traced run: passes with spans paused
  BatchLookupStats stats;
  std::size_t cursor = 0;        // next slice

  void stamp(double speed) {
    for (Series* s : {&mpps, &call_us, &mpps_mt, &untraced}) s->stamp(speed);
  }
};

/// One single-thread pass: the slice in kBatch calls, each timed. In the
/// traced run every other kept pass runs with span recording paused, so
/// the tracing overhead is measured on the same process and data. A warm
/// pass is run and checked, but neither recorded nor kept.
void st_pass(const Classifier& cls, const Slice& slice, const char* layer,
             bool warm, Tracer& tracer, Passes& p, Verdicts& verdicts) {
  const std::vector<PacketHeader>& pkts = slice.trace.packets();
  std::vector<RuleId> out(pkts.size(), kNoMatch);
  std::vector<double> call_us;
  call_us.reserve(pkts.size() / kBatch + 1);
  const bool untraced =
      !warm && tracer.on() && p.mpps.size() > p.untraced.size();
  tracer.pause(warm || untraced);
  tracer.next_pass();
  Scope pass_span(tracer, "pass");
  i64 busy_ns = 0;
  for (std::size_t b = 0; b < pkts.size(); b += kBatch) {
    const std::size_t n = std::min(kBatch, pkts.size() - b);
    const i64 t0 = now_ns();
    {
      Scope call(tracer, layer);
      cls.classify_batch(pkts.data() + b, out.data() + b, n, &p.stats);
      call.items(n);
    }
    const i64 t1 = now_ns();
    busy_ns += t1 - t0;
    call_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  pass_span.items(pkts.size());
  slice.oracle.check(out.data(), verdicts);
  tracer.pause(false);
  if (warm) return;
  for (const double us : call_us) p.call_us.add(us);
  const double mpps =
      static_cast<double>(pkts.size()) * 1e3 / static_cast<double>(busy_ns);
  (untraced ? p.untraced : p.mpps).add(mpps);
}

/// One pass of classify_parallel over the slice on nproc-1 threads. A warm
/// pass is run and checked, but neither recorded nor kept.
void mt_pass(const Classifier& cls, const Slice& slice, bool warm,
             Tracer& tracer, Passes& p, Verdicts& verdicts) {
  tracer.next_pass();
  tracer.pause(warm);
  Scope span(tracer, "engine.classify_parallel");
  // With a single worker classify_parallel runs the batches on this
  // thread; their walker spans must not count against the stack's.
  tracer.pause(true);
  const ParallelRunResult r =
      classify_parallel(cls, slice.trace, reader_threads(), kBatch);
  tracer.pause(false);
  span.items(slice.trace.size());
  slice.oracle.check(r.results.data(), verdicts);
  if (warm) return;
  p.mpps_mt.add(static_cast<double>(slice.trace.size()) / r.seconds / 1e6);
}

/// Alternates blocks of single-thread and of parallel passes over
/// successive slices for `budget_s` seconds; each block lasts kBlock, so
/// both kinds sample the whole window whatever their pass length. The
/// first pass of a block only warms: a single-thread pass right after
/// parallel ones over the shared flow cache finds the cache's lines in
/// the other cores' caches. Parallel blocks are warmed the same way.
/// The host probe runs after each block and stamps it; the next block's
/// warm pass also refills what the probe evicted.
void measure(const Classifier& cls, const std::vector<Slice>& slices,
             double budget_s, const char* layer, Tracer& tracer, Passes& p,
             Verdicts& verdicts, HostProbe& host) {
  constexpr double kBlock = 0.25;
  const auto since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };
  const auto start = Clock::now();
  do {
    for (const bool single : {true, false}) {
      const auto block = Clock::now();
      for (bool warm = true;; warm = false) {
        const Slice& slice = slices[p.cursor++ % slices.size()];
        if (single) {
          st_pass(cls, slice, layer, warm, tracer, p, verdicts);
        } else {
          mt_pass(cls, slice, warm, tracer, p, verdicts);
        }
        if (!warm && since(block) >= kBlock) break;
      }
      p.stamp(host.sample());
    }
  } while (since(start) < budget_s);
}

// ---------------------------------------------------- per-layer probes

/// Per-level walk cost without a PMU: bucket packets by their walk depth
/// (FlatImage::lookup_explained), time classify_batch on single-depth
/// batches and fit ns/packet = a + b * depth.
void depth_fit(const expcuts::ExpCutsClassifier& ec,
               const std::vector<PacketHeader>& pkts, Tracer& tracer,
               Report& rep) {
  Scope span(tracer, "probe.depth_fit");
  std::vector<std::vector<PacketHeader>> by_depth;
  std::vector<expcuts::ExplainStep> steps;
  const std::size_t n = std::min<std::size_t>(pkts.size(), 1u << 18);
  for (std::size_t i = 0; i < n; ++i) {
    ec.flat().lookup_explained(pkts[i], ec.schedule(), steps);
    if (by_depth.size() <= steps.size()) by_depth.resize(steps.size() + 1);
    by_depth[steps.size()].push_back(pkts[i]);
  }
  std::vector<double> xs, ys;
  std::vector<RuleId> out(kBatch);
  for (std::size_t d = 0; d < by_depth.size(); ++d) {
    const std::vector<PacketHeader>& group = by_depth[d];
    if (group.size() < 4 * kBatch) continue;
    const std::size_t usable = group.size() / kBatch * kBatch;
    std::vector<double> ns_per_pkt;
    for (int rep_i = 0; rep_i < 5; ++rep_i) {
      const i64 t0 = now_ns();
      for (std::size_t b = 0; b < usable; b += kBatch) {
        ec.classify_batch(group.data() + b, out.data(), kBatch);
      }
      ns_per_pkt.push_back(static_cast<double>(now_ns() - t0) /
                           static_cast<double>(usable));
    }
    xs.push_back(static_cast<double>(d));
    ys.push_back(median(ns_per_pkt));
  }
  double a = std::nan(""), b = std::nan(""), resid = std::nan("");
  if (xs.size() >= 2) {
    const double k = static_cast<double>(xs.size());
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      sx += xs[i];
      sy += ys[i];
      sxx += xs[i] * xs[i];
      sxy += xs[i] * ys[i];
    }
    b = (k * sxy - sx * sy) / (k * sxx - sx * sx);
    a = (sy - b * sx) / k;
    double ss = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double r = ys[i] - (a + b * xs[i]);
      ss += r * r;
    }
    resid = std::sqrt(ss / k);
  }
  rep.run_time("walk_ns_fixed", a, "ns");
  rep.run_time("walk_ns_per_level", b, "ns");
  rep.run_time("walk_fit_residual_ns", resid, "ns");
  rep.note("walk_fit_depths", static_cast<double>(xs.size()));
}

/// A flow cache in front of `inner`, replayed twice over a window of
/// the trace that fits in it (the first pass fills it, untraced): the
/// hit rate of the second pass, 1 unless the cache drops entries it has
/// room for, and the cache's own time per packet on that pass, the
/// stack's span minus its inner walker's.
void cache_probe(const Classifier& inner,
                 const std::vector<PacketHeader>& trace, Tracer& tracer,
                 Report& rep) {
  const std::vector<PacketHeader> pkts(
      trace.begin(),
      trace.begin() + std::min(trace.size(), kFlowCacheEntries));
  const SpannedClassifier spanned(inner, tracer, "probe.cache_inner");
  CachedClassifier cached(spanned, kFlowCacheEntries);
  std::vector<RuleId> out(pkts.size());
  for (int pass = 0; pass < 2; ++pass) {
    tracer.pause(pass == 0);
    cached.reset_stats();
    for (std::size_t b = 0; b < pkts.size(); b += kBatch) {
      const std::size_t n = std::min(kBatch, pkts.size() - b);
      Scope s(tracer, "probe.cache_stack");
      cached.classify_batch(pkts.data() + b, out.data() + b, n);
      s.items(n);
    }
  }
  tracer.pause(false);
  const Tracer::Total stack = tracer.total("probe.cache_stack");
  const Tracer::Total walk = tracer.total("probe.cache_inner");
  rep.metric("cache_hit_rate", cached.cache_stats().hit_rate(), "ratio");
  rep.run_time("cache_ns_per_pkt",
               (stack.ns - walk.ns) / static_cast<double>(stack.items), "ns");
}

/// Median latency of classify_parallel on a one-batch trace minus that of
/// classify_batch on the same batch: the per-call pool set-up cost.
double pool_call_us(const Classifier& cls,
                    const std::vector<PacketHeader>& pkts) {
  const std::vector<PacketHeader> one(pkts.begin(), pkts.begin() + kBatch);
  const Trace trace(one);
  std::vector<RuleId> out(kBatch);
  std::vector<double> par_us, batch_us;
  for (int i = 0; i < 200; ++i) {
    i64 t0 = now_ns();
    const ParallelRunResult r =
        classify_parallel(cls, trace, reader_threads(), kBatch);
    par_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    t0 = now_ns();
    cls.classify_batch(one.data(), out.data(), kBatch);
    batch_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return median(par_us) - median(batch_us);
}

// ------------------------------------------------------ live updates

/// The control plane of one run: a seeded stream alternating inserts
/// (drawn from a separate rule pool) with erases, never of the trailing
/// default rule.
class UpdateStream {
 public:
  UpdateStream(RuleSet pool, u64 seed) : pool_(std::move(pool)), rng_(seed) {}

  /// Applies the next update; returns true for an insert.
  bool apply(expcuts::DynamicExpCutsClassifier& dyn) {
    const std::size_t size = dyn.rules().size();
    const bool insert = applied_++ % 2 == 0;
    if (insert) {
      const Rule& r = pool_[static_cast<RuleId>(applied_ / 2 % pool_.size())];
      dyn.insert(r, rng_.next_below(size));  // ahead of the default
    } else {
      dyn.erase(rng_.next_below(size - 1));
    }
    return insert;
  }

 private:
  RuleSet pool_;
  Rng rng_;
  u64 applied_ = 0;
};

/// Rules to insert: a scalegen set of the workload's profile generated
/// from the run's seed, apart from the workload's fixed tier.
RuleSet update_pool(workload::ScaleProfile profile, std::size_t count,
                    u64 seed) {
  workload::ScaleGenConfig gen;
  gen.profile = profile;
  gen.rule_count = count;
  gen.seed = seed + 0x5eed;
  gen.with_default = false;
  return workload::generate_scale_ruleset(gen);
}

struct UpdateLog {
  Series insert_us, erase_us;         // calls that did not rebuild
  std::vector<double> rebuild_s;      // calls that did
  std::vector<std::pair<i64, i64>> rebuild_windows;  // phase B only
  std::vector<double> read_stall_ms;
  Passes phase_a;
  u64 tombstone_fallbacks = 0;

  void stamp(double speed) {
    insert_us.stamp(speed);
    erase_us.stamp(speed);
    phase_a.stamp(speed);
  }
};

/// One timed update; files its latency under insert/erase or rebuild.
void timed_update(expcuts::DynamicExpCutsClassifier& dyn, UpdateStream& stream,
                  Tracer& tracer, UpdateLog& log, bool phase_b) {
  const u32 before = dyn.rebuild_count();
  Scope span(tracer, "dynamic.update");
  const i64 t0 = now_ns();
  const bool insert = stream.apply(dyn);
  const i64 t1 = now_ns();
  span.items(1);
  if (dyn.rebuild_count() != before) {
    log.rebuild_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    if (phase_b) log.rebuild_windows.emplace_back(t0, t1);
  } else {
    (insert ? log.insert_us : log.erase_us)
        .add(static_cast<double>(t1 - t0) / 1e3);
  }
}

/// Phase A (one thread): after each update, classify kBatchesPerUpdate
/// batches, timed, and check a sample of them against linear search over
/// a copy of the live rules; then stamp the update and its reads with
/// the memory probe. Stops once `done()` says so.
void phase_a(expcuts::DynamicExpCutsClassifier& dyn, UpdateStream& stream,
             const std::vector<PacketHeader>& pkts,
             const std::function<bool(const UpdateLog&)>& done,
             Tracer& tracer, UpdateLog& log, Verdicts& verdicts,
             HostProbe& host) {
  const std::size_t span_pkts = kBatchesPerUpdate * kBatch;
  std::vector<RuleId> out(span_pkts);
  std::vector<std::size_t> positions(kUpdateSample);
  for (std::size_t k = 0; k < kUpdateSample; ++k) {
    positions[k] = k * (span_pkts / kUpdateSample);
  }
  const metrics::Registry& reg = metrics::Registry::global();
  const u64 fallbacks0 = reg.snapshot().counter("dynamic.tombstone_fallbacks");
  std::size_t cursor = 0;
  while (!done(log)) {
    timed_update(dyn, stream, tracer, log, false);
    if (cursor + span_pkts > pkts.size()) cursor = 0;
    const PacketHeader* h = pkts.data() + cursor;
    cursor += span_pkts;
    const RuleSet view = dyn.rules();
    std::vector<PacketHeader> window(h, h + span_pkts);
    const Oracle oracle(view, window, positions);
    tracer.next_pass();
    Scope pass(tracer, "pass");
    i64 busy = 0;
    for (std::size_t b = 0; b < span_pkts; b += kBatch) {
      const i64 t0 = now_ns();
      dyn.classify_batch(h + b, out.data() + b, kBatch);
      const i64 t1 = now_ns();
      tracer.record("dynamic.classify_batch", t0, t1, kBatch);
      busy += t1 - t0;
      log.phase_a.call_us.add(static_cast<double>(t1 - t0) / 1e3);
    }
    pass.items(span_pkts);
    log.phase_a.mpps.add(static_cast<double>(span_pkts) * 1e3 /
                         static_cast<double>(busy));
    oracle.check(out.data(), verdicts);
    log.stamp(host.sample());
  }
  log.tombstone_fallbacks +=
      reg.snapshot().counter("dynamic.tombstone_fallbacks") - fallbacks0;
}

/// Phase B: one reader thread classifies batches in a closed loop while
/// the writer applies updates, pausing kUpdatePause after each returns.
/// read_stall for a rebuild = the longest reader batch overlapping it.
void phase_b(expcuts::DynamicExpCutsClassifier& dyn, UpdateStream& stream,
             const std::vector<PacketHeader>& pkts,
             const std::function<bool(const UpdateLog&)>& done,
             Tracer& tracer, UpdateLog& log) {
  struct Call {
    i64 t0, t1;
  };
  std::vector<Call> calls;
  calls.reserve(1u << 16);
  {
    // The jthread's destructor requests stop and joins, on every path.
    std::jthread reader([&](const std::stop_token& stop) {
      std::vector<RuleId> out(kBatch);
      std::size_t cursor = 0;
      while (!stop.stop_requested()) {
        if (cursor + kBatch > pkts.size()) cursor = 0;
        const i64 t0 = now_ns();
        dyn.classify_batch(pkts.data() + cursor, out.data(), kBatch);
        calls.push_back({t0, now_ns()});
        cursor += kBatch;
      }
    });
    Scope span(tracer, "phase_b");
    while (!done(log)) {
      timed_update(dyn, stream, tracer, log, true);
      std::this_thread::sleep_for(kUpdatePause);
    }
  }  // stops and joins the reader
  for (const Call& c : calls) {
    tracer.record("dynamic.reader_batch", c.t0, c.t1, kBatch);
  }
  for (const auto& [s, e] : log.rebuild_windows) {
    i64 longest = 0;
    for (const Call& c : calls) {
      if (c.t0 < e && c.t1 > s) longest = std::max(longest, c.t1 - c.t0);
    }
    log.read_stall_ms.push_back(static_cast<double>(longest) / 1e6);
  }
}

expcuts::Config dynamic_config() {
  expcuts::Config cfg;
  cfg.build_threads = reader_threads();
  cfg.verify_semantics = true;
  return cfg;
}

void report_updates(const UpdateLog& log, Report& rep) {
  const Series updates = joined(log.insert_us, log.erase_us);
  rep.median_of("update_p50_us", updates, "us");
  rep.build_time("rebuild_s", median(log.rebuild_s), "s");
  rep.build_time("read_stall_ms", median(log.read_stall_ms), "ms");
  rep.median_of("insert_us", log.insert_us, "us");
  rep.median_of("erase_us", log.erase_us, "us");
  const Series& calls = log.phase_a.call_us;
  const std::vector<double> calls_ref = calls.reference();
  const double lookups = static_cast<double>(calls.size() * kBatch);
  const auto ns_per_pkt = [&](const std::vector<double>& us) {
    return std::accumulate(us.begin(), us.end(), 0.0) * 1e3 / lookups;
  };
  rep.timing("dyn_ns_per_pkt", ns_per_pkt(calls.measured),
             ns_per_pkt(calls_ref), "ns");
  rep.metric("tombstone_fallbacks",
             static_cast<double>(log.tombstone_fallbacks) * 1e6 / lookups,
             "count");
  rep.note("updates", static_cast<double>(updates.size() +
                                          log.rebuild_s.size()));
  rep.note("rebuilds", static_cast<double>(log.rebuild_s.size()));
  rep.note("rebuilds_with_reader",
           static_cast<double>(log.read_stall_ms.size()));
}

/// Median over consecutive chunks of kLatencyChunk calls of each chunk's
/// q-quantile: a burst of host interference inflates its own chunk only.
double chunked_quantile(const std::vector<double>& call_us, double q) {
  std::vector<double> per_chunk;
  for (std::size_t b = 0; b + kLatencyChunk <= call_us.size();
       b += kLatencyChunk) {
    per_chunk.push_back(quantile(
        {call_us.begin() + b, call_us.begin() + b + kLatencyChunk}, q));
  }
  return median(per_chunk);
}

void report_latency(const Passes& log, Report& rep) {
  rep.median_of("mpps", log.mpps, "Mpps", true);
  const std::vector<double> call_ref = log.call_us.reference();
  for (const auto& [name, q] : {std::pair{"batch_p50_us", 0.50},
                                std::pair{"batch_p99_us", 0.99}}) {
    rep.timing(name, chunked_quantile(log.call_us.measured, q),
               chunked_quantile(call_ref, q), "us");
  }
  rep.note("latency_samples", static_cast<double>(log.call_us.size()));
  rep.note("passes", static_cast<double>(log.mpps.size()));
}

/// Walker-layer metrics of a traced run: the "expcuts.classify_batch"
/// spans, the level count of passes `p`, and the tracing overhead of its
/// traced against its paused passes. Returns the walker span total.
Tracer::Total report_walker(const Tracer& tracer, const Passes& p,
                            Report& rep) {
  const Tracer::Total walk = tracer.total("expcuts.classify_batch");
  rep.run_time("walk_ns_per_pkt", walk.ns / static_cast<double>(walk.items),
               "ns");
  rep.metric("levels_per_pkt",
             static_cast<double>(p.stats.levels_walked) /
                 static_cast<double>(p.stats.lookups),
             "count");
  rep.metric("trace_overhead_pct",
             100.0 * (1.0 - median(p.mpps.reference(true)) /
                                median(p.untraced.reference(true))),
             "%");
  return walk;
}

void report_tree(const expcuts::ExpCutsClassifier& ec, Report& rep) {
  const expcuts::TreeStats& st = ec.stats();
  rep.metric("image_mb", static_cast<double>(ec.flat().bytes()) / 1e6, "MB");
  rep.metric("tree_nodes", static_cast<double>(st.node_count), "count");
  rep.metric("cpa_words_per_node",
             static_cast<double>(st.cpa_words) /
                 static_cast<double>(st.node_count),
             "count");
}

double verify_seconds(const expcuts::ExpCutsClassifier& ec,
                      const RuleSet& rules, Tracer& tracer, Report& rep) {
  Scope span(tracer, "analysis.verify_flat_image");
  analysis::SemanticOptions opts;
  opts.threads = reader_threads();
  const i64 t0 = now_ns();
  const analysis::SemanticReport sem =
      analysis::verify_flat_image(ec.flat(), ec.schedule(), rules, opts);
  const double s = static_cast<double>(now_ns() - t0) / 1e9;
  if (!sem.ok()) {
    std::fprintf(stderr, "perfbench: image failed semantic verification: %s\n",
                 sem.report.summary().c_str());
    rep.image_verified = false;
  }
  return s;
}

// ---------------------------------------------- diverse-cr40k, flows-cr40k

/// The static stack of one set-up round: the walker, and for flows one
/// shared flow cache in front of it (seen through a span wrapper).
struct StaticStack {
  std::unique_ptr<expcuts::ExpCutsClassifier> ec;
  std::unique_ptr<SpannedClassifier> spanned;
  std::unique_ptr<CachedClassifier> cached;

  const Classifier& top() const {
    return cached ? static_cast<const Classifier&>(*cached) : *ec;
  }
  /// Tears down outermost first: each layer refers to the one below.
  void reset() {
    cached.reset();
    spanned.reset();
    ec.reset();
  }
};

void run_static(const Args& args, bool flows, Tracer& tracer, Report& rep) {
  const RuleSet rules = workload::generate_scale_ruleset("CR-40k");
  expcuts::Config cfg;
  cfg.build_threads = 0;
  const char* layer =
      flows ? "engine.cached_classify_batch" : "expcuts.classify_batch";

  // kSetupReps rounds: set up the stack (rules in memory -> classifier
  // ready), then alternate single-thread and parallel passes on it.
  StaticStack stack;
  std::vector<Slice> slices;
  std::vector<double> setup;
  Passes p;
  FlowCacheStats cache_total;
  for (std::size_t round = 0; round < kSetupReps; ++round) {
    if (stack.cached) {
      const FlowCacheStats st = stack.cached->cache_stats();
      cache_total.hits += st.hits;
      cache_total.misses += st.misses;
    }
    stack.reset();
    const double hwm0 = vmhwm_mb();
    {
      Scope span(tracer, "expcuts.build");
      const i64 t0 = now_ns();
      stack.ec = std::make_unique<expcuts::ExpCutsClassifier>(rules, cfg);
      setup.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    if (round == 0) {
      rep.metric("build_rss_mb", vmhwm_mb() - hwm0, "MB");
      rep.note("anon_huge_mb",
               proc_kb("/proc/self/smaps_rollup", "AnonHugePages") / 1024.0);
      // Inputs, generated from the seed once the first image is built.
      std::vector<PacketHeader> pkts;
      if (flows) {
        FlowTraceConfig fc;
        fc.flows = 200000;
        fc.packets = kTracePackets;
        fc.zipf_s = 1.1;
        fc.seed = args.seed * 7919 + 1;
        pkts = generate_flow_trace(rules, fc).packets();
      } else {
        pkts = diverse_trace(rules, kTracePackets, args.seed * 7919 + 1);
      }
      slices = make_slices(rules, pkts, kTracePackets / 4,
                           args.seed * 104729 + 3);
    }
    if (flows) {
      stack.spanned = std::make_unique<SpannedClassifier>(
          *stack.ec, tracer, "expcuts.classify_batch");
      stack.cached = std::make_unique<CachedClassifier>(*stack.spanned,
                                                        kFlowCacheEntries);
    }
    // Warm-up, untimed: page the image in, fill the flow cache.
    tracer.pause(true);
    for (const Slice& slice : slices) {
      std::vector<RuleId> out(slice.trace.size());
      stack.top().classify_batch(slice.trace.packets().data(), out.data(),
                                 slice.trace.size());
    }
    tracer.pause(false);
    if (stack.cached) stack.cached->reset_stats();
    measure(stack.top(), slices, args.seconds / kSetupReps, layer, tracer, p,
            rep.verdicts, rep.host);
  }
  rep.build_time("setup_s", median(setup), "s");
  rep.build_time("build_s", median(setup), "s");
  report_tree(*stack.ec, rep);
  report_latency(p, rep);
  rep.median_of("mpps_mt", p.mpps_mt, "Mpps", true);
  rep.note("passes_mt", static_cast<double>(p.mpps_mt.size()));

  if (args.trace) {
    const Tracer::Total walk = report_walker(tracer, p, rep);
    rep.metric("mt_scaling",
               median(p.mpps_mt.reference(true)) /
                   (reader_threads() * median(p.mpps.reference(true))),
               "ratio");
    tracer.pause(true);
    rep.run_time("pool_call_us",
                 pool_call_us(stack.top(), slices[0].trace.packets()), "us");
    tracer.pause(false);
    if (flows) {
      const FlowCacheStats st = stack.cached->cache_stats();
      cache_total.hits += st.hits;
      cache_total.misses += st.misses;
      const Tracer::Total stk = tracer.total(layer);
      rep.metric("cache_hit_rate", cache_total.hit_rate(), "ratio");
      rep.run_time("cache_ns_per_pkt",
                   (stk.ns - walk.ns) / static_cast<double>(stk.items), "ns");
    } else {
      cache_probe(*stack.ec, slices[0].trace.packets(), tracer, rep);
    }
    depth_fit(*stack.ec, slices[0].trace.packets(), tracer, rep);
    rep.build_time("verify_s", verify_seconds(*stack.ec, rules, tracer, rep),
                   "s");
  }
  stack.reset();

  // The same rules under the live-update stack: 15 updates that land in
  // the delta, then the one that rebuilds, with a reader running.
  UpdateStream stream(update_pool(workload::ScaleProfile::kCoreRouter, 256,
                                  args.seed),
                      args.seed + 11);
  expcuts::DynamicExpCutsClassifier dyn(rules, dynamic_config(),
                                        kRebuildThreshold);
  const std::vector<PacketHeader>& pkts = slices[0].trace.packets();
  UpdateLog log;
  phase_a(dyn, stream, pkts,
          [](const UpdateLog& l) {
            return l.insert_us.size() + l.erase_us.size() + 1 >=
                   kRebuildThreshold;
          },
          tracer, log, rep.verdicts, rep.host);
  phase_b(dyn, stream, pkts,
          [](const UpdateLog& l) { return !l.rebuild_s.empty(); }, tracer,
          log);
  report_updates(log, rep);
}

// ----------------------------------------------------------------- main

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = val == "1";
    } else if (key == "--spans") {
      a.spans_path = val;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  Tracer tracer(args.trace);
  Report rep;
  const CpuTimes cpu0 = read_cpu_times();
  const long nivcsw0 = involuntary_switches();
  try {
    if (args.workload == "diverse-cr40k") {
      run_static(args, false, tracer, rep);
    } else if (args.workload == "flows-cr40k") {
      run_static(args, true, tracer, rep);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  rep.metric("peak_rss_mb", vmhwm_mb(), "MB");

  const CpuTimes cpu1 = read_cpu_times();
  const long nivcsw1 = involuntary_switches();
  rep.note("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  rep.note("simd", simd::name(simd::active()));
  rep.note("steal_share",
           cpu0.ok && cpu1.ok && cpu1.total > cpu0.total
               ? static_cast<double>(cpu1.steal - cpu0.steal) /
                     static_cast<double>(cpu1.total - cpu0.total)
               : std::nan(""));
  rep.note("involuntary_switches",
           nivcsw0 >= 0 && nivcsw1 >= 0
               ? static_cast<double>(nivcsw1 - nivcsw0)
               : std::nan(""));
  rep.note("host_speed", rep.host.speed());
  rep.note("probe_samples", static_cast<double>(rep.host.samples()));
  {
    // The timings as measured on this host.
    std::ostringstream os;
    os.precision(17);
    os << "{";
    const char* sep = "";
    for (const auto& [name, m] : rep.metrics) {
      if (!std::isfinite(m.measured)) continue;
      os << sep << "\"" << name << "\": " << m.measured;
      sep = ", ";
    }
    os << "}";
    rep.context["measured"] = os.str();
  }
  rep.note("verdicts_checked", static_cast<double>(rep.verdicts.checked));
  rep.note("fail_share", static_cast<double>(rep.verdicts.failed) /
                             static_cast<double>(rep.verdicts.checked));

  if (args.trace && !args.spans_path.empty()) {
    try {
      tracer.write(args.spans_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return 1;
    }
  }

  const bool correct = rep.verdicts.failed == 0 &&
                       rep.verdicts.checked > 0 && rep.image_verified;
  if (!correct) {
    std::fprintf(stderr,
                 "perfbench: VERDICT MISMATCH: %llu of %llu checked verdicts "
                 "disagree with linear search\n",
                 static_cast<unsigned long long>(rep.verdicts.failed),
                 static_cast<unsigned long long>(rep.verdicts.checked));
  }

  std::printf("{\"context\": {");
  bool first = true;
  for (const auto& [k, v] : rep.context) {
    std::printf("%s\"%s\": %s", first ? "" : ", ", k.c_str(), v.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(rep.verdicts.checked),
              static_cast<unsigned long long>(rep.verdicts.failed));
  first = true;
  for (const auto& [name, m] : rep.metrics) {
    if (!std::isfinite(m.value)) continue;  // run.py reports it missing
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

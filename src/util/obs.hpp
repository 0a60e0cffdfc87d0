#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace cryo::util::obs {

/// Flow-wide observability: named counters / gauges / histograms plus
/// scoped span tracing, all registered in a process-wide `Registry` and
/// serialized to a JSON run report (`cryoeda_out/report.json`,
/// `BENCH_*.json`). Design constraints, in order:
///
///  * thread-safe — instruments are lock-free atomics; hot paths (SPICE
///    Newton loops, mapper inner loops) touch only relaxed RMW ops;
///  * near-zero cost when disabled — every instrument first checks one
///    relaxed atomic bool (`CRYOEDA_OBS=0` or `set_enabled(false)`);
///  * deterministic reports — instrument names are sorted at dump time
///    and doubles use shortest-round-trip formatting. Counters, gauges,
///    bucket counts, and histogram min/max from a deterministic
///    workload are exactly thread-count independent; histogram sums are
///    accumulated in arrival order, so they are rounded to nine
///    significant digits at dump time to strip scheduling noise from
///    the low bits (spans and wall-clock metrics carry real timings and
///    are excluded via `ReportOptions` where determinism matters).
///
/// Hot-path usage caches the reference once (registry entries are never
/// invalidated, `reset()` only zeroes values):
///
///   static obs::Counter& runs = obs::counter("spice.transient_runs");
///   runs.add();

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Global instrumentation switch (initialized from CRYOEDA_OBS; any
/// value other than "0" — including unset — enables).
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// What a metric measures. Wall-clock metrics vary run to run and are
/// excluded from deterministic reports; everything else (event counts,
/// circuit-time figures like delays/slacks) is workload-determined.
/// `kNodes` marks network-size *diagnostics* (per-pass AND/LUT/gate
/// counts): deterministic, but they measure work shape — which
/// legitimately differs between recipes and between cold and warm
/// artifact-cache runs — so the signoff profile excludes them like it
/// excludes counters.
enum class Unit { kCount, kSeconds, kWallSeconds, kBytes, kNodes };

/// Monotonic event counter.
class Counter {
public:
  void add(std::uint64_t n = 1) {
    if (enabled()) {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  std::uint64_t get() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written double value (set) with an atomic max variant.
class Gauge {
public:
  void set(double v) {
    if (enabled()) {
      value_.store(v, std::memory_order_relaxed);
    }
  }
  /// Keep the maximum of all observed values.
  void max(double v);
  double get() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> value_{0.0};
};

/// Power-of-two-bucketed histogram of positive doubles, with exact
/// count and CAS-maintained sum / min / max. Covers 2^-44 (~6e-14, well
/// under a picosecond) through 2^50 (~1e15); out-of-range and
/// non-positive values land in the edge buckets. Bucket upper bounds are
/// exact powers of two, so bucket assignment never depends on rounding.
class Histogram {
public:
  static constexpr int kBuckets = 96;
  static constexpr int kMinExponent = -44;  ///< bucket 1 is v <= 2^-44

  void record(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const { return min_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Upper bound of bucket `i` (bucket 0 holds v <= 0).
  static double bucket_le(int i);

  void reset();

private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// One finished span: [start_ns, end_ns] on the registry's monotonic
/// clock, with the lexical parent span (same thread) and a small
/// sequential thread id. Spans that cross a `parallel_for` boundary get
/// parent 0 on the worker threads — parentage is per-thread lexical
/// scope, not task lineage.
struct SpanRecord {
  std::string name;
  std::uint32_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint32_t parent = 0;
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// RAII span: records start/stop timestamps, nesting, and the thread it
/// ran on. A disabled registry makes construction/destruction a couple
/// of branches.
class ScopedSpan {
public:
  explicit ScopedSpan(std::string name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  bool active_ = false;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  std::int64_t start_ns_ = 0;  ///< raw steady-clock time, not epoch-relative
  std::string name_;
};

/// Look up (or create) an instrument by name. References stay valid for
/// the process lifetime; `reset()` zeroes values without invalidating
/// them. Units are fixed by the first registration.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name, Unit unit = Unit::kCount);
Histogram& histogram(std::string_view name, Unit unit = Unit::kCount);

/// Zero every instrument and drop recorded spans (also restarts the
/// span clock). Call between independent runs sharing a process (tests).
void reset();

/// Report serialization knobs. The default includes everything; the
/// deterministic subset (`include_spans = include_wallclock =
/// include_meta = false`) is byte-identical across thread counts for a
/// deterministic workload.
struct ReportOptions {
  std::string flow;               ///< meta.flow tag (bench/binary name)
  bool include_spans = true;
  bool include_wallclock = true;  ///< Unit::kWallSeconds metrics + wall_s
  bool include_meta = true;
  bool include_counters = true;
  bool include_histograms = true;
  bool include_diagnostics = true;  ///< Unit::kNodes work-shape gauges
  /// `degradation` section: the nonzero robustness counters
  /// (`pass.*.degraded`, `cache.retries`, `cache.quarantined`,
  /// `fleet.scenario_errors`) collected in one place, so a degraded run
  /// is visible at a glance. Omitted entirely when all are zero.
  bool include_degradation = true;

  /// The signoff profile: only the quality gauges (schema + non-wall
  /// gauges). This is what the canonical `report.json` uses — counters
  /// and histograms measure *work done*, which legitimately differs
  /// between a cold run and a warm `util::ArtifactCache` run, while the
  /// signoff gauges describe the *result* and must not. A warm rerun's
  /// signoff report is byte-identical to the cold run's.
  static ReportOptions signoff() {
    ReportOptions options;
    options.include_spans = false;
    options.include_wallclock = false;
    options.include_meta = false;
    options.include_counters = false;
    options.include_histograms = false;
    options.include_diagnostics = false;
    // Degradation counters measure *work shape* (a degraded run differs
    // from a clean one by construction), so they would break the warm ==
    // cold byte-identity contract of the signoff report.
    options.include_degradation = false;
    return options;
  }
};

/// Build the run report: {schema, meta?, counters, gauges, histograms,
/// spans?} with instrument names sorted lexicographically.
Json report_json(const ReportOptions& options = {});

/// Serialize `report_json` (pretty-printed) to `path`; creates parent
/// directories. Throws std::runtime_error when the file cannot be
/// written.
void write_report(const std::string& path, const ReportOptions& options = {});

}  // namespace cryo::util::obs

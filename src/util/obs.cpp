#include "util/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

namespace cryo::util::obs {

namespace detail {

namespace {
bool enabled_from_env() {
  const char* env = std::getenv("CRYOEDA_OBS");
  return env == nullptr || std::string_view{env} != "0";
}
}  // namespace

std::atomic<bool> g_enabled{enabled_from_env()};

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

namespace {

void atomic_add(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur && !target.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

/// Histogram sums are accumulated by CAS in whatever order the threads
/// arrive, so the low-order bits depend on scheduling. Rounding to nine
/// significant digits at dump time keeps reports thread-count
/// independent for any realistically conditioned sum while losing
/// nothing anyone gates on (the regression tolerance is percent-level).
double round_sum(double v) {
  if (v == 0.0 || !std::isfinite(v)) {
    return v;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return std::strtod(buf, nullptr);
}

const char* unit_name(Unit unit) {
  switch (unit) {
    case Unit::kCount: return "count";
    case Unit::kSeconds: return "s";
    case Unit::kWallSeconds: return "wall_s";
    case Unit::kBytes: return "bytes";
    case Unit::kNodes: return "nodes";
  }
  return "count";
}

}  // namespace

void Gauge::max(double v) {
  if (enabled()) {
    atomic_max(value_, v);
  }
}

void Histogram::record(double v) {
  if (!enabled() || std::isnan(v)) {
    return;
  }
  int index = 0;
  if (v > 0.0) {
    int exp = 0;
    const double m = std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
    if (m == 0.5) {
      --exp;  // exact power of two: keep v <= 2^exp tight
    }
    index = std::clamp(exp - kMinExponent + 1, 1, kBuckets - 1);
  }
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  atomic_min(min_, v);
  atomic_max(max_, v);
}

double Histogram::bucket_le(int i) {
  return i == 0 ? 0.0 : std::ldexp(1.0, kMinExponent + i - 1);
}

void Histogram::reset() {
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

// ---------------------------------------------------------- registry ----

namespace {

// `unit` is atomic because registration happens on worker threads
// (cells::characterize registers histograms inside parallel_map), so a
// first registration can race another thread's registration or a
// concurrent report dump after `lookup` has dropped the registry lock.
struct GaugeEntry {
  Gauge gauge;
  std::atomic<Unit> unit{Unit::kCount};
};

struct HistogramEntry {
  Histogram histogram;
  std::atomic<Unit> unit{Unit::kCount};
};

class Registry {
public:
  static Registry& instance() {
    static Registry reg;
    return reg;
  }

  Counter& counter(std::string_view name) {
    return lookup(counters_, name);
  }
  GaugeEntry& gauge(std::string_view name, Unit unit) {
    GaugeEntry& entry = lookup(gauges_, name);
    return fix_unit(entry, unit);
  }
  HistogramEntry& histogram(std::string_view name, Unit unit) {
    HistogramEntry& entry = lookup(histograms_, name);
    return fix_unit(entry, unit);
  }

  std::int64_t epoch_ns() const {
    return epoch_ns_.load(std::memory_order_relaxed);
  }
  std::int64_t now_ns() const { return steady_ns() - epoch_ns(); }

  static std::int64_t steady_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::uint32_t alloc_span_id() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint32_t thread_id() {
    thread_local std::uint32_t id =
        next_thread_id_.fetch_add(1, std::memory_order_relaxed);
    return id;
  }

  void add_span(SpanRecord record) {
    const std::lock_guard<std::mutex> lock{span_mutex_};
    spans_.push_back(std::move(record));
  }

  void reset() {
    const std::unique_lock<std::shared_mutex> lock{mutex_};
    for (auto& [name, c] : counters_) {
      c.reset();
    }
    for (auto& [name, g] : gauges_) {
      g.gauge.reset();
    }
    for (auto& [name, h] : histograms_) {
      h.histogram.reset();
    }
    {
      const std::lock_guard<std::mutex> span_lock{span_mutex_};
      spans_.clear();
      next_span_id_.store(1, std::memory_order_relaxed);
    }
    // Atomic: ScopedSpan reads the epoch from any thread without a
    // lock, and a reset may overlap a live span.
    epoch_ns_.store(steady_ns(), std::memory_order_relaxed);
  }

  Json to_json(const ReportOptions& options) const {
    Json report = Json::object();
    report["schema"] = Json{"cryoeda-report-v1"};
    if (options.include_meta) {
      Json meta = Json::object();
      if (!options.flow.empty()) {
        meta["flow"] = Json{options.flow};
      }
      meta["threads"] = Json{resolve_threads(0)};
      meta["wall_s"] = Json{static_cast<double>(now_ns()) * 1e-9};
      meta["unix_ms"] =
          Json{std::chrono::duration_cast<std::chrono::milliseconds>(
                   std::chrono::system_clock::now().time_since_epoch())
                   .count()};
      report["meta"] = std::move(meta);
    }

    const std::shared_lock<std::shared_mutex> lock{mutex_};
    if (options.include_counters) {
      Json counters = Json::object();
      for (const auto& [name, c] : counters_) {
        counters[name] = Json{c.get()};
      }
      report["counters"] = std::move(counters);
    }

    if (options.include_degradation) {
      // Nonzero robustness counters in one section: which passes
      // degraded, how often the cache retried or quarantined, and how
      // many fleet scenarios failed. Absent entirely on a clean run.
      Json degradation = Json::object();
      for (const auto& [name, c] : counters_) {
        const bool relevant =
            (name.size() > 9 &&
             name.compare(name.size() - 9, 9, ".degraded") == 0) ||
            name == "cache.retries" || name == "cache.quarantined" ||
            name == "cache.degraded_skips" || name == "fleet.scenario_errors";
        if (relevant && c.get() != 0) {
          degradation[name] = Json{c.get()};
        }
      }
      if (!degradation.members().empty()) {
        report["degradation"] = std::move(degradation);
      }
    }

    Json gauges = Json::object();
    for (const auto& [name, g] : gauges_) {
      const Unit unit = g.unit.load(std::memory_order_relaxed);
      if (unit == Unit::kWallSeconds && !options.include_wallclock) {
        continue;
      }
      if (unit == Unit::kNodes && !options.include_diagnostics) {
        continue;
      }
      gauges[name] = Json{g.gauge.get()};
    }
    report["gauges"] = std::move(gauges);

    if (options.include_histograms) {
      Json histograms = Json::object();
      for (const auto& [name, h] : histograms_) {
        const Unit unit = h.unit.load(std::memory_order_relaxed);
        if (unit == Unit::kWallSeconds && !options.include_wallclock) {
          continue;
        }
        if (unit == Unit::kNodes && !options.include_diagnostics) {
          continue;
        }
        const auto& hist = h.histogram;
        Json entry = Json::object();
        entry["unit"] = Json{unit_name(unit)};
        const std::uint64_t n = hist.count();
        entry["count"] = Json{n};
        entry["sum"] = Json{n > 0 ? round_sum(hist.sum()) : 0.0};
        entry["min"] = Json{n > 0 ? hist.min() : 0.0};
        entry["max"] = Json{n > 0 ? hist.max() : 0.0};
        Json buckets = Json::array();
        for (int i = 0; i < Histogram::kBuckets; ++i) {
          if (hist.bucket(i) > 0) {
            Json pair = Json::array();
            pair.push_back(Json{Histogram::bucket_le(i)});
            pair.push_back(Json{hist.bucket(i)});
            buckets.push_back(std::move(pair));
          }
        }
        entry["buckets"] = std::move(buckets);
        histograms[name] = std::move(entry);
      }
      report["histograms"] = std::move(histograms);
    }

    if (options.include_spans) {
      std::vector<SpanRecord> spans;
      {
        const std::lock_guard<std::mutex> span_lock{span_mutex_};
        spans = spans_;
      }
      std::sort(spans.begin(), spans.end(),
                [](const SpanRecord& a, const SpanRecord& b) {
                  return a.id < b.id;
                });
      Json arr = Json::array();
      for (const auto& s : spans) {
        Json span = Json::object();
        span["name"] = Json{s.name};
        span["id"] = Json{s.id};
        span["parent"] = Json{s.parent};
        span["thread"] = Json{s.thread};
        span["start_ns"] = Json{s.start_ns};
        span["dur_ns"] = Json{s.end_ns - s.start_ns};
        arr.push_back(std::move(span));
      }
      report["spans"] = std::move(arr);
    }
    return report;
  }

private:
  Registry() : epoch_ns_{steady_ns()} {}

  /// Find-or-create with a double-checked shared/unique lock. std::map
  /// nodes are address-stable, so returned references survive later
  /// insertions (and `reset`, which only zeroes values).
  template <typename M>
  typename M::mapped_type& lookup(M& entries, std::string_view name) {
    {
      const std::shared_lock<std::shared_mutex> lock{mutex_};
      const auto it = entries.find(name);
      if (it != entries.end()) {
        return it->second;
      }
    }
    const std::unique_lock<std::shared_mutex> lock{mutex_};
    return entries.try_emplace(std::string{name}).first->second;
  }

  template <typename E>
  E& fix_unit(E& entry, Unit unit) {
    // First registration fixes the unit; later callers must agree (a
    // kCount default from a stray lookup is upgraded silently). CAS so
    // concurrent first registrations settle on one writer.
    if (unit != Unit::kCount) {
      Unit expected = Unit::kCount;
      entry.unit.compare_exchange_strong(expected, unit,
                                         std::memory_order_relaxed);
    }
    return entry;
  }

  mutable std::shared_mutex mutex_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, GaugeEntry, std::less<>> gauges_;
  std::map<std::string, HistogramEntry, std::less<>> histograms_;

  mutable std::mutex span_mutex_;
  std::vector<SpanRecord> spans_;
  std::atomic<std::uint32_t> next_span_id_{1};
  std::atomic<std::uint32_t> next_thread_id_{1};
  std::atomic<std::int64_t> epoch_ns_;
};

thread_local std::uint32_t t_current_span = 0;

}  // namespace

// ------------------------------------------------------------- spans ----

ScopedSpan::ScopedSpan(std::string name) {
  if (!enabled()) {
    return;
  }
  auto& reg = Registry::instance();
  active_ = true;
  name_ = std::move(name);
  id_ = reg.alloc_span_id();
  parent_ = t_current_span;
  t_current_span = id_;
  start_ns_ = Registry::steady_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) {
    return;
  }
  auto& reg = Registry::instance();
  t_current_span = parent_;
  // Both ends against one epoch read: a reset() while the span was live
  // moves its start before 0 but never makes its duration negative.
  const std::int64_t epoch = reg.epoch_ns();
  reg.add_span(SpanRecord{std::move(name_), id_, parent_, reg.thread_id(),
                          start_ns_ - epoch, Registry::steady_ns() - epoch});
}

// --------------------------------------------------------- free API -----

Counter& counter(std::string_view name) {
  return Registry::instance().counter(name);
}

Gauge& gauge(std::string_view name, Unit unit) {
  return Registry::instance().gauge(name, unit).gauge;
}

Histogram& histogram(std::string_view name, Unit unit) {
  return Registry::instance().histogram(name, unit).histogram;
}

void reset() { Registry::instance().reset(); }

Json report_json(const ReportOptions& options) {
  return Registry::instance().to_json(options);
}

void write_report(const std::string& path, const ReportOptions& options) {
  const std::filesystem::path p{path};
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  std::ofstream out{p};
  if (!out) {
    throw std::runtime_error{"obs::write_report: cannot open " + path};
  }
  out << report_json(options).dump(2) << '\n';
  if (!out) {
    throw std::runtime_error{"obs::write_report: write failed for " + path};
  }
}

}  // namespace cryo::util::obs

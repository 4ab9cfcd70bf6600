#pragma once
// magic::obs — process-wide observability: a registry of named counters,
// gauges and histograms that every pipeline stage (asm parse -> CFG -> ACFG
// -> DGCNN train/serve) records into, exported as one JSON snapshot.
//
// Cost model (the "no sink attached" contract):
//   * Handles are lock-cheap: Counter::add / Gauge::set are one relaxed
//     atomic op; HistogramCell::record takes a per-cell mutex (events that
//     reach a histogram are per-batch / per-verdict / per-epoch, never
//     per-element of a hot loop).
//   * Registry lookups (counter()/gauge()/histogram()) take the registry
//     mutex and should be done once and cached; the returned references
//     stay valid for the registry's lifetime (reset() zeroes values but
//     never invalidates handles).
//   * Tracing (obs::Span, trainer phase timers) is additionally gated on a
//     process-wide enabled() flag — one relaxed atomic load, no clock read,
//     no allocation when disabled — and compiles away entirely when
//     MAGIC_OBS_BUILD is not defined (same discipline as
//     MAGIC_CHECKED_BUILD; CMake option MAGIC_OBS, default ON).
//
// Numeric output: snapshot_json() renders non-finite doubles as 0 so the
// snapshot is always valid JSON.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "util/histogram.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace magic::obs {

/// Process-wide switch for the *tracing* layer (spans, phase timers and the
/// global twin of every MirroredCounter). Metric handles themselves always
/// work; this flag only gates the instrumentation that would otherwise read
/// clocks on hot paths. Default: disabled.
void set_enabled(bool on) noexcept;
bool enabled() noexcept;

/// Monotonically increasing event count (relaxed atomic).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A component's own Counter plus its process-wide twin, the counter of the
/// same name in MetricsRegistry::global(). The local value is always exact
/// (one server's stats, one cache, one registry); the twin accumulates
/// across instances and is bumped only while enabled().
class MirroredCounter {
 public:
  explicit MirroredCounter(std::string_view global_name);

  void add(std::uint64_t n = 1) noexcept {
    local_.add(n);
    if (enabled()) global_.add(n);
  }
  std::uint64_t value() const noexcept { return local_.value(); }

 private:
  Counter local_;
  Counter& global_;
};

/// Last-written scalar (relaxed atomic double).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Thread-safe wrapper over util::Histogram (log-bucketed quantiles).
/// The cell mutex is a leaf lock: record()/snapshot() never acquire any
/// other capability while holding it.
class HistogramCell {
 public:
  void record(double value) MAGIC_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    histogram_.record(value);
  }
  /// Consistent copy of the underlying histogram.
  util::Histogram snapshot() const MAGIC_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return histogram_;
  }
  void reset() MAGIC_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    histogram_.reset();
  }

 private:
  mutable util::Mutex mutex_;
  util::Histogram histogram_ MAGIC_GUARDED_BY(mutex_);
};

/// Named metric registry. Lookup creates on first use; names are free-form
/// dotted paths ("train.epoch.forward_ms"). Thread-safe; handle references
/// remain valid for the registry's lifetime.
class MetricsRegistry {
 public:
  /// The process-wide registry every built-in instrumentation site uses.
  static MetricsRegistry& global();

  Counter& counter(std::string_view name) MAGIC_EXCLUDES(mutex_);
  Gauge& gauge(std::string_view name) MAGIC_EXCLUDES(mutex_);
  HistogramCell& histogram(std::string_view name) MAGIC_EXCLUDES(mutex_);

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{name:
  /// {"count","sum","mean","min","max","p50","p95","p99"}}}. Keys sorted.
  std::string snapshot_json() const MAGIC_EXCLUDES(mutex_);

  /// Zeroes every registered metric. Handles stay valid (tests and
  /// long-lived daemons rely on this; nothing is deallocated).
  void reset_values() MAGIC_EXCLUDES(mutex_);

 private:
  mutable util::Mutex mutex_;
  // std::map: node-based, so mapped references are stable across inserts.
  // The registry mutex orders map mutation only; the *cells* handed out are
  // internally synchronized, which is why returning plain references out of
  // the locked scope is sound.
  std::map<std::string, Counter, std::less<>> counters_ MAGIC_GUARDED_BY(mutex_);
  std::map<std::string, Gauge, std::less<>> gauges_ MAGIC_GUARDED_BY(mutex_);
  std::map<std::string, HistogramCell, std::less<>> histograms_ MAGIC_GUARDED_BY(mutex_);
};

}  // namespace magic::obs

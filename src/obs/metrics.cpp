#include "obs/metrics.hpp"

#include <cmath>
#include <sstream>

namespace magic::obs {
namespace {

std::atomic<bool> g_enabled{false};

/// Renders a double as JSON: finite values verbatim (max_digits10 is
/// overkill for metrics; 12 significant digits keep snapshots readable),
/// non-finite values as 0 so the snapshot always parses.
void put_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  os.precision(12);
  os << v;
}

void put_key(std::ostream& os, const std::string& name) {
  // Metric names are code-chosen dotted identifiers; escape the two
  // characters that could break the JSON string just in case.
  os << '"';
  for (char c : name) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << "\":";
}

}  // namespace

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

MirroredCounter::MirroredCounter(std::string_view global_name)
    : global_(MetricsRegistry::global().counter(global_name)) {}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  util::MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  util::MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

HistogramCell& MetricsRegistry::histogram(std::string_view name) {
  util::MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

std::string MetricsRegistry::snapshot_json() const {
  // The registry mutex is held across the walk; cell mutexes are leaf
  // locks (never held while acquiring the registry mutex), so recording
  // threads block at most for one cell copy.
  util::MutexLock lock(mutex_);
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, cell] : counters_) {
    if (!first) os << ',';
    first = false;
    put_key(os, name);
    os << cell.value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, cell] : gauges_) {
    if (!first) os << ',';
    first = false;
    put_key(os, name);
    put_number(os, cell.value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, cell] : histograms_) {
    if (!first) os << ',';
    first = false;
    put_key(os, name);
    const util::Histogram h = cell.snapshot();
    os << "{\"count\":" << h.count() << ",\"sum\":";
    put_number(os, h.sum());
    os << ",\"mean\":";
    put_number(os, h.mean());
    os << ",\"min\":";
    put_number(os, h.min());
    os << ",\"max\":";
    put_number(os, h.max());
    os << ",\"p50\":";
    put_number(os, h.quantile(0.50));
    os << ",\"p95\":";
    put_number(os, h.quantile(0.95));
    os << ",\"p99\":";
    put_number(os, h.quantile(0.99));
    os << '}';
  }
  os << "}}";
  return os.str();
}

void MetricsRegistry::reset_values() {
  util::MutexLock lock(mutex_);
  for (auto& [name, cell] : counters_) cell.reset();
  for (auto& [name, cell] : gauges_) cell.reset();
  for (auto& [name, cell] : histograms_) cell.reset();
}

}  // namespace magic::obs

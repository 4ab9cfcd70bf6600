#include "serve/stats.hpp"

#include <sstream>

#include "util/histogram.hpp"

namespace magic::serve {

double ServerStats::mean_batch_size() const noexcept {
  std::uint64_t total = 0;
  std::uint64_t weighted = 0;
  for (std::size_t s = 0; s < batch_size_counts.size(); ++s) {
    total += batch_size_counts[s];
    weighted += batch_size_counts[s] * s;
  }
  return total == 0 ? 0.0 : static_cast<double>(weighted) / static_cast<double>(total);
}

std::string ServerStats::to_json() const {
  std::ostringstream os;
  os << "{\"submitted\":" << submitted << ",\"completed\":" << completed
     << ",\"rejected_full\":" << rejected_full
     << ",\"rejected_shutdown\":" << rejected_shutdown
     << ",\"expired\":" << expired << ",\"failed\":" << failed
     << ",\"batches\":" << batches << ",\"packed_batches\":" << packed_batches
     << ",\"queue_depth\":" << queue_depth
     << ",\"workers\":" << workers << ",\"mean_batch_size\":" << mean_batch_size()
     << ",\"batch_size_counts\":[";
  // Full array including index 0: the JSON must describe exactly the
  // distribution mean_batch_size() averaged over.
  for (std::size_t s = 0; s < batch_size_counts.size(); ++s) {
    if (s > 0) os << ',';
    os << batch_size_counts[s];
  }
  os << "],\"latency_ms\":{\"p50\":" << latency_p50_ms << ",\"p95\":" << latency_p95_ms
     << ",\"p99\":" << latency_p99_ms << ",\"mean\":" << latency_mean_ms
     << ",\"max\":" << latency_max_ms << "},\"cache\":" << cache.to_json() << "}";
  return os.str();
}

std::string ReactorStats::to_json() const {
  std::ostringstream os;
  os << "{\"accepted\":" << accepted << ",\"closed\":" << closed
     << ",\"active\":" << active << ",\"requests\":" << requests
     << ",\"read_pauses\":" << read_pauses
     << ",\"write_stalls\":" << write_stalls << ",\"wakeups\":" << wakeups
     << ",\"accept_parks\":" << accept_parks << "}";
  return os.str();
}

StatsCollector::StatsCollector(std::size_t max_batch)
    : global_latency_ms_(obs::MetricsRegistry::global().histogram("serve.latency_ms")),
      batch_size_counts_(max_batch + 1, 0) {}

void StatsCollector::on_batch(std::size_t batch_size) {
  batches_.add();
  util::MutexLock lock(batch_mutex_);
  if (batch_size >= batch_size_counts_.size()) {
    batch_size_counts_.resize(batch_size + 1, 0);
  }
  ++batch_size_counts_[batch_size];
}

void StatsCollector::on_completed(double latency_ms) {
  completed_.add();
  latency_ms_.record(latency_ms);
  if (obs::enabled()) global_latency_ms_.record(latency_ms);
}

ServerStats StatsCollector::snapshot(std::size_t queue_depth,
                                     std::size_t workers) const {
  ServerStats out;
  out.submitted = submitted_.value();
  out.completed = completed_.value();
  out.rejected_full = rejected_full_.value();
  out.rejected_shutdown = rejected_shutdown_.value();
  out.expired = expired_.value();
  out.failed = failed_.value();
  out.batches = batches_.value();
  out.packed_batches = packed_batches_.value();
  out.queue_depth = queue_depth;
  out.workers = workers;
  {
    util::MutexLock lock(batch_mutex_);
    out.batch_size_counts = batch_size_counts_;
  }
  const util::Histogram latency = latency_ms_.snapshot();
  out.latency_p50_ms = latency.quantile(0.50);
  out.latency_p95_ms = latency.quantile(0.95);
  out.latency_p99_ms = latency.quantile(0.99);
  out.latency_mean_ms = latency.mean();
  out.latency_max_ms = latency.max();
  return out;
}

}  // namespace magic::serve

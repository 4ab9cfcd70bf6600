#pragma once
// Serving-side observability: counters, batch-size histogram and latency
// percentiles, exported as a consistent ServerStats snapshot (the `stats`
// wire command and the throughput bench both read it).
//
// The collector is built on the magic::obs primitives: counters are
// obs::MirroredCounter, the latency distribution is an obs::HistogramCell.
// Each InferenceServer keeps its own instances so its snapshot() is exact
// per-server; while obs::enabled() every event is additionally recorded in
// the process-wide MetricsRegistry under "serve.*" (counters accumulate
// across servers there), which is what puts serve latency quantiles into
// MetricsRegistry::snapshot_json() for `magicd stats` and `--metrics-out`.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/verdict_cache.hpp"
#include "obs/metrics.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace magic::serve {

/// Point-in-time view of an InferenceServer's counters and distributions.
struct ServerStats {
  std::uint64_t submitted = 0;        ///< all submit()/scan() entries
  std::uint64_t completed = 0;        ///< resolved Ok
  std::uint64_t rejected_full = 0;    ///< admission-control rejects
  std::uint64_t rejected_shutdown = 0;///< submitted to / queued in a draining server
  std::uint64_t expired = 0;          ///< per-request deadline passed
  std::uint64_t failed = 0;           ///< extraction/scoring error
  std::uint64_t batches = 0;          ///< micro-batches executed
  std::uint64_t packed_batches = 0;   ///< micro-batches scored as ONE packed forward
  std::size_t queue_depth = 0;        ///< requests queued right now
  std::size_t workers = 0;

  /// batch_size_counts[s] = number of micro-batches of size s. Index 0 is
  /// always 0 (a micro-batch has at least one request) but is emitted and
  /// averaged like every other slot, so to_json() and mean_batch_size()
  /// always agree on the same array.
  std::vector<std::uint64_t> batch_size_counts;

  /// Verdict-cache counters (all-zero with enabled=false when the server
  /// runs cache-less). Filled by InferenceServer::stats(), not the
  /// collector: the cache keeps its own counters.
  cache::CacheStats cache;

  /// End-to-end latency of Ok verdicts (submit -> resolution).
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_mean_ms = 0.0;
  double latency_max_ms = 0.0;

  double mean_batch_size() const noexcept;
  /// Single-line JSON rendering (the `stats` wire command's payload).
  /// Emits batch_size_counts in full, from index 0.
  std::string to_json() const;
};

/// Event-loop counters of the socket daemon's reactor (serve/reactor.hpp).
/// Owned and mutated by the loop thread only; spliced into the `stats`
/// wire payload as the "reactor" block.
struct ReactorStats {
  std::uint64_t accepted = 0;      ///< connections accepted
  std::uint64_t closed = 0;        ///< connections closed (any reason)
  std::uint64_t active = 0;        ///< open connections at snapshot time
  std::uint64_t requests = 0;      ///< scan requests dispatched to workers
  std::uint64_t read_pauses = 0;   ///< backpressure EPOLLIN pauses
  std::uint64_t write_stalls = 0;  ///< connections dropped for write stall
  std::uint64_t wakeups = 0;       ///< eventfd wakeups delivered
  std::uint64_t accept_parks = 0;  ///< listener parked on fd exhaustion

  /// Single-line JSON rendering.
  std::string to_json() const;
};

/// Thread-safe collector behind ServerStats. Counter bumps are lock-free;
/// the latency histogram and the batch-size table each take one mutex per
/// batch/verdict (amortized across the whole micro-batch).
class StatsCollector {
 public:
  explicit StatsCollector(std::size_t max_batch);

  void on_submitted() noexcept { submitted_.add(); }
  void on_rejected_full() noexcept { rejected_full_.add(); }
  void on_rejected_shutdown() noexcept { rejected_shutdown_.add(); }
  void on_expired() noexcept { expired_.add(); }
  void on_failed() noexcept { failed_.add(); }

  void on_batch(std::size_t batch_size) MAGIC_EXCLUDES(batch_mutex_);
  void on_packed_batch() noexcept { packed_batches_.add(); }
  void on_completed(double latency_ms);

  ServerStats snapshot(std::size_t queue_depth, std::size_t workers) const
      MAGIC_EXCLUDES(batch_mutex_);

 private:
  obs::MirroredCounter submitted_{"serve.submitted"};
  obs::MirroredCounter completed_{"serve.completed"};
  obs::MirroredCounter rejected_full_{"serve.rejected_full"};
  obs::MirroredCounter rejected_shutdown_{"serve.rejected_shutdown"};
  obs::MirroredCounter expired_{"serve.expired"};
  obs::MirroredCounter failed_{"serve.failed"};
  obs::MirroredCounter batches_{"serve.batches"};
  obs::MirroredCounter packed_batches_{"serve.packed_batches"};
  obs::HistogramCell latency_ms_;
  /// Process-wide twin of latency_ms_, recorded only while obs::enabled().
  obs::HistogramCell& global_latency_ms_;

  /// Guards the one piece of non-atomic state: the batch-size table (it
  /// resizes, so it cannot be a fixed array of counters). Counters and the
  /// latency HistogramCell synchronize themselves; snapshot() reads them
  /// without this mutex, which is why a snapshot is "consistent per field,
  /// not cross-field" (each counter is exact, their relative order is not
  /// pinned).
  mutable util::Mutex batch_mutex_;
  std::vector<std::uint64_t> batch_size_counts_ MAGIC_GUARDED_BY(batch_mutex_);
};

}  // namespace magic::serve

#pragma once
// InferenceServer: the long-lived, thread-safe scoring core of magic::serve.
//
// The paper's §VII deployment story ("MAGIC would be deployed on a cloud...
// users upload suspicious files... classified on demand") needs more than a
// one-shot predict(): a resident service that scores on a trained model and
// pushes every request through one bounded queue:
//
//   submit() --try_push--> BoundedQueue --pop_batch--> worker micro-batcher
//                 |                                             |
//            full? reject                  takes what is already queued,
//            (backpressure)                up to max_batch; never waits
//                                          for more
//                                                               |
//                                          deadline-expired items shed, then
//                                          ONE packed forward for the rest
//                                          on the shared const model, with
//                                          the worker's own workspace
//                                          (per-item fallback on error),
//                                          PendingVerdict resolved
//
// Inference is a const function of the weights and a caller-owned
// nn::InferenceWorkspace (DgcnnModel::forward without a tape), so every
// worker scores on the one classifier the server references; each worker
// owns one workspace for its lifetime. No model is copied.
//
// Dynamic micro-batching: a worker blocks only while the queue is empty,
// then takes every request already queued, up to `max_batch`, in one queue
// operation and scores them at once; it never waits for more to arrive.
// When idle, a lone request is scored immediately as a pack of one. Under
// load, the requests that queued while the workers were busy go out as one
// pack (queue synchronization and stats amortize across the batch).
//
// Shutdown: stop(drain=true) — the SIGTERM path — stops admission and lets
// workers finish every queued request; stop(drain=false) resolves queued
// requests as ShuttingDown immediately. Every PendingVerdict is resolved
// before stop() returns, so no waiter can hang.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "acfg/acfg.hpp"
#include "cache/verdict_cache.hpp"
#include "magic/classifier.hpp"
#include "nn/graph_conv.hpp"
#include "serve/stats.hpp"
#include "serve/verdict.hpp"
#include "util/bounded_queue.hpp"
#include "util/join_thread.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace magic::serve {

/// Tuning knobs of one InferenceServer.
struct ServeConfig {
  /// Worker threads.
  std::size_t workers = 4;
  /// Bounded request queue: submissions beyond this reject immediately.
  std::size_t queue_capacity = 256;
  /// Most requests a worker takes from the queue as one micro-batch
  /// (1 disables batching).
  std::size_t max_batch = 8;
  /// Default per-request deadline; 0 = none. A request whose deadline has
  /// passed when a worker picks it up resolves as DeadlineExpired without
  /// being scored (load shedding).
  std::chrono::milliseconds default_deadline{0};
  /// Byte budget of the content-addressed verdict cache; 0 disables it.
  /// The cache sits *ahead of* the micro-batcher: submit() hashes the ACFG
  /// and a hit resolves the handle immediately, never touching the queue
  /// or a forward pass. Misses are scored normally and inserted on Ok
  /// completion.
  std::size_t cache_bytes = 0;
  /// LRU shard count of the verdict cache (ignored when cache_bytes == 0).
  std::size_t cache_shards = 8;
};

/// Concurrent scoring service over a fitted MagicClassifier.
class InferenceServer {
 public:
  /// Starts the worker threads, which all score on `model`. The server
  /// keeps a reference: `model` must outlive the server and must not be
  /// refit while it serves. Throws std::logic_error when `model` is not
  /// fitted.
  explicit InferenceServer(const core::MagicClassifier& model,
                           ServeConfig config = {});
  /// A temporary classifier would die before the workers score on it.
  explicit InferenceServer(const core::MagicClassifier&&, ServeConfig = {}) = delete;

  /// Graceful: equivalent to stop(/*drain=*/true).
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueues one pre-extracted ACFG. Never blocks: on a full queue or a
  /// draining server the returned handle is already resolved with
  /// RejectedQueueFull / ShuttingDown. `deadline` overrides the config
  /// default (0 = no deadline).
  PendingVerdict submit(acfg::Acfg sample,
                        std::chrono::milliseconds deadline = std::chrono::milliseconds{-1});

  /// Full-pipeline variant: extracts listing -> CFG -> ACFG on the calling
  /// thread (producers parallelize extraction), then enqueues. Extraction
  /// failures resolve the handle with VerdictStatus::Error.
  PendingVerdict submit_listing(std::string_view listing,
                                std::chrono::milliseconds deadline = std::chrono::milliseconds{-1});

  /// Synchronous convenience: submit + get.
  Verdict scan(acfg::Acfg sample);
  Verdict scan_listing(std::string_view listing);

  /// Consistent stats snapshot (callable from any thread, any time).
  ServerStats stats() const;

  const std::vector<std::string>& family_names() const noexcept {
    return model_.family_names();
  }
  const ServeConfig& config() const noexcept { return config_; }

  /// Stops the server (idempotent, callable concurrently). drain=true
  /// scores everything already queued; drain=false resolves queued requests
  /// as ShuttingDown. Either way admission stops first and all outstanding
  /// PendingVerdicts are resolved before return.
  void stop(bool drain = true) MAGIC_EXCLUDES(stop_mutex_);

 private:
  using Clock = std::chrono::steady_clock;

  struct Queued {
    acfg::Acfg sample;
    Clock::time_point submitted_at{};
    Clock::time_point deadline{Clock::time_point::max()};
    std::shared_ptr<detail::VerdictSlot> slot;
    /// Content hash computed by submit() when the cache is on, so the
    /// completion path can insert without rehashing.
    cache::CacheKey cache_key{};
    bool cacheable = false;
  };

  void worker_loop();
  /// Stores an Ok prediction under the request's content hash (no-op when
  /// the cache is off or the request was not hashed).
  void cache_store(const Queued& request, const core::Prediction& prediction);
  /// Scores one flushed micro-batch with the worker's `workspace`: resolves
  /// expired requests, then scores the live ones as one pack, falling back
  /// to one pack per request when that throws.
  void execute_batch(std::vector<Queued>& batch, nn::InferenceWorkspace& workspace);
  void process(Queued& request, nn::InferenceWorkspace& workspace);
  static double elapsed_ms(Clock::time_point since);

  const core::MagicClassifier& model_;
  ServeConfig config_;
  /// Verdict cache (null when config_.cache_bytes == 0). Owned per server:
  /// verdicts are per-model, and this server's model never changes.
  std::unique_ptr<cache::VerdictCache> cache_;
  util::BoundedQueue<Queued> queue_;
  StatsCollector stats_;
  std::atomic<bool> accepting_{true};
  std::vector<util::JoinThread> workers_;
  /// stop_mutex_ only arbitrates the stop() winner; the workers themselves
  /// are stopped through queue_.close() and joined below it.
  util::Mutex stop_mutex_;
  bool stopped_ MAGIC_GUARDED_BY(stop_mutex_) = false;
};

}  // namespace magic::serve

#pragma once
// ScanService: what the magicd wire protocol (serve::Session, run by both
// front ends: the epoll reactor and the stdio loop) needs from the scoring
// backend, abstracted so the same protocol serves either a single
// InferenceServer (ServerScanService) or a full versioned ModelRegistry.
//
// A Session only ever (a) submits scan requests, (b) renders a stats
// payload, (c) forwards control commands (`reload`, `shadow`) and (d) reads
// the queue capacity that caps its owed responses; the front end (e) drains
// the service on shutdown. Keeping the surface this small is what lets the
// registry be hot-swapped underneath live connections: a front end never
// holds a model or server pointer, only PendingVerdict handles, which stay
// valid across any number of version swaps.

#include <cstddef>
#include <string>
#include <string_view>

#include "serve/server.hpp"
#include "serve/verdict.hpp"
#include "serve/wire.hpp"

namespace magic::serve {

/// Backend interface of the daemon front-ends. Implementations must be
/// safe to call from multiple threads (the reactor submits from its worker
/// pool while the stats path renders from the event loop).
class ScanService {
 public:
  virtual ~ScanService() = default;

  /// Submits one raw assembly listing for scanning. `version` is the
  /// per-request model-version override (empty = default). Never blocks on
  /// scoring: errors (including an unknown version) come back as an
  /// already-resolved handle with VerdictStatus::Error.
  virtual PendingVerdict submit_listing(std::string_view listing,
                                        const std::string& version) = 0;

  /// Full `stats` wire payload: one JSON object per call. Rendered at
  /// response-flush time so it reflects the requests ordered before it.
  virtual std::string stats_json() = 0;

  /// Executes one control command (Reload / Shadow) and returns the
  /// single-line JSON response. May block (a reload materializes a model).
  virtual std::string control(const wire::Request& request) = 0;

  /// Capacity of the bounded queue behind submit_listing. A Session keeps
  /// at most this many responses owed per stream, so a stream alone never
  /// overflows the queue with its own requests.
  virtual std::size_t queue_capacity() const = 0;

  /// Graceful shutdown: stop admission and score everything in flight.
  /// Every outstanding PendingVerdict is resolved before this returns.
  virtual void drain() = 0;
};

/// ScanService over one InferenceServer — the registry-less daemon. Version
/// overrides and control commands report errors: there is only one model
/// and it cannot change.
class ServerScanService final : public ScanService {
 public:
  explicit ServerScanService(InferenceServer& server) : server_(server) {}

  PendingVerdict submit_listing(std::string_view listing,
                                const std::string& version) override;
  std::string stats_json() override;
  std::string control(const wire::Request& request) override;
  std::size_t queue_capacity() const override {
    return server_.config().queue_capacity;
  }
  void drain() override { server_.stop(/*drain=*/true); }

 private:
  InferenceServer& server_;
};

/// Shared payload tail of every stats reply: the SIMD dispatch level the
/// math kernels run at plus the process-wide obs registry snapshot.
/// Returned as `,"simd_level":"...","obs":{...}` for splicing into a
/// surrounding JSON object.
std::string stats_payload_suffix();

/// Renders a control-command error as a single-line JSON response.
std::string control_error_line(const std::string& message);

}  // namespace magic::serve

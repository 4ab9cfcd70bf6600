#pragma once
// magicd front ends: serve the wire protocol over stdio or a Unix domain
// socket.
//
// Both run serve::Session (serve/session.hpp), the one copy of the
// protocol: framing, request kinds, ordered responses, the `reload`/
// `shadow` sequence point and the per-stream backpressure cap (the
// service's queue capacity). Both pipeline: requests are submitted to the
// ScanService as they are parsed, so micro-batching sees real concurrency,
// and each response is written as soon as it and every response before it
// are ready. A stream ends at EOF or a `quit` line, after which every
// outstanding response is still written.
//
// The stdio front end is a one-stream poll(2) loop over the input fd, the
// output fd and a WakeHub eventfd (poll, unlike epoll, accepts a regular
// file as stdin). It runs `path` reads and extraction inline and needs no
// keepalive input: a completed verdict wakes the loop. It reads no input
// while a response is unwritten, and a write error ends the stream, as a
// dropped socket does.
//
// The socket daemon is a single epoll event loop (serve/reactor.hpp): one
// thread owns every connection fd and its Session, extraction runs on a
// small worker pool, and verdict completions wake the loop through the
// same WakeHub. It accepts any number of concurrent connections and drains
// gracefully on SIGTERM/SIGINT: stop accepting, flush in-flight verdicts,
// then drain the service.
//
// Both are written against ScanService, so they serve a versioned
// ModelRegistry or a single InferenceServer (wrapped in ServerScanService)
// identically.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "serve/scan_service.hpp"

namespace magic::serve {

/// Serves one request stream (the stdio mode of magicd): requests are read
/// from `in_fd` until EOF or `quit`, responses are written to `out_fd`. The
/// fds are neither closed nor switched to non-blocking mode. Returns the
/// number of scan requests (`path`/`b64` lines) dispatched. Malformed lines
/// produce an {"id":"","status":"error",...} response instead of killing
/// the stream.
std::uint64_t serve_stream(int in_fd, int out_fd, ScanService& service);

/// Options for the socket daemon loop.
struct DaemonOptions {
  std::string socket_path;
  /// Install SIGTERM/SIGINT handlers that trigger graceful drain, and
  /// ignore SIGPIPE so a vanished client cannot kill the process.
  bool handle_signals = true;
  /// Optional external stop flag (tests); polled alongside the signal flag.
  const std::atomic<bool>* external_stop = nullptr;
  /// How long the drain waits for connections to flush their in-flight
  /// verdicts before hard-closing them (bounds shutdown latency even when
  /// a client stops reading).
  std::chrono::milliseconds drain_grace{5000};
  /// Worker threads for extraction and control commands (the event loop
  /// itself never extracts or scores). 0 = a small default.
  std::size_t io_workers = 0;
  /// A connection whose output buffer makes no write progress for this
  /// long is dropped (the peer stopped reading).
  std::chrono::milliseconds write_stall_timeout{30000};
  /// Max bytes consumed from one connection per readable pass (0 = no
  /// cap). Bounds how much raw input a fast pipelining writer can buffer
  /// ahead of parsing — the Session's backpressure cap only limits *parsed*
  /// requests — and keeps one connection from monopolizing the loop;
  /// level-triggered epoll re-delivers the event for the remainder.
  std::size_t read_chunk_bytes = 256 * 1024;
  /// Test hook: when set and true, the event loop treats its next wakeup
  /// as a fatal poll failure — exercising the teardown path that must
  /// close every connection fd before the error propagates.
  const std::atomic<bool>* inject_loop_fault = nullptr;
  /// Test hook: when set to a nonzero errno, the next accept attempt fails
  /// with it (the value is consumed) — exercising the fd-exhaustion path
  /// that parks the listener instead of spinning on a level-triggered
  /// event.
  std::atomic<int>* inject_accept_errno = nullptr;
};

/// Binds `options.socket_path` (replacing a *stale socket file* only — a
/// path occupied by any other kind of file is refused), accepts connections
/// until a stop signal, then drains and returns the total number of scan
/// requests dispatched. Throws std::runtime_error on socket setup failure or
/// a fatal event-loop error.
std::uint64_t run_unix_daemon(ScanService& service, const DaemonOptions& options);

}  // namespace magic::serve

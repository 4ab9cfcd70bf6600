#pragma once
// Epoll-based event loop for the magicd socket daemon.
//
// One reactor thread owns the listener and every connection fd, and runs
// one serve::Session per connection (serve/session.hpp), which holds the
// whole wire protocol: framing, the request kinds, ordered responses, the
// `reload`/`shadow` sequence point and the per-stream backpressure cap. The
// reactor keeps only the transport. Reads are non-blocking and feed the
// Session; its path reads, extraction and control commands run on a small
// worker pool, and verdict completions wake the loop through a WakeHub
// eventfd. The loop never extracts or scores.
//
// Transport rules, per connection:
//  - EPOLLIN is registered only while the Session takes input; a Session
//    paused by backpressure or an in-flight `reload` is woken by the hook
//    that lifts the pause, so a blocking reload never spins the loop;
//  - each readable pass consumes at most `read_chunk_bytes` of raw input,
//    so a fast pipelining writer can neither balloon the unparsed input
//    nor monopolize the loop (level-triggered epoll re-delivers the rest);
//  - a client that stops reading accumulates an output buffer; if no write
//    progress happens for `write_stall_timeout` the connection is dropped,
//    so one stuck peer can never wedge the daemon;
//  - fd exhaustion (EMFILE/ENFILE on accept) parks the listener for a tick
//    instead of letting the level-triggered event spin the loop.
//
// Shutdown: on a stop signal the listener closes, requests already in the
// kernel buffers are still read and parsed, in-flight verdicts get
// `drain_grace` to flush, stragglers are hard-closed, and finally the
// ScanService drains (resolving everything still queued). If the event loop
// itself dies (epoll failure, injected fault), every connection fd is torn
// down *before* the error propagates — a dying loop must never leave peers
// attached to a daemon that will not serve them again.

#include <cstdint>
#include <functional>
#include <vector>

#include "serve/daemon.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace magic::serve {

class ScanService;

/// Wake-up channel from worker and scoring threads into an event loop: an
/// eventfd that turns readable, plus the serials of the streams that made
/// progress. Both front ends use it (the reactor names connections by
/// serial; the stdio front end has one stream). It owns its eventfd, and
/// hooks hold it in a shared_ptr, so a completion that lands after its loop
/// is gone still pokes a live fd that nobody reads.
class WakeHub {
 public:
  /// Throws std::runtime_error when the eventfd cannot be created.
  WakeHub();
  ~WakeHub();

  WakeHub(const WakeHub&) = delete;
  WakeHub& operator=(const WakeHub&) = delete;

  /// The eventfd to poll for readability.
  int fd() const noexcept { return event_fd_; }

  /// Any thread: queue `serial` and make the eventfd readable (coalesced:
  /// one write until the next drain()).
  void notify(std::uint64_t serial) MAGIC_EXCLUDES(mutex_);

  /// Loop side: collect the queued serials and re-arm.
  std::vector<std::uint64_t> drain() MAGIC_EXCLUDES(mutex_);

 private:
  const int event_fd_;
  util::Mutex mutex_;
  bool signaled_ MAGIC_GUARDED_BY(mutex_) = false;
  std::vector<std::uint64_t> ready_ MAGIC_GUARDED_BY(mutex_);
};

/// Runs the reactor until `should_stop` returns true (checked at least
/// every ~200ms), then drains gracefully. Returns the number of scan
/// requests dispatched. Throws std::runtime_error on socket setup failure
/// or a fatal event-loop error — after tearing down every connection fd.
std::uint64_t run_reactor(ScanService& service, const DaemonOptions& options,
                          const std::function<bool()>& should_stop);

}  // namespace magic::serve

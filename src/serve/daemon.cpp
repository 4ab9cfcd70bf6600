#include "serve/daemon.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "serve/reactor.hpp"
#include "serve/scan_service.hpp"
#include "serve/session.hpp"

namespace magic::serve {
namespace {

// ---------------------------------------------------------------------------
// Signal plumbing: the handler may only touch a lock-free atomic flag.

std::atomic<bool> g_signal_stop{false};

void stop_signal_handler(int) { g_signal_stop.store(true, std::memory_order_relaxed); }

}  // namespace

std::uint64_t serve_stream(int in_fd, int out_fd, ScanService& service) {
  auto hub = std::make_shared<WakeHub>();
  Session::Hooks hooks;
  // Path reads and extraction run inline: one stream has nothing to overlap.
  hooks.execute = [](std::function<void()> task) { task(); };
  hooks.wake = [hub] { hub->notify(0); };
  hooks.render_stats = [&service] { return service.stats_json(); };
  Session session(service, std::move(hooks));
  std::uint64_t scans = 0;
  std::string out;
  std::size_t out_start = 0;
  char buf[65536];
  for (;;) {
    scans += session.pump(out);
    const bool writing = out_start < out.size();
    if (session.done() && !writing) break;
    // A negative fd is skipped by poll(2), hang-ups included. Input waits
    // while output is unwritten, so a reader that stops reading stops the
    // stream instead of growing `out`.
    pollfd fds[3] = {{hub->fd(), POLLIN, 0},
                     {session.reading() && !writing ? in_fd : -1, POLLIN, 0},
                     {writing ? out_fd : -1, POLLOUT, 0}};
    if (::poll(fds, 3, -1) < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("magicd: poll: errno " + std::to_string(errno));
    }
    if (fds[0].revents != 0) hub->drain();
    if (fds[2].revents != 0) {
      const ssize_t n = ::write(out_fd, out.data() + out_start, out.size() - out_start);
      if (n < 0 && errno != EINTR && errno != EAGAIN) break;  // the reader is gone
      if (n > 0) out_start += static_cast<std::size_t>(n);
      if (out_start == out.size()) {
        out.clear();
        out_start = 0;
      }
    }
    if (fds[1].revents != 0) {
      const ssize_t n = ::read(in_fd, buf, sizeof(buf));
      if (n > 0) {
        session.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      } else if (n == 0 || (errno != EINTR && errno != EAGAIN)) {
        session.end_input();
      }
    }
  }
  return scans;
}

std::uint64_t run_unix_daemon(ScanService& service, const DaemonOptions& options) {
  if (options.handle_signals) {
    g_signal_stop.store(false, std::memory_order_relaxed);
    struct sigaction action {};
    action.sa_handler = stop_signal_handler;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);
    // Belt and braces on top of MSG_NOSIGNAL in the reactor's writes: a
    // client that disconnects mid-response must never SIGPIPE-kill the
    // daemon.
    ::signal(SIGPIPE, SIG_IGN);
  }

  auto should_stop = [&options] {
    if (options.handle_signals && g_signal_stop.load(std::memory_order_relaxed)) {
      return true;
    }
    return options.external_stop != nullptr &&
           options.external_stop->load(std::memory_order_acquire);
  };
  return run_reactor(service, options, should_stop);
}

}  // namespace magic::serve

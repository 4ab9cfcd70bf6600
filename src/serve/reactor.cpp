#include "serve/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/scan_service.hpp"
#include "serve/session.hpp"
#include "serve/stats.hpp"
#include "util/thread_pool.hpp"

namespace magic::serve {
namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": errno " + std::to_string(errno));
}

/// Binds the Unix listener. A path already occupied by a *socket* is a
/// stale leftover of a crashed daemon and is replaced; any other kind of
/// file is refused — blindly unlinking whatever sits at --socket used to
/// be able to delete a user's regular file.
int bind_unix_listener(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("magicd: bad socket path '" + socket_path + "'");
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  struct stat st {};
  if (::lstat(socket_path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      throw std::runtime_error("magicd: refusing to replace non-socket file '" +
                               socket_path + "'");
    }
    ::unlink(socket_path.c_str());
  } else if (errno != ENOENT) {
    throw_errno("magicd: stat " + socket_path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("magicd: socket");
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("magicd: cannot bind " + socket_path + " (errno " +
                             std::to_string(errno) + ")");
  }
  if (::listen(fd, 1024) != 0) {
    ::close(fd);
    throw_errno("magicd: listen");
  }
  return fd;
}

/// Removes the daemon's socket file on shutdown — only if the path still
/// holds a socket (same guard as bind: never delete a file the daemon did
/// not create).
void remove_socket_file(const std::string& path) noexcept {
  struct stat st {};
  if (::lstat(path.c_str(), &st) == 0 && S_ISSOCK(st.st_mode)) {
    ::unlink(path.c_str());
  }
}

struct Conn {
  Conn(int conn_fd, std::uint64_t conn_serial, ScanService& service,
       Session::Hooks hooks)
      : fd(conn_fd), serial(conn_serial), session(service, std::move(hooks)) {}

  int fd;
  std::uint64_t serial;
  Session session;
  std::string out;         ///< rendered responses not yet written
  std::size_t out_start = 0;
  bool want_read = true;   ///< EPOLLIN registered
  bool want_write = false; ///< EPOLLOUT registered
  bool saw_eof = false;    ///< EOF read, or the drain ended the input
  bool dead = false;       ///< read/write error — drop silently
  /// Set while `out` is non-empty; pushed forward on every write progress.
  Clock::time_point stall_deadline{};
};

// epoll_event.data.u64 tags; connection serials start above these.
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kWakeTag = 1;

class Reactor {
 public:
  Reactor(ScanService& service, const DaemonOptions& options,
          const std::function<bool()>& should_stop)
      : service_(service), options_(options), should_stop_(should_stop) {}

  ~Reactor() { release_fds(); }

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  std::uint64_t run() {
    setup();
    std::string fault;
    while (fault.empty() && !should_stop_()) {
      const int n = ::epoll_wait(epoll_fd_, events_.data(),
                                 static_cast<int>(events_.size()), kTickMs);
      if (n < 0) {
        if (errno == EINTR) continue;  // signal: loop re-checks should_stop
        fault = "magicd: epoll_wait: errno " + std::to_string(errno);
        break;
      }
      if (fault_injected()) {
        fault = "magicd: injected event-loop fault";
        break;
      }
      dispatch(n);
      expire_stalled();
      maybe_rearm_listener();
    }
    if (!fault.empty()) {
      // The PR 2 daemon closed only the listener on a poll failure and
      // threw, leaving connection threads blocked forever. The reactor owns
      // every fd, so a fatal error tears all of them down before it
      // propagates: peers see EOF, nothing can hang on a dead loop.
      fatal_teardown();
      throw std::runtime_error(fault);
    }
    graceful_drain();
    return stats_.requests;
  }

 private:
  static constexpr int kTickMs = 200;
  static constexpr std::size_t kUnboundedRead =
      std::numeric_limits<std::size_t>::max();

  bool fault_injected() const {
    return options_.inject_loop_fault != nullptr &&
           options_.inject_loop_fault->load(std::memory_order_acquire);
  }

  void setup() {
    listen_fd_ = bind_unix_listener(options_.socket_path);
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) throw_errno("magicd: epoll_create1");
    hub_ = std::make_shared<WakeHub>();
    add_fd(listen_fd_, kListenerTag, EPOLLIN);
    add_fd(hub_->fd(), kWakeTag, EPOLLIN);
    events_.resize(256);
    std::size_t workers = options_.io_workers;
    if (workers == 0) workers = 4;
    pool_ = std::make_unique<util::ThreadPool>(workers);
  }

  void add_fd(int fd, std::uint64_t tag, std::uint32_t mask) {
    epoll_event ev{};
    ev.events = mask;
    ev.data.u64 = tag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      throw_errno("magicd: epoll_ctl add");
    }
  }

  void update_interest(Conn& conn) {
    const std::uint32_t mask = (conn.want_read ? EPOLLIN : 0u) |
                               (conn.want_write ? EPOLLOUT : 0u);
    epoll_event ev{};
    ev.events = mask;
    ev.data.u64 = conn.serial;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  }

  void dispatch(int n) {
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events_[static_cast<std::size_t>(i)];
      if (ev.data.u64 == kListenerTag) {
        accept_ready();
        continue;
      }
      if (ev.data.u64 == kWakeTag) {
        ++stats_.wakeups;
        for (const std::uint64_t serial : hub_->drain()) pump(serial);
        continue;
      }
      const std::uint64_t serial = ev.data.u64;
      auto it = conns_.find(serial);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Conn& conn = it->second;
      if ((ev.events & (EPOLLERR | EPOLLHUP)) && conn.session.input_closed()) {
        // Peer fully gone and nothing more to read: any buffered output
        // is undeliverable. Matches the old daemon dropping a vanished
        // client on EPIPE.
        close_conn(serial);
        continue;
      }
      // An error or hang-up is consumed through the read path (EOF/reset).
      if (ev.events & (EPOLLIN | EPOLLERR | EPOLLHUP)) readable(conn);
      pump(serial);  // handles EPOLLOUT flushing too; may close the conn
    }
  }

  void accept_ready() {
    while (true) {
      int fd = -1;
      const int injected =
          options_.inject_accept_errno != nullptr
              ? options_.inject_accept_errno->exchange(0,
                                                       std::memory_order_acq_rel)
              : 0;
      if (injected != 0) {
        errno = injected;
      } else {
        fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
      }
      if (fd < 0) {
        if (errno == EINTR) continue;
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
          // Resource exhaustion: the connection stays in the backlog, so a
          // level-triggered listener event re-fires instantly and the loop
          // would spin at 100% CPU until fds free up. Park the listener
          // (drop it from the epoll set) and re-arm after a tick.
          park_listener();
        }
        break;  // EAGAIN: drained; anything else: try again next tick
      }
      const std::uint64_t serial = next_serial_++;
      Session::Hooks hooks;
      hooks.execute = [pool = pool_.get()](std::function<void()> task) {
        pool->submit(std::move(task));
      };
      hooks.wake = [hub = hub_, serial] { hub->notify(serial); };
      hooks.render_stats = [this] { return render_stats(); };
      auto [it, inserted] =
          conns_.try_emplace(serial, fd, serial, service_, std::move(hooks));
      try {
        add_fd(fd, serial, EPOLLIN);
      } catch (const std::exception&) {
        ::close(fd);
        conns_.erase(it);
        continue;
      }
      ++stats_.accepted;
    }
  }

  void park_listener() {
    if (listener_parked_ || listen_fd_ < 0) return;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    listener_parked_ = true;
    listener_resume_ = Clock::now() + std::chrono::milliseconds(kTickMs);
    ++stats_.accept_parks;
  }

  /// Re-arms a parked listener once its backoff elapsed. Called every loop
  /// iteration; epoll_wait's kTickMs timeout guarantees the loop gets here
  /// even when no fd is active.
  void maybe_rearm_listener() {
    if (!listener_parked_ || listen_fd_ < 0) return;
    if (Clock::now() < listener_resume_) return;
    listener_parked_ = false;
    add_fd(listen_fd_, kListenerTag, EPOLLIN);
  }

  /// Feeds what the kernel has buffered for this connection (up to
  /// EAGAIN, EOF, or `budget` bytes) into its Session. The budget bounds
  /// the unparsed input a fast pipelining writer can pile up ahead of the
  /// Session's backpressure and keeps one connection from monopolizing the
  /// loop. Stopping early is safe: the set is level-triggered, so EPOLLIN
  /// re-fires and the remainder is read on a later pass, with other
  /// connections serviced in between.
  void read_available(Conn& conn, std::size_t budget) {
    char buf[65536];
    while (!conn.saw_eof && budget > 0) {
      const std::size_t want = std::min(budget, sizeof(buf));
      const ssize_t n = ::recv(conn.fd, buf, want, 0);
      if (n > 0) {
        conn.session.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        budget -= static_cast<std::size_t>(n);
        continue;
      }
      if (n == 0) {
        end_input(conn);
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      conn.dead = true;  // ECONNRESET and friends: drop silently
      return;
    }
  }

  void readable(Conn& conn) {
    read_available(conn, options_.read_chunk_bytes > 0
                             ? options_.read_chunk_bytes
                             : kUnboundedRead);
  }

  static void end_input(Conn& conn) {
    conn.saw_eof = true;
    conn.session.end_input();
  }

  std::string render_stats() {
    std::string payload = service_.stats_json();
    stats_.active = conns_.size();
    // Splice the reactor block into the service's stats object.
    payload.insert(payload.size() - 1, ",\"reactor\":" + stats_.to_json());
    return payload;
  }

  void try_write(Conn& conn) {
    bool progressed = false;
    while (conn.out_start < conn.out.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.out_start,
                 conn.out.size() - conn.out_start, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_start += static_cast<std::size_t>(n);
        progressed = true;
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      conn.dead = true;  // EPIPE / reset: peer vanished, drop silently
      return;
    }
    if (conn.out_start == conn.out.size()) {
      conn.out.clear();
      conn.out_start = 0;
    } else if (conn.out_start > 65536) {
      conn.out.erase(0, conn.out_start);
      conn.out_start = 0;
    }
    if (conn.out.empty()) {
      conn.stall_deadline = Clock::time_point{};
    } else if (progressed || conn.stall_deadline == Clock::time_point{}) {
      conn.stall_deadline = Clock::now() + options_.write_stall_timeout;
    }
  }

  /// Per-connection step: let the Session parse and flush, write, then
  /// match the epoll interest to what the Session wants; close the
  /// connection once its stream is complete.
  void pump(std::uint64_t serial) {
    auto it = conns_.find(serial);
    if (it == conns_.end()) return;
    Conn& conn = it->second;
    if (!conn.dead) {
      stats_.requests += conn.session.pump(conn.out);
      try_write(conn);
    }
    if (conn.dead || (conn.session.done() && conn.out.empty())) {
      close_conn(serial);
      return;
    }
    const bool want_read = conn.session.reading();
    const bool want_write = !conn.out.empty();
    if (want_read == conn.want_read && want_write == conn.want_write) return;
    // Backpressure or a `reload`/`shadow` barrier pauses reads; the wake
    // that lifts the pause re-enters here.
    if (conn.want_read && !want_read && !conn.saw_eof &&
        !conn.session.input_closed()) {
      ++stats_.read_pauses;
    }
    conn.want_read = want_read;
    conn.want_write = want_write;
    update_interest(conn);
  }

  void close_conn(std::uint64_t serial) {
    auto it = conns_.find(serial);
    if (it == conns_.end()) return;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
    ::close(it->second.fd);
    conns_.erase(it);
    ++stats_.closed;
  }

  void expire_stalled() {
    if (conns_.empty()) return;
    const auto now = Clock::now();
    std::vector<std::uint64_t> stalled;
    for (const auto& [serial, conn] : conns_) {
      if (conn.stall_deadline != Clock::time_point{} &&
          conn.stall_deadline <= now) {
        stalled.push_back(serial);
      }
    }
    for (const std::uint64_t serial : stalled) {
      ++stats_.write_stalls;
      close_conn(serial);
    }
  }

  /// Graceful shutdown, same contract as the thread-per-connection daemon:
  /// stop accepting, parse what is already buffered, give in-flight
  /// verdicts `drain_grace` to flush, hard-close stragglers, then drain
  /// the service so every outstanding PendingVerdict resolves.
  void graceful_drain() {
    // A client whose connect() already completed sits in the listener
    // backlog even if its EPOLLIN was never dispatched; closing the
    // listener would reset it mid-request. Adopt those connections first —
    // they drain like any other.
    accept_ready();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
    std::vector<std::uint64_t> serials;
    serials.reserve(conns_.size());
    for (auto& [serial, conn] : conns_) {
      serials.push_back(serial);
      if (!conn.saw_eof && !conn.dead && !conn.session.input_closed()) {
        // Requests the client already sent sit in the kernel receive queue
        // if the stop signal beat their EPOLLIN dispatch; consume them —
        // closing an fd with unread data resets the peer mid-read, and the
        // old daemon's reader threads always drained what was buffered.
        // Unbudgeted: after this pass reads are off for good, so anything
        // left unread here would be lost.
        read_available(conn, kUnboundedRead);
      }
      // The drain ends every stream's input. Lines the Session still holds
      // back (backpressure, an in-flight `reload`) are parsed as wakes
      // lift the pause; pump() turns reads off for good.
      if (!conn.saw_eof) end_input(conn);
    }
    for (const std::uint64_t serial : serials) pump(serial);

    const auto deadline = Clock::now() + options_.drain_grace;
    while (!conns_.empty()) {
      const auto now = Clock::now();
      if (now >= deadline) break;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - now);
      const int timeout =
          static_cast<int>(std::min<std::chrono::milliseconds::rep>(
              left.count(), kTickMs));
      const int n = ::epoll_wait(epoll_fd_, events_.data(),
                                 static_cast<int>(events_.size()),
                                 timeout > 0 ? timeout : 1);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // teardown below hard-closes whatever is left
      }
      dispatch(n);
      expire_stalled();
    }
    while (!conns_.empty()) close_conn(conns_.begin()->first);
    pool_.reset();     // join extraction workers (late wakes are no-ops)
    service_.drain();  // resolve everything still queued
    release_fds();
    remove_socket_file(options_.socket_path);
  }

  /// Fatal-error teardown: close every connection fd (peers see EOF), join
  /// the workers, leave the service running — its owner decides its fate.
  void fatal_teardown() {
    while (!conns_.empty()) close_conn(conns_.begin()->first);
    pool_.reset();
    release_fds();
    remove_socket_file(options_.socket_path);
  }

  void release_fds() {
    for (auto& [serial, conn] : conns_) ::close(conn.fd);
    conns_.clear();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    listen_fd_ = epoll_fd_ = -1;
  }

  ScanService& service_;
  const DaemonOptions& options_;
  const std::function<bool()>& should_stop_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  bool listener_parked_ = false;  ///< deregistered after fd exhaustion
  Clock::time_point listener_resume_{};
  std::shared_ptr<WakeHub> hub_;
  std::vector<epoll_event> events_;
  std::unordered_map<std::uint64_t, Conn> conns_;
  std::uint64_t next_serial_ = kWakeTag + 1;
  ReactorStats stats_;
  /// Runs every Session's path reads, extraction and control commands.
  /// Its tasks hold only the service, their slot and the hub, never the
  /// reactor; the drain joins it before draining the service.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace

WakeHub::WakeHub() : event_fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  if (event_fd_ < 0) throw_errno("magicd: eventfd");
}

WakeHub::~WakeHub() { ::close(event_fd_); }

void WakeHub::notify(std::uint64_t serial) {
  util::MutexLock lock(mutex_);
  ready_.push_back(serial);
  if (!signaled_) {
    signaled_ = true;
    const std::uint64_t one = 1;
    // A full eventfd counter is unreachable with this coalescing; an
    // EAGAIN here would still leave the serial queued for the next wake.
    [[maybe_unused]] const ssize_t n = ::write(event_fd_, &one, sizeof(one));
  }
}

std::vector<std::uint64_t> WakeHub::drain() {
  std::uint64_t counter = 0;
  while (::read(event_fd_, &counter, sizeof(counter)) > 0) {
  }
  std::vector<std::uint64_t> out;
  util::MutexLock lock(mutex_);
  out.swap(ready_);
  signaled_ = false;
  return out;
}

std::uint64_t run_reactor(ScanService& service, const DaemonOptions& options,
                          const std::function<bool()>& should_stop) {
  Reactor reactor(service, options, should_stop);
  return reactor.run();
}

}  // namespace magic::serve

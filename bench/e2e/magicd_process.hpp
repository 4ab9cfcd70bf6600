#pragma once
// One magicd child process, started with deployment flags only: --model,
// plus --socket for the daemon mode (stdio mode otherwise, with both pipes
// held here). The child is tied to this process with PR_SET_PDEATHSIG, and
// the destructor kills and reaps it if stop() did not.

#include <sys/types.h>

#include <chrono>
#include <string>

namespace magic::e2e {

using Clock = std::chrono::steady_clock;

/// Owns one file descriptor.
class Fd {
 public:
  explicit Fd(int fd = -1) noexcept : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int get() const noexcept { return fd_; }
  /// Closes the descriptor, if any.
  void reset() noexcept;

 private:
  int fd_;
};

class MagicdProcess {
 public:
  /// Starts `magicd --model MODEL [--socket SOCKET]`; an empty `socket_path`
  /// selects stdio mode. The child's stderr is appended to `log_path`.
  /// Throws std::runtime_error when the process cannot be started.
  MagicdProcess(const std::string& magicd, const std::string& model,
                const std::string& socket_path, const std::string& log_path);
  ~MagicdProcess();

  MagicdProcess(const MagicdProcess&) = delete;
  MagicdProcess& operator=(const MagicdProcess&) = delete;

  /// When the child was forked.
  Clock::time_point started_at() const noexcept { return started_; }
  /// Stdio mode: non-blocking ends of the child's stdin and stdout (-1 in
  /// socket mode or once closed).
  int stdin_fd() const noexcept { return stdin_.get(); }
  int stdout_fd() const noexcept { return stdout_.get(); }

  /// The child's peak resident set (VmHWM) in MiB; 0 once it has exited.
  double peak_rss_mib() const;

  /// Graceful stop: SIGTERM in socket mode, end of input in stdio mode.
  /// Waits up to `timeout`, then kills. True when the child exited with
  /// status 0 in time.
  bool stop(std::chrono::milliseconds timeout);

 private:
  void kill_and_reap() noexcept;

  pid_t pid_ = -1;
  bool stdio_ = false;
  Clock::time_point started_;
  Fd stdin_;
  Fd stdout_;
};

/// Connects a non-blocking Unix stream socket to `path`; -1 on failure.
int connect_unix(const std::string& path);

/// The peak resident set (VmHWM) in MiB that a /proc/<pid>/status file
/// reports; 0 when the file cannot be read.
double vm_hwm_mib(const std::string& status_path);

}  // namespace magic::e2e

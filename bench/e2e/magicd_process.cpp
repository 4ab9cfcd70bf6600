#include "magicd_process.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

namespace magic::e2e {
namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw std::runtime_error("fcntl O_NONBLOCK failed");
  }
}

}  // namespace

void Fd::reset() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

MagicdProcess::MagicdProcess(const std::string& magicd, const std::string& model,
                             const std::string& socket_path, const std::string& log_path)
    : stdio_(socket_path.empty()) {
  std::vector<std::string> args = {magicd, "--model", model};
  if (!stdio_) {
    args.push_back("--socket");
    args.push_back(socket_path);
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  // The child's ends; the parent closes them when the constructor returns.
  const Fd log(::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644));
  const Fd null(::open("/dev/null", O_RDWR | O_CLOEXEC));
  if (log.get() < 0 || null.get() < 0) throw std::runtime_error("cannot open " + log_path);
  Fd child_in, child_out;
  if (stdio_) {
    int in_pipe[2], out_pipe[2];
    if (::pipe2(in_pipe, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    child_in = Fd(in_pipe[0]);
    stdin_ = Fd(in_pipe[1]);
    if (::pipe2(out_pipe, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    stdout_ = Fd(out_pipe[0]);
    child_out = Fd(out_pipe[1]);
  }

  const pid_t parent = ::getpid();
  started_ = Clock::now();
  pid_ = ::fork();
  if (pid_ == 0) {
    // Async-signal-safe calls only until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(stdio_ ? child_in.get() : null.get(), STDIN_FILENO);
    ::dup2(stdio_ ? child_out.get() : null.get(), STDOUT_FILENO);
    ::dup2(log.get(), STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  if (pid_ < 0) throw std::runtime_error("fork failed: " + std::string(std::strerror(errno)));
  if (stdio_) {
    set_nonblocking(stdin_.get());
    set_nonblocking(stdout_.get());
  }
}

MagicdProcess::~MagicdProcess() { kill_and_reap(); }

double MagicdProcess::peak_rss_mib() const {
  return vm_hwm_mib("/proc/" + std::to_string(pid_) + "/status");
}

bool MagicdProcess::stop(std::chrono::milliseconds timeout) {
  if (pid_ <= 0) return false;
  if (stdio_) {
    stdin_.reset();
  } else {
    ::kill(pid_, SIGTERM);
  }
  const auto deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    int status = 0;
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    if (done < 0 && errno != EINTR) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  kill_and_reap();
  return false;
}

void MagicdProcess::kill_and_reap() noexcept {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

double vm_hwm_mib(const std::string& status_path) {
  std::ifstream status(status_path);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  set_nonblocking(fd);
  return fd;
}

}  // namespace magic::e2e

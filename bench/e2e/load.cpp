#include "load.hpp"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "json.hpp"

namespace magic::e2e {
namespace {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Moves complete lines out of `buffer` into `lines`.
void split_lines(std::string& buffer, std::vector<std::string>& lines) {
  std::size_t start = 0;
  for (std::size_t nl = buffer.find('\n'); nl != std::string::npos;
       nl = buffer.find('\n', start)) {
    lines.emplace_back(buffer, start, nl - start);
    start = nl + 1;
  }
  buffer.erase(0, start);
}

/// Reads what is available; false at end of stream or on a read error.
bool read_available(int fd, std::string& buffer) {
  char chunk[65536];
  for (;;) {
    const ssize_t got = ::read(fd, chunk, sizeof chunk);
    if (got > 0) {
      buffer.append(chunk, static_cast<std::size_t>(got));
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    return got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

/// Writes from `out` at `head` until the descriptor would block; false on a
/// write error. Compacts the buffer once it is drained.
bool write_available(int fd, std::string& out, std::size_t& head) {
  while (head < out.size()) {
    const ssize_t put = ::write(fd, out.data() + head, out.size() - head);
    if (put > 0) {
      head += static_cast<std::size_t>(put);
      continue;
    }
    if (put < 0 && errno == EINTR) continue;
    if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  out.clear();
  head = 0;
  return true;
}

/// Blocking (poll-driven) helpers for the short request/reply exchanges.
bool write_all(int fd, std::string_view data, Clock::time_point deadline) {
  std::string out(data);
  std::size_t head = 0;
  while (!out.empty()) {
    if (!write_available(fd, out, head) || Clock::now() > deadline) return false;
    if (out.empty()) break;
    pollfd p{fd, POLLOUT, 0};
    ::poll(&p, 1, 10);
  }
  return true;
}

bool read_line(int fd, std::string& buffer, std::string& line,
               Clock::time_point deadline) {
  for (;;) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      line.assign(buffer, 0, nl);
      buffer.erase(0, nl + 1);
      return true;
    }
    if (Clock::now() > deadline) return false;
    pollfd p{fd, POLLIN, 0};
    ::poll(&p, 1, 10);
    if (!read_available(fd, buffer) && buffer.find('\n') == std::string::npos) {
      return false;
    }
  }
}

/// `<prefix><k>`: the id magic_bench gives request k.
std::string request_id(char prefix, std::size_t k) {
  std::string id(1, prefix);
  id += std::to_string(k);
  return id;
}

/// Fills `out` from one verdict line; returns the echoed request id.
std::string apply_verdict(const std::string& line, bool keep, Outcome& out) {
  const Json verdict = Json::parse(line);
  out.ok = verdict.at({"status"}).string() == "ok";
  if (out.ok) {
    out.family_index = static_cast<int>(verdict.at({"family_index"}).number());
    if (keep) {
      for (const Json& p : verdict.at({"probabilities"}).array()) {
        out.probabilities.push_back(p.number());
      }
    }
  }
  return verdict.at({"id"}).string();
}

struct Connection {
  Fd fd;
  std::string out;
  std::size_t out_head = 0;
  std::string in;
  std::deque<std::size_t> outstanding;
  bool watching_writes = false;
};

}  // namespace

std::size_t PhaseResult::not_ok() const {
  return static_cast<std::size_t>(std::count_if(
      outcomes.begin(), outcomes.end(), [](const Outcome& o) { return !o.ok; }));
}

PhaseResult run_socket_load(const std::string& socket_path, const SocketLoad& load) {
  const bool open_loop = !load.schedule.empty();
  const std::size_t total = open_loop ? load.schedule.size() : load.requests;
  PhaseResult result;
  result.outcomes.resize(total);

  std::vector<Connection> conns(load.connections);
  const Fd epoll(::epoll_create1(EPOLL_CLOEXEC));
  const Fd timer(::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC));
  if (epoll.get() < 0 || timer.get() < 0) throw std::runtime_error("epoll/timerfd setup failed");
  const std::uint64_t timer_tag = conns.size();
  for (std::size_t c = 0; c < conns.size(); ++c) {
    conns[c].fd = Fd(connect_unix(socket_path));
    if (conns[c].fd.get() < 0) {
      result.error = "cannot connect to " + socket_path;
      return result;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    ::epoll_ctl(epoll.get(), EPOLL_CTL_ADD, conns[c].fd.get(), &ev);
  }
  epoll_event timer_ev{};
  timer_ev.events = EPOLLIN;
  timer_ev.data.u64 = timer_tag;
  ::epoll_ctl(epoll.get(), EPOLL_CTL_ADD, timer.get(), &timer_ev);

  auto watch_writes = [&](std::size_t c, bool on) {
    if (conns[c].watching_writes == on) return;
    epoll_event ev{};
    ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
    ev.data.u64 = c;
    ::epoll_ctl(epoll.get(), EPOLL_CTL_MOD, conns[c].fd.get(), &ev);
    conns[c].watching_writes = on;
  };
  auto flush = [&](std::size_t c) {
    Connection& conn = conns[c];
    if (!write_available(conn.fd.get(), conn.out, conn.out_head)) {
      throw std::runtime_error("write to magicd failed");
    }
    watch_writes(c, !conn.out.empty());
  };

  const Clock::time_point t0 = Clock::now();
  result.start = t0;
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(load.timeout_s));
  std::size_t next = 0;
  std::size_t answered = 0;
  auto send = [&](std::size_t k, std::size_t c) {
    Connection& conn = conns[c];
    result.outcomes[k].sent_s = seconds_between(t0, Clock::now());
    conn.out += request_id('r', k);
    conn.out += " b64 ";
    conn.out += (*load.payloads)[(*load.traffic)[k]];
    conn.out += '\n';
    conn.outstanding.push_back(k);
    flush(c);
  };
  auto on_line = [&](std::size_t c, const std::string& line) {
    Connection& conn = conns[c];
    if (conn.outstanding.empty()) {
      result.in_order = false;
      return;
    }
    const std::size_t k = conn.outstanding.front();
    conn.outstanding.pop_front();
    Outcome& out = result.outcomes[k];
    out.done_s = seconds_between(t0, Clock::now());
    try {
      const std::string id =
          apply_verdict(line, k < load.keep_probabilities.size() && load.keep_probabilities[k], out);
      if (id != request_id('r', k)) result.in_order = false;
    } catch (const std::exception&) {
      out.ok = false;
      result.in_order = false;
    }
    ++answered;
    if (!open_loop && next < total) send(next++, c);
  };

  try {
    if (open_loop) {
      for (std::size_t k = 0; k < total; ++k) result.outcomes[k].scheduled_s = load.schedule[k];
    } else {
      const std::size_t initial = std::min(total, load.depth * conns.size());
      while (next < initial) {
        send(next, next % conns.size());
        ++next;
      }
    }
    std::vector<std::string> lines;
    while (answered < total) {
      if (Clock::now() > deadline) {
        result.error = "timed out";
        break;
      }
      if (open_loop) {
        const Clock::time_point now = Clock::now();
        while (next < total &&
               t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(load.schedule[next])) <= now) {
          send(next, next % conns.size());
          ++next;
        }
        if (next < total) {
          const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(load.schedule[next]));
          const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              due.time_since_epoch()).count();
          itimerspec spec{};
          spec.it_value.tv_sec = ns / 1'000'000'000;
          spec.it_value.tv_nsec = ns % 1'000'000'000;
          ::timerfd_settime(timer.get(), TFD_TIMER_ABSTIME, &spec, nullptr);
        }
      }
      epoll_event events[16];
      const int ready = ::epoll_wait(epoll.get(), events, 16, 100);
      if (ready < 0 && errno != EINTR) throw std::runtime_error("epoll_wait failed");
      for (int e = 0; e < ready; ++e) {
        const std::uint64_t tag = events[e].data.u64;
        if (tag == timer_tag) {
          std::uint64_t expirations = 0;
          [[maybe_unused]] const ssize_t got =
              ::read(timer.get(), &expirations, sizeof expirations);
          continue;
        }
        Connection& conn = conns[tag];
        if (events[e].events & EPOLLOUT) flush(tag);
        if (events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
          const bool open = read_available(conn.fd.get(), conn.in);
          lines.clear();
          split_lines(conn.in, lines);
          for (const std::string& line : lines) on_line(tag, line);
          if (!open) throw std::runtime_error("magicd closed a connection");
        }
      }
    }
  } catch (const std::exception& e) {
    result.error = e.what();
  }

  double first_sent = -1.0, last_done = 0.0;
  for (const Outcome& o : result.outcomes) {
    if (o.sent_s >= 0 && (first_sent < 0 || o.sent_s < first_sent)) first_sent = o.sent_s;
    last_done = std::max(last_done, o.done_s);
  }
  result.wall_s = first_sent < 0 ? 0.0 : last_done - first_sent;
  if (result.error.empty()) {
    const auto stats_deadline = Clock::now() + std::chrono::seconds(10);
    std::string buffer;
    if (!write_all(conns[0].fd.get(), "stats\n", stats_deadline) ||
        !read_line(conns[0].fd.get(), buffer, result.stats_line, stats_deadline)) {
      result.error = "no stats reply";
    }
  }
  return result;
}

PhaseResult run_stdio_load(MagicdProcess& magicd, const StdioLoad& load) {
  // How often an ignorable line is sent while responses are awaited.
  constexpr auto kPokeInterval = std::chrono::microseconds(200);
  const std::size_t total = load.lines.size();
  PhaseResult result;
  result.outcomes.resize(total);
  const Clock::time_point t0 = Clock::now();
  result.start = t0;
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(load.timeout_s));

  std::string out, in;
  std::size_t out_head = 0;
  std::size_t next = 0;
  std::size_t answered = 0;
  bool stats_sent = false;
  bool stats_done = load.after != StdioLoad::After::Stats;
  Clock::time_point last_poke = t0;
  std::vector<std::string> lines;
  auto write_out = [&] {
    if (!write_available(magicd.stdin_fd(), out, out_head)) {
      throw std::runtime_error("write to magicd stdin failed");
    }
  };
  try {
    while (answered < total || !stats_done) {
      const Clock::time_point now = Clock::now();
      if (now > deadline) {
        result.error = "timed out";
        break;
      }
      const bool writable = magicd.stdin_fd() >= 0;
      // Queue requests one line at a time, so each send time is the moment
      // that line's own bytes start to go out.
      while (writable && out.empty() && next < total && next - answered < load.window) {
        result.outcomes[next].sent_s = seconds_between(t0, Clock::now());
        out = load.lines[next++];
        out += '\n';
        write_out();
      }
      if (writable && out.empty() && next == total && load.after == StdioLoad::After::Stats &&
          !stats_sent) {
        out = "stats\n";
        stats_sent = true;
        write_out();
      }
      const bool awaiting = magicd.stdin_fd() >= 0 && out.empty() &&
                            (next == total || next - answered >= load.window);
      if (awaiting && now - last_poke >= kPokeInterval) {
        out = "#\n";
        last_poke = now;
        write_out();
      }

      pollfd fds[2] = {{magicd.stdout_fd(), POLLIN, 0},
                       {magicd.stdin_fd(), static_cast<short>(out.empty() ? 0 : POLLOUT), 0}};
      const timespec wait{0, awaiting ? 200'000 : 50'000'000};
      if (::ppoll(fds, magicd.stdin_fd() >= 0 ? 2 : 1, &wait, nullptr) < 0 && errno != EINTR) {
        throw std::runtime_error("poll failed");
      }
      if (fds[0].revents == 0) continue;
      const bool open = read_available(magicd.stdout_fd(), in);
      lines.clear();
      split_lines(in, lines);
      for (const std::string& line : lines) {
        if (answered == total) {
          result.stats_line = line;
          stats_done = true;
          continue;
        }
        const std::size_t k = answered++;
        Outcome& o = result.outcomes[k];
        o.done_s = seconds_between(t0, Clock::now());
        try {
          const bool keep = k < load.keep_probabilities.size() && load.keep_probabilities[k];
          if (apply_verdict(line, keep, o) != request_id('s', k)) result.in_order = false;
        } catch (const std::exception&) {
          o.ok = false;
          result.in_order = false;
        }
      }
      if (!open && (answered < total || !stats_done)) {
        throw std::runtime_error("magicd closed its stdout early");
      }
    }
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  double last_done = 0.0;
  for (const Outcome& o : result.outcomes) last_done = std::max(last_done, o.done_s);
  result.wall_s = total == 0 ? 0.0 : last_done - result.outcomes.front().sent_s;
  return result;
}

double socket_cold_start(const MagicdProcess& magicd, const std::string& socket_path,
                         const std::string& request, double timeout_s) {
  const Clock::time_point deadline =
      magicd.started_at() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(timeout_s));
  Fd fd(connect_unix(socket_path));
  while (fd.get() < 0) {
    if (Clock::now() > deadline) return -1.0;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    fd = Fd(connect_unix(socket_path));
  }
  std::string buffer, line;
  if (!write_all(fd.get(), request + "\n", deadline) ||
      !read_line(fd.get(), buffer, line, deadline)) {
    return -1.0;
  }
  const double elapsed = seconds_between(magicd.started_at(), Clock::now());
  Outcome outcome;
  try {
    apply_verdict(line, false, outcome);
  } catch (const std::exception&) {
    return -1.0;
  }
  return outcome.ok ? elapsed : -1.0;
}

}  // namespace magic::e2e

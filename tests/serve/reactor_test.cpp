// Reactor-era regression suite for the epoll socket daemon: many clients
// through one event loop, per-connection backpressure, bounded drain under
// a non-reading client, the fatal-teardown path (a dying loop must close
// every connection fd, not just the listener), and the socket-file guards
// (never unlink a path the daemon does not own).

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/daemon.hpp"
#include "serve/scan_service.hpp"
#include "serve/serve_test_util.hpp"
#include "serve/verdict.hpp"
#include "serve/wire.hpp"

namespace magic::serve {
namespace {

using namespace std::chrono_literals;
using testing::shared_classifier;

constexpr const char* kListing =
    "401000 mov eax, 1\n"
    "401005 add eax, 2\n"
    "401008 ret\n";

ServeConfig reactor_config() {
  ServeConfig config;
  config.workers = 2;
  config.queue_capacity = 256;
  config.max_batch = 4;
  return config;
}

/// The scan request line "<tag><index> b64 <payload>".
std::string b64_request(const char* tag, int index, const std::string& payload) {
  std::string line = tag;
  line.append(std::to_string(index)).append(" b64 ").append(payload);
  return line;
}

std::string unique_socket_path(const std::string& tag) {
  return ::testing::TempDir() + "magicd_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

std::unique_ptr<wire::UnixClient> connect_retry(const std::string& path) {
  for (int attempt = 0; attempt < 300; ++attempt) {
    try {
      return std::make_unique<wire::UnixClient>(path);
    } catch (const std::runtime_error&) {
      std::this_thread::sleep_for(10ms);
    }
  }
  return nullptr;
}

/// ScanService stub whose control() blocks until released — stands in for
/// a reload that takes real time to materialize a checkpoint. Scans
/// resolve instantly so the test only measures event-loop liveness.
class BlockingControlService final : public ScanService {
 public:
  PendingVerdict submit_listing(std::string_view,
                                const std::string&) override {
    Verdict verdict;
    verdict.status = VerdictStatus::Ok;
    verdict.prediction.family_name = "stub";
    return PendingVerdict::resolved(std::move(verdict));
  }
  std::string stats_json() override { return "{\"stub\":true}"; }
  std::string control(const wire::Request&) override {
    control_started.store(true);
    while (!release.load()) std::this_thread::sleep_for(1ms);
    return "{\"status\":\"ok\",\"op\":\"reload\"}";
  }
  std::size_t queue_capacity() const override { return 256; }
  void drain() override {}

  std::atomic<bool> control_started{false};
  std::atomic<bool> release{false};
};

TEST(Reactor, ManyConcurrentClientsEachSeeOrderedResponses) {
  InferenceServer server(shared_classifier(), reactor_config());
  const std::string socket_path = unique_socket_path("many");
  std::atomic<bool> stop{false};
  DaemonOptions options;
  options.socket_path = socket_path;
  options.handle_signals = false;
  options.external_stop = &stop;

  ServerScanService service(server);
  std::uint64_t served = 0;
  std::thread daemon([&] { served = run_unix_daemon(service, options); });

  constexpr int kClients = 8;
  constexpr int kRequests = 6;
  const std::string b64 = wire::base64_encode(kListing);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = connect_retry(socket_path);
      if (!client) {
        ++failures;
        return;
      }
      for (int r = 0; r < kRequests; ++r) {
        client->send_line("c" + std::to_string(c) + "r" + std::to_string(r) +
                          " b64 " + b64);
      }
      client->finish_sending();
      std::string line;
      for (int r = 0; r < kRequests; ++r) {
        if (!client->recv_line(line) ||
            line.find("\"id\":\"c" + std::to_string(c) + "r" +
                      std::to_string(r) + "\"") == std::string::npos ||
            line.find("\"status\":\"ok\"") == std::string::npos) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  stop.store(true);
  daemon.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(served, static_cast<std::uint64_t>(kClients * kRequests));
}

TEST(Reactor, StatsPayloadCarriesReactorBlock) {
  InferenceServer server(shared_classifier(), reactor_config());
  const std::string socket_path = unique_socket_path("stats");
  std::atomic<bool> stop{false};
  DaemonOptions options;
  options.socket_path = socket_path;
  options.handle_signals = false;
  options.external_stop = &stop;
  ServerScanService service(server);
  std::thread daemon([&] { run_unix_daemon(service, options); });

  auto client = connect_retry(socket_path);
  ASSERT_NE(client, nullptr);
  client->send_line("s1 b64 " + wire::base64_encode(kListing));
  client->send_line("stats");
  client->finish_sending();
  std::string verdict;
  std::string stats;
  ASSERT_TRUE(client->recv_line(verdict));
  ASSERT_TRUE(client->recv_line(stats));
  stop.store(true);
  daemon.join();
  EXPECT_NE(stats.find("\"reactor\":{"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"accepted\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"requests\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"simd_level\":\""), std::string::npos) << stats;
  // Ordered-flush invariant: the stats entry rendered after s1 resolved.
  EXPECT_NE(stats.find("\"completed\":1"), std::string::npos) << stats;
}

TEST(Reactor, MalformedAndControlLinesAnswerOnSingleModelDaemon) {
  InferenceServer server(shared_classifier(), reactor_config());
  const std::string socket_path = unique_socket_path("malformed");
  std::atomic<bool> stop{false};
  DaemonOptions options;
  options.socket_path = socket_path;
  options.handle_signals = false;
  options.external_stop = &stop;
  ServerScanService service(server);
  std::thread daemon([&] { run_unix_daemon(service, options); });

  auto client = connect_retry(socket_path);
  ASSERT_NE(client, nullptr);
  client->send_line("# comment: no response");
  client->send_line("");
  client->send_line("m1 frobnicate zzz");
  client->send_line("reload v2 /nonexistent/model.bin");
  client->send_line("m2 b64 " + wire::base64_encode(kListing));
  client->finish_sending();
  std::vector<std::string> lines;
  std::string line;
  while (client->recv_line(line)) lines.push_back(line);
  stop.store(true);
  daemon.join();
  // Exactly one response per non-ignorable request line, in order.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"status\":\"error\""), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("requires a model registry"), std::string::npos)
      << lines[1];
  EXPECT_NE(lines[2].find("\"id\":\"m2\""), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("\"status\":\"ok\""), std::string::npos) << lines[2];
}

TEST(Reactor, TinyPendingWindowBackpressureKeepsOrder) {
  ServeConfig config = reactor_config();
  config.queue_capacity = 4;  // the pending cap: forces repeated pause/resume
  InferenceServer server(shared_classifier(), config);
  const std::string socket_path = unique_socket_path("backpressure");
  std::atomic<bool> stop{false};
  DaemonOptions options;
  options.socket_path = socket_path;
  options.handle_signals = false;
  options.external_stop = &stop;
  ServerScanService service(server);
  std::thread daemon([&] { run_unix_daemon(service, options); });

  auto client = connect_retry(socket_path);
  ASSERT_NE(client, nullptr);
  constexpr int kRequests = 64;
  const std::string b64 = wire::base64_encode(kListing);
  for (int r = 0; r < kRequests; ++r) {
    client->send_line(b64_request("b", r, b64));
  }
  client->finish_sending();
  std::vector<std::string> lines;
  std::string line;
  while (client->recv_line(line)) lines.push_back(line);
  stop.store(true);
  daemon.join();
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRequests));
  for (int r = 0; r < kRequests; ++r) {
    EXPECT_NE(lines[static_cast<std::size_t>(r)].find(
                  "\"id\":\"b" + std::to_string(r) + "\""),
              std::string::npos)
        << lines[static_cast<std::size_t>(r)];
  }
}

TEST(Reactor, BlockedControlBarrierDoesNotStallOtherConnections) {
  BlockingControlService service;
  const std::string socket_path = unique_socket_path("barrier");
  std::atomic<bool> stop{false};
  DaemonOptions options;
  options.socket_path = socket_path;
  options.handle_signals = false;
  options.external_stop = &stop;
  std::thread daemon([&] { run_unix_daemon(service, options); });

  const std::string b64 = wire::base64_encode(kListing);
  auto blocked = connect_retry(socket_path);
  ASSERT_NE(blocked, nullptr);
  blocked->send_line("reload v2 /any/path");
  blocked->send_line("after b64 " + b64);  // parked behind the barrier
  for (int i = 0; i < 1000 && !service.control_started.load(); ++i) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_TRUE(service.control_started.load());

  // Watchdog: unblock the control after a while, so a loop that stalls on
  // the unresolved barrier makes the test fail on timing instead of
  // hanging forever.
  std::thread watchdog([&] {
    std::this_thread::sleep_for(3s);
    service.release.store(true);
  });

  // While the reload is still blocked, the loop must keep serving other
  // connections — the regression was a busy-spin in pump() that never
  // returned to epoll_wait until the control resolved.
  const auto started = std::chrono::steady_clock::now();
  auto other = connect_retry(socket_path);
  ASSERT_NE(other, nullptr);
  other->send_line("o1 b64 " + b64);
  other->finish_sending();
  std::string line;
  ASSERT_TRUE(other->recv_line(line));
  EXPECT_NE(line.find("\"id\":\"o1\""), std::string::npos) << line;
  EXPECT_LT(std::chrono::steady_clock::now() - started, 2s);

  service.release.store(true);
  watchdog.join();
  blocked->finish_sending();
  std::vector<std::string> lines;
  while (blocked->recv_line(line)) lines.push_back(line);
  stop.store(true);
  daemon.join();
  // Barrier semantics held: the reload reply first, then the scan that was
  // parked behind it.
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"op\":\"reload\""), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"id\":\"after\""), std::string::npos) << lines[1];
}

TEST(Reactor, FdExhaustionParksListenerAndRecovers) {
  InferenceServer server(shared_classifier(), reactor_config());
  const std::string socket_path = unique_socket_path("emfile");
  std::atomic<bool> stop{false};
  std::atomic<int> accept_errno{EMFILE};
  DaemonOptions options;
  options.socket_path = socket_path;
  options.handle_signals = false;
  options.external_stop = &stop;
  options.inject_accept_errno = &accept_errno;
  ServerScanService service(server);
  std::thread daemon([&] { run_unix_daemon(service, options); });

  // connect() completes against the listener backlog even while accepts
  // fail; the injected EMFILE parks the listener, the backoff re-arms it,
  // and the still-queued connection is then accepted and served.
  auto client = connect_retry(socket_path);
  ASSERT_NE(client, nullptr);
  client->send_line("e1 b64 " + wire::base64_encode(kListing));
  client->send_line("stats");
  client->finish_sending();
  std::string verdict;
  std::string stats;
  ASSERT_TRUE(client->recv_line(verdict));
  ASSERT_TRUE(client->recv_line(stats));
  stop.store(true);
  daemon.join();
  EXPECT_EQ(accept_errno.load(), 0);  // the injected failure was consumed
  EXPECT_NE(verdict.find("\"id\":\"e1\""), std::string::npos) << verdict;
  EXPECT_NE(verdict.find("\"status\":\"ok\""), std::string::npos) << verdict;
  EXPECT_NE(stats.find("\"accept_parks\":1"), std::string::npos) << stats;
}

TEST(Reactor, TinyReadChunkBudgetStillServesPipelinedBurst) {
  InferenceServer server(shared_classifier(), reactor_config());
  const std::string socket_path = unique_socket_path("readchunk");
  std::atomic<bool> stop{false};
  DaemonOptions options;
  options.socket_path = socket_path;
  options.handle_signals = false;
  options.external_stop = &stop;
  options.read_chunk_bytes = 128;  // far below the burst: many read passes
  ServerScanService service(server);
  std::thread daemon([&] { run_unix_daemon(service, options); });

  auto client = connect_retry(socket_path);
  ASSERT_NE(client, nullptr);
  constexpr int kRequests = 48;
  const std::string b64 = wire::base64_encode(kListing);
  for (int r = 0; r < kRequests; ++r) {
    client->send_line(b64_request("t", r, b64));
  }
  client->finish_sending();
  std::vector<std::string> lines;
  std::string line;
  while (client->recv_line(line)) lines.push_back(line);
  stop.store(true);
  daemon.join();
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRequests));
  for (int r = 0; r < kRequests; ++r) {
    EXPECT_NE(lines[static_cast<std::size_t>(r)].find(
                  "\"id\":\"t" + std::to_string(r) + "\""),
              std::string::npos)
        << lines[static_cast<std::size_t>(r)];
  }
}

TEST(Reactor, DrainUnderNonReadingClientIsBounded) {
  InferenceServer server(shared_classifier(), reactor_config());
  const std::string socket_path = unique_socket_path("nonreader");
  std::atomic<bool> stop{false};
  DaemonOptions options;
  options.socket_path = socket_path;
  options.handle_signals = false;
  options.external_stop = &stop;
  options.drain_grace = 300ms;
  options.write_stall_timeout = 200ms;
  ServerScanService service(server);
  std::thread daemon([&] { run_unix_daemon(service, options); });

  auto client = connect_retry(socket_path);
  ASSERT_NE(client, nullptr);
  const std::string b64 = wire::base64_encode(kListing);
  for (int r = 0; r < 32; ++r) {
    client->send_line(b64_request("n", r, b64));
  }
  // Never read a single response; the daemon must still drain in bounded
  // time (grace period + stall timeout, not forever).
  std::this_thread::sleep_for(100ms);
  const auto started = std::chrono::steady_clock::now();
  stop.store(true);
  daemon.join();
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_LT(elapsed, 5s);
}

TEST(Reactor, FatalLoopFaultTearsDownConnectionsAndThrows) {
  InferenceServer server(shared_classifier(), reactor_config());
  const std::string socket_path = unique_socket_path("fault");
  std::atomic<bool> stop{false};
  std::atomic<bool> fault{false};
  DaemonOptions options;
  options.socket_path = socket_path;
  options.handle_signals = false;
  options.external_stop = &stop;
  options.inject_loop_fault = &fault;

  ServerScanService service(server);
  std::exception_ptr error;
  std::thread daemon([&] {
    try {
      run_unix_daemon(service, options);
    } catch (...) {
      error = std::current_exception();
    }
  });

  auto client = connect_retry(socket_path);
  ASSERT_NE(client, nullptr);
  client->send_line("f1 b64 " + wire::base64_encode(kListing));
  fault.store(true);

  // The PR 2 bug: the dying loop closed only the listener, so a connected
  // client (and the daemon's join on its thread) hung forever. Now every
  // connection fd is closed before the error propagates — this read
  // terminates (EOF or reset, both fine) instead of blocking.
  std::string line;
  try {
    while (client->recv_line(line)) {
    }
  } catch (const std::runtime_error&) {
    // Connection reset: also a terminated read.
  }
  daemon.join();
  ASSERT_NE(error, nullptr);
  try {
    std::rethrow_exception(error);
    FAIL() << "expected run_unix_daemon to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fault"), std::string::npos);
  }
}

TEST(Reactor, BindRefusesToReplaceNonSocketFile) {
  InferenceServer server(shared_classifier(), reactor_config());
  const std::string path = unique_socket_path("occupied");
  {
    std::ofstream out(path);
    out << "precious user data\n";
  }
  DaemonOptions options;
  options.socket_path = path;
  options.handle_signals = false;
  ServerScanService service(server);
  try {
    run_unix_daemon(service, options);
    FAIL() << "expected bind to refuse a non-socket path";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("refusing"), std::string::npos)
        << e.what();
  }
  // The file survived the refused bind.
  std::ifstream check(path);
  std::string content;
  std::getline(check, content);
  EXPECT_EQ(content, "precious user data");
  std::remove(path.c_str());
}

TEST(Reactor, StaleSocketFileIsReplacedAndRemovedOnShutdown) {
  const std::string path = unique_socket_path("stale");
  // Fabricate a stale socket file: bind and close without unlinking.
  {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ::close(fd);
  }
  InferenceServer server(shared_classifier(), reactor_config());
  std::atomic<bool> stop{false};
  DaemonOptions options;
  options.socket_path = path;
  options.handle_signals = false;
  options.external_stop = &stop;
  ServerScanService service(server);
  std::thread daemon([&] { run_unix_daemon(service, options); });
  auto client = connect_retry(path);
  EXPECT_NE(client, nullptr);  // the stale file was replaced by a live listener
  client.reset();
  stop.store(true);
  daemon.join();
  // Shutdown removed the socket file it created.
  std::ifstream gone(path);
  EXPECT_FALSE(gone.good());
}

}  // namespace
}  // namespace magic::serve

#include "serve/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/serve_test_util.hpp"
#include "serve/wire.hpp"
#include "tensor/simd/dispatch.hpp"

namespace magic::serve {
namespace {

using namespace std::chrono_literals;
using testing::shared_classifier;

constexpr const char* kListing =
    "401000 mov eax, 1\n"
    "401005 add eax, 2\n"
    "401008 ret\n";

ServeConfig daemon_config() {
  ServeConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.max_batch = 4;
  return config;
}

std::vector<std::string> run_stream(const std::string& input,
                                    InferenceServer& server,
                                    std::uint64_t* served = nullptr) {
  ServerScanService service(server);
  return testing::run_stdio(input, service, served);
}

/// Both ends of a pipe, closed on scope exit.
struct Pipe {
  Pipe() { EXPECT_EQ(::pipe2(fds, O_CLOEXEC), 0); }
  ~Pipe() {
    close_write();
    if (fds[0] >= 0) ::close(fds[0]);
  }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  int read_end() const { return fds[0]; }
  int write_end() const { return fds[1]; }
  void close_write() {
    if (fds[1] >= 0) ::close(fds[1]);
    fds[1] = -1;
  }

  int fds[2] = {-1, -1};
};

/// Reads the next '\n'-terminated line from `fd` into `line`, waiting at
/// most until `deadline`; false on timeout or EOF. `buffer` carries bytes
/// read past the line.
bool read_line_by(int fd, std::string& buffer, std::string& line,
                  std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    if (const std::size_t newline = buffer.find('\n'); newline != std::string::npos) {
      line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      return true;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd poller{fd, POLLIN, 0};
    if (::poll(&poller, 1, static_cast<int>(left.count())) <= 0) continue;
    char chunk[4096];
    const ssize_t got = ::read(fd, chunk, sizeof(chunk));
    if (got <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(got));
  }
}

TEST(ServeStream, GoldenVerdictMatchesDirectScan) {
  InferenceServer server(shared_classifier(), daemon_config());
  const Verdict direct = server.scan_listing(kListing);
  ASSERT_TRUE(direct.ok());

  std::uint64_t served = 0;
  const auto lines = run_stream(
      "req1 b64 " + wire::base64_encode(kListing) + "\n", server, &served);
  EXPECT_EQ(served, 1u);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"id\":\"req1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"family\":\"" + direct.prediction.family_name + "\""),
            std::string::npos);
}

TEST(ServeStream, ResponsesComeBackInRequestOrder) {
  InferenceServer server(shared_classifier(), daemon_config());
  const std::string b64 = wire::base64_encode(kListing);
  std::ostringstream in;
  for (int i = 0; i < 12; ++i) in << "r" << i << " b64 " << b64 << "\n";
  const auto lines = run_stream(in.str(), server);
  ASSERT_EQ(lines.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_NE(lines[static_cast<std::size_t>(i)].find(
                  "\"id\":\"r" + std::to_string(i) + "\""),
              std::string::npos)
        << lines[static_cast<std::size_t>(i)];
  }
}

TEST(ServeStream, CommentsAndBlanksIgnoredMalformedReportsError) {
  InferenceServer server(shared_classifier(), daemon_config());
  const auto lines = run_stream(
      "# a comment\n"
      "\n"
      "r1 frobnicate zzz\n"
      "r2 b64 !!!notbase64!!!\n",
      server);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"status\":\"error\""), std::string::npos);
}

TEST(ServeStream, PathRequestReadsFileAndMissingFileIsError) {
  InferenceServer server(shared_classifier(), daemon_config());
  const std::string path = ::testing::TempDir() + "magic_daemon_test_listing.asm";
  {
    std::ofstream out(path);
    out << kListing;
  }
  const auto lines = run_stream(
      "f1 path " + path + "\n" +
      "f2 path " + path + ".does-not-exist\n",
      server);
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"id\":\"f1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\":\"f2\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"status\":\"error\""), std::string::npos);
}

TEST(ServeStream, StatsLineReflectsEarlierRequests) {
  InferenceServer server(shared_classifier(), daemon_config());
  const auto lines = run_stream(
      "s1 b64 " + wire::base64_encode(kListing) + "\n" +
      "stats\n",
      server);
  ASSERT_EQ(lines.size(), 2u);
  // The stats snapshot is rendered after its ordered predecessors resolve.
  EXPECT_NE(lines[1].find("\"completed\":1"), std::string::npos) << lines[1];
  // The wire reply names the SIMD dispatch level the kernels ran at.
  const std::string level =
      magic::tensor::simd::level_name(magic::tensor::simd::active_level());
  EXPECT_NE(lines[1].find("\"simd_level\":\"" + level + "\""), std::string::npos)
      << lines[1];
}

TEST(ServeStream, QuitStopsReadingFurtherRequests) {
  InferenceServer server(shared_classifier(), daemon_config());
  std::uint64_t served = 0;
  const auto lines = run_stream(
      "q1 b64 " + wire::base64_encode(kListing) + "\n" +
      "quit\n" +
      "q2 b64 " + wire::base64_encode(kListing) + "\n",
      server, &served);
  EXPECT_EQ(served, 1u);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"id\":\"q1\""), std::string::npos);
}

// A client that waits for each verdict before sending its next request
// gets every verdict without sending keepalive lines: serve_stream writes a
// verdict when it completes, not when the next input line arrives.
TEST(ServeStream, WritesEachVerdictWhenItCompletes) {
  InferenceServer server(shared_classifier(), daemon_config());
  ServerScanService service(server);
  Pipe requests;
  Pipe responses;
  std::uint64_t served = 0;
  std::thread stdio([&] {
    served = serve_stream(requests.read_end(), responses.write_end(), service);
  });

  const std::string b64 = wire::base64_encode(kListing);
  constexpr int kRequests = 3;
  std::string buffer;
  int answered = 0;
  for (int r = 0; r < kRequests; ++r) {
    const std::string id = std::string("w") + std::to_string(r);
    wire::write_line(requests.write_end(), id + " b64 " + b64);
    std::string line;
    if (!read_line_by(responses.read_end(), buffer, line,
                      std::chrono::steady_clock::now() + 5s)) {
      ADD_FAILURE() << "no verdict for " << id << " within 5 s";
      break;
    }
    EXPECT_NE(line.find("\"id\":\"" + id + "\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos) << line;
    ++answered;
  }
  // End of input lets serve_stream return even when a verdict was missed.
  requests.close_write();
  stdio.join();
  EXPECT_EQ(answered, kRequests);
  EXPECT_EQ(served, static_cast<std::uint64_t>(kRequests));
}

// A fast pipelining client never overflows the server queue on its own:
// serve_stream keeps at most queue_capacity responses owed.
TEST(ServeStream, PipelinedBurstNeverOverflowsTheServerQueue) {
  ServeConfig config;
  config.workers = 1;
  config.max_batch = 1;
  config.queue_capacity = 2;
  InferenceServer server(shared_classifier(), config);
  ServerScanService service(server);
  Pipe requests;
  Pipe responses;
  std::thread stdio([&] {
    serve_stream(requests.read_end(), responses.write_end(), service);
    responses.close_write();
  });

  constexpr int kRequests = 600;
  const std::string b64 = wire::base64_encode(kListing);
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  // The whole burst goes out without waiting for any verdict. The write
  // end is non-blocking so a stalled serve_stream fails the test at the
  // deadline instead of hanging the writer.
  ASSERT_EQ(::fcntl(requests.write_end(), F_SETFL, O_NONBLOCK), 0);
  std::thread writer([&] {
    std::string burst;
    for (int r = 0; r < kRequests; ++r) {
      burst += 'p';
      burst += std::to_string(r);
      burst += " b64 ";
      burst += b64;
      burst += '\n';
    }
    for (std::size_t sent = 0;
         sent < burst.size() && std::chrono::steady_clock::now() < deadline;) {
      const ssize_t n = ::write(requests.write_end(), burst.data() + sent,
                                burst.size() - sent);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      } else {
        pollfd poller{requests.write_end(), POLLOUT, 0};
        ::poll(&poller, 1, 100);
      }
    }
    requests.close_write();
  });

  std::vector<std::string> lines;
  std::string buffer;
  std::string line;
  while (read_line_by(responses.read_end(), buffer, line, deadline)) {
    lines.push_back(line);
  }
  writer.join();
  stdio.join();
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRequests));
  int ok = 0;
  for (int r = 0; r < kRequests; ++r) {
    const std::string& response = lines[static_cast<std::size_t>(r)];
    EXPECT_NE(response.find("\"id\":\"p" + std::to_string(r) + "\""),
              std::string::npos)
        << response;
    if (response.find("\"status\":\"ok\"") != std::string::npos) ++ok;
  }
  EXPECT_EQ(ok, kRequests) << "rejected: " << server.stats().rejected_full;
}

TEST(UnixDaemon, RoundTripOverSocket) {
  InferenceServer server(shared_classifier(), daemon_config());

  // Keep the socket path short: sun_path is ~108 bytes.
  const std::string socket_path =
      "/tmp/magicd_test_" + std::to_string(::getpid()) + ".sock";
  std::atomic<bool> stop{false};
  DaemonOptions options;
  options.socket_path = socket_path;
  options.handle_signals = false;
  options.external_stop = &stop;

  ServerScanService service(server);
  std::uint64_t served = 0;
  std::thread daemon([&] { served = run_unix_daemon(service, options); });

  // The listener may not be bound yet; retry the connect briefly.
  std::unique_ptr<wire::UnixClient> client;
  for (int attempt = 0; attempt < 100; ++attempt) {
    try {
      client = std::make_unique<wire::UnixClient>(socket_path);
      break;
    } catch (const std::runtime_error&) {
      std::this_thread::sleep_for(10ms);
    }
  }
  ASSERT_NE(client, nullptr) << "could not connect to " << socket_path;

  const std::string b64 = wire::base64_encode(kListing);
  client->send_line("c1 b64 " + b64);
  client->send_line("c2 b64 " + b64);
  client->send_line("stats");
  client->finish_sending();

  std::vector<std::string> lines;
  std::string line;
  while (client->recv_line(line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"id\":\"c1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\":\"c2\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"submitted\":"), std::string::npos);

  stop.store(true);
  daemon.join();
  EXPECT_EQ(served, 2u);
}

TEST(UnixDaemon, SurvivesClientThatDisconnectsWithUnreadResponses) {
  // A client that vanishes before reading its responses must surface as a
  // per-connection EPIPE (MSG_NOSIGNAL in write_line), never a
  // process-killing SIGPIPE, and later clients must still be served.
  InferenceServer server(shared_classifier(), daemon_config());
  const std::string socket_path =
      "/tmp/magicd_epipe_" + std::to_string(::getpid()) + ".sock";
  std::atomic<bool> stop{false};
  DaemonOptions options;
  options.socket_path = socket_path;
  options.handle_signals = false;  // no SIG_IGN: MSG_NOSIGNAL must suffice
  options.external_stop = &stop;

  ServerScanService service(server);
  std::thread daemon([&] { run_unix_daemon(service, options); });
  const std::string b64 = wire::base64_encode(kListing);
  for (int attempt = 0; attempt < 100; ++attempt) {
    try {
      // Scope ends before any response is read: fd closes with verdicts
      // (possibly) still unflushed on the daemon side.
      wire::UnixClient vanishing(socket_path);
      vanishing.send_line("v1 b64 " + b64);
      vanishing.send_line("v2 b64 " + b64);
      break;
    } catch (const std::runtime_error&) {
      std::this_thread::sleep_for(10ms);
    }
  }

  wire::UnixClient client(socket_path);
  client.send_line("after b64 " + b64);
  client.finish_sending();
  std::vector<std::string> lines;
  std::string line;
  while (client.recv_line(line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"id\":\"after\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos);

  stop.store(true);
  daemon.join();
}

TEST(UnixDaemon, DrainMidConnectionResolvesOutstandingRequests) {
  InferenceServer server(shared_classifier(), daemon_config());
  const std::string socket_path =
      "/tmp/magicd_drain_" + std::to_string(::getpid()) + ".sock";
  std::atomic<bool> stop{false};
  DaemonOptions options;
  options.socket_path = socket_path;
  options.handle_signals = false;
  options.external_stop = &stop;

  ServerScanService service(server);
  std::thread daemon([&] { run_unix_daemon(service, options); });
  std::unique_ptr<wire::UnixClient> client;
  for (int attempt = 0; attempt < 100; ++attempt) {
    try {
      client = std::make_unique<wire::UnixClient>(socket_path);
      break;
    } catch (const std::runtime_error&) {
      std::this_thread::sleep_for(10ms);
    }
  }
  ASSERT_NE(client, nullptr);

  const std::string b64 = wire::base64_encode(kListing);
  client->send_line("d1 b64 " + b64);
  client->send_line("d2 b64 " + b64);
  // Do NOT half-close: the drain path must shut the connection down for us.
  stop.store(true);

  std::vector<std::string> lines;
  std::string line;
  while (client->recv_line(line)) lines.push_back(line);
  daemon.join();
  // Both requests were read before the drain kicked in or the connection
  // was shut down first; either way every received response is well-formed.
  for (const auto& response : lines) {
    EXPECT_NE(response.find("\"status\":"), std::string::npos) << response;
  }
}

}  // namespace
}  // namespace magic::serve

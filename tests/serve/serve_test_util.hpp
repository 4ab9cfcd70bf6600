#pragma once
// Shared fixture for the serve-layer tests: one small classifier trained on
// the synthetic separable dataset (trained once per process, the suites
// only ever read predictions from replicas), a way to keep a one-worker
// server busy so requests queue behind it, and a runner for the stdio
// front end.

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "magic/classifier.hpp"
#include "magic/core_test_util.hpp"
#include "serve/daemon.hpp"
#include "serve/scan_service.hpp"
#include "serve/server.hpp"

namespace magic::serve::testing {

inline core::DgcnnConfig small_config() {
  core::DgcnnConfig cfg;
  cfg.graph_conv_channels = {8, 8};
  cfg.pooling = core::PoolingType::SortPooling;
  cfg.remaining = core::RemainingLayer::WeightedVertices;
  cfg.hidden_dim = 16;
  cfg.dropout_rate = 0.1;
  return cfg;
}

/// A fitted classifier over the two-family separable dataset. Trains on
/// first call and reuses the instance afterwards (serving tests only read).
inline core::MagicClassifier& shared_classifier() {
  static std::unique_ptr<core::MagicClassifier> clf = [] {
    core::TrainOptions train;
    train.epochs = 12;
    train.batch_size = 8;
    train.learning_rate = 3e-3;
    auto built = std::make_unique<core::MagicClassifier>(small_config(), train, 2);
    built->fit(core::testing::separable_dataset(12, 1), 0.2);
    return built;
  }();
  return *clf;
}

/// A small scannable graph of the given label.
inline acfg::Acfg small_graph(int label, std::uint64_t seed) {
  util::Rng rng(seed);
  return core::testing::make_graph(label, 6, label == 0, rng);
}

/// A graph big enough that one forward pass takes many milliseconds —
/// used to keep a single worker busy while tests build up queue pressure.
inline acfg::Acfg plug_graph() {
  util::Rng rng(99);
  return core::testing::make_graph(0, 20000, /*chain=*/true, rng);
}

/// Submits plug_graph() to a one-worker `server` and returns once the worker
/// has taken it. Requests submitted next queue behind the busy worker, so
/// it takes them together, up to max_batch, when the plug is done.
inline PendingVerdict occupy_worker(InferenceServer& server) {
  const std::uint64_t taken = server.stats().batches;
  PendingVerdict plug = server.submit(plug_graph());
  while (server.stats().batches == taken) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return plug;
}

/// Runs serve_stream with `input` as its whole request stream: a temp
/// file is its stdin (poll(2) reports a regular file always readable) and
/// another temp file its stdout. Returns the response lines; `served`
/// receives serve_stream's count of scan requests.
inline std::vector<std::string> run_stdio(const std::string& input,
                                          ScanService& service,
                                          std::uint64_t* served = nullptr) {
  static int run = 0;
  const std::string base = ::testing::TempDir() + "magic_stdio_" +
                           std::to_string(::getpid()) + "_" + std::to_string(run++);
  const std::string in_path = base + ".in";
  const std::string out_path = base + ".out";
  {
    std::ofstream in(in_path, std::ios::binary);
    in << input;
  }
  const int in_fd = ::open(in_path.c_str(), O_RDONLY | O_CLOEXEC);
  const int out_fd =
      ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
  EXPECT_GE(in_fd, 0);
  EXPECT_GE(out_fd, 0);
  const std::uint64_t n = serve_stream(in_fd, out_fd, service);
  ::close(in_fd);
  ::close(out_fd);
  if (served != nullptr) *served = n;
  std::vector<std::string> lines;
  std::ifstream reader(out_path);
  std::string line;
  while (std::getline(reader, line)) lines.push_back(line);
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
  return lines;
}

}  // namespace magic::serve::testing

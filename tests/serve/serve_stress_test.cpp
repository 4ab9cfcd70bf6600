// Concurrency stress for magic::serve — the suite scripts/check.sh tsan is
// pointed at. Every scenario here is about thread interleavings, not model
// quality: many producers against a small queue, stop() racing active
// producers, stats() readers during load, and classify() scoring on the
// same model as a live server.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/server.hpp"
#include "serve/serve_test_util.hpp"

namespace magic::serve {
namespace {

using namespace std::chrono_literals;
using testing::shared_classifier;
using testing::small_graph;

TEST(ServeStress, ManyProducersSmallQueueEveryHandleResolves) {
  ServeConfig config;
  config.workers = 3;
  config.queue_capacity = 4;  // guarantees admission-control pressure
  config.max_batch = 2;
  InferenceServer server(shared_classifier(), config);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 30;
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> rejected{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto seed = static_cast<std::uint64_t>(p * 1000 + i);
        Verdict verdict = server.submit(small_graph(i % 2, seed)).get();
        if (verdict.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          ASSERT_EQ(verdict.status, VerdictStatus::RejectedQueueFull)
              << to_string(verdict.status);
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : producers) t.join();

  EXPECT_EQ(ok.load() + rejected.load(),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_GT(ok.load(), 0u);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, ok.load());
  EXPECT_EQ(stats.rejected_full, rejected.load());
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ServeStress, StopRacesActiveProducers) {
  ServeConfig config;
  config.workers = 2;
  config.queue_capacity = 8;
  config.max_batch = 4;
  InferenceServer server(shared_classifier(), config);

  std::atomic<bool> go{true};
  std::atomic<std::uint64_t> resolved{0};
  std::vector<std::thread> producers;
  producers.reserve(3);
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      int i = 0;
      while (go.load(std::memory_order_acquire)) {
        const auto seed = static_cast<std::uint64_t>(p * 10000 + i++);
        Verdict verdict = server.submit(small_graph(i % 2, seed)).get();
        // Any terminal status is fine; the point is that get() returns.
        EXPECT_TRUE(verdict.ok() ||
                    verdict.status == VerdictStatus::RejectedQueueFull ||
                    verdict.status == VerdictStatus::ShuttingDown)
            << to_string(verdict.status);
        resolved.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(100ms);
  server.stop(/*drain=*/false);  // abort path while producers are mid-submit
  go.store(false, std::memory_order_release);
  for (auto& t : producers) t.join();
  EXPECT_GT(resolved.load(), 0u);
}

TEST(ServeStress, StatsReadersDuringLoad) {
  ServeConfig config;
  config.workers = 2;
  config.queue_capacity = 32;
  config.max_batch = 4;
  InferenceServer server(shared_classifier(), config);

  std::atomic<bool> go{true};
  std::thread reader([&] {
    while (go.load(std::memory_order_acquire)) {
      const ServerStats stats = server.stats();
      EXPECT_LE(stats.completed, stats.submitted);
      (void)stats.to_json();
    }
  });

  std::vector<PendingVerdict> handles;
  handles.reserve(60);
  for (int i = 0; i < 60; ++i) {
    handles.push_back(server.submit(small_graph(i % 2, 500 + static_cast<std::uint64_t>(i))));
  }
  for (auto& handle : handles) (void)handle.get();
  go.store(false, std::memory_order_release);
  reader.join();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 60u);
}

// The server's workers and a concurrent multi-threaded classify() all score
// on the one shared model: const inference must keep them race-free.
TEST(ServeStress, PredictBatchConcurrentWithLiveServer) {
  core::MagicClassifier& clf = shared_classifier();
  ServeConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.max_batch = 4;
  InferenceServer server(clf, config);

  std::vector<acfg::Acfg> batch;
  batch.reserve(16);
  for (int i = 0; i < 16; ++i) {
    batch.push_back(small_graph(i % 2, 900 + static_cast<std::uint64_t>(i)));
  }

  std::atomic<bool> go{true};
  std::thread server_load([&] {
    int i = 0;
    while (go.load(std::memory_order_acquire)) {
      (void)server.scan(small_graph(i % 2, 2000 + static_cast<std::uint64_t>(i)));
      ++i;
    }
  });

  core::PredictOptions options;
  options.threads = 2;
  options.max_pack_vertices = 24;  // several packs, so both threads score
  for (int round = 0; round < 5; ++round) {
    const auto predictions = clf.classify(batch, options);
    ASSERT_EQ(predictions.size(), batch.size());
  }
  go.store(false, std::memory_order_release);
  server_load.join();
}

TEST(ServeStress, ConcurrentScanCallersShareTheServer) {
  ServeConfig config;
  config.workers = 4;
  config.queue_capacity = 128;
  config.max_batch = 4;
  InferenceServer server(shared_classifier(), config);

  std::vector<std::thread> callers;
  callers.reserve(6);
  std::atomic<std::uint64_t> ok{0};
  for (int c = 0; c < 6; ++c) {
    callers.emplace_back([&, c] {
      for (int i = 0; i < 10; ++i) {
        const auto seed = static_cast<std::uint64_t>(3000 + c * 100 + i);
        if (server.scan(small_graph(i % 2, seed)).ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(ok.load(), 60u);
}

}  // namespace
}  // namespace magic::serve

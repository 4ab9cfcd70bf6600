#include "serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "serve/serve_test_util.hpp"

namespace magic::serve {
namespace {

using namespace std::chrono_literals;
using testing::plug_graph;
using testing::shared_classifier;
using testing::small_graph;

ServeConfig quick_config() {
  ServeConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.max_batch = 4;
  return config;
}

// The server must be a pure serving wrapper: same model, same verdicts.
TEST(InferenceServer, GoldenEquivalenceWithDirectPredict) {
  core::MagicClassifier& clf = shared_classifier();
  InferenceServer server(clf, quick_config());
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const acfg::Acfg sample = small_graph(static_cast<int>(seed % 2), 10 + seed);
    const core::Prediction direct = clf.predict(sample);
    const Verdict served = server.scan(sample);
    ASSERT_TRUE(served.ok()) << to_string(served.status);
    EXPECT_EQ(served.prediction.family_index, direct.family_index);
    EXPECT_EQ(served.prediction.family_name, direct.family_name);
    ASSERT_EQ(served.prediction.probabilities.size(), direct.probabilities.size());
    for (std::size_t c = 0; c < direct.probabilities.size(); ++c) {
      EXPECT_DOUBLE_EQ(served.prediction.probabilities[c], direct.probabilities[c]);
    }
    EXPECT_GT(served.latency_ms, 0.0);
  }
}

TEST(InferenceServer, SubmitManyAllResolveOk) {
  InferenceServer server(shared_classifier(), quick_config());
  std::vector<PendingVerdict> handles;
  handles.reserve(40);
  for (int i = 0; i < 40; ++i) {
    handles.push_back(server.submit(small_graph(i % 2, 100 + static_cast<std::uint64_t>(i))));
  }
  for (auto& handle : handles) {
    const Verdict verdict = handle.get();
    EXPECT_TRUE(verdict.ok()) << to_string(verdict.status);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 40u);
  EXPECT_EQ(stats.completed, 40u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.latency_p50_ms, 0.0);
  EXPECT_GE(stats.latency_p99_ms, stats.latency_p50_ms);
}

// A lone request is scored as soon as a worker takes it: the worker never
// waits for more requests to fill a batch.
TEST(InferenceServer, LoneRequestIsScoredWithoutWaiting) {
  ServeConfig config;  // max_batch 8
  config.workers = 1;
  InferenceServer server(shared_classifier(), config);

  constexpr int kRequests = 20;
  std::vector<double> latencies;
  latencies.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    const Verdict verdict =
        server.scan(small_graph(i % 2, 200 + static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(verdict.ok()) << to_string(verdict.status);
    latencies.push_back(verdict.latency_ms);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, static_cast<std::uint64_t>(kRequests));
  ASSERT_GT(stats.batch_size_counts.size(), 1u);
  EXPECT_EQ(stats.batch_size_counts[1], static_cast<std::uint64_t>(kRequests));
  std::nth_element(latencies.begin(), latencies.begin() + kRequests / 2, latencies.end());
  EXPECT_LT(latencies[kRequests / 2], 2.0);
}

// Requests that queue while the lone worker is busy are taken together, up
// to max_batch, as soon as it is free.
TEST(InferenceServer, BatchTakesWhatQueuedBehindABusyWorker) {
  ServeConfig config;
  config.workers = 1;
  config.queue_capacity = 16;
  config.max_batch = 4;
  InferenceServer server(shared_classifier(), config);

  PendingVerdict plug = testing::occupy_worker(server);
  // The worker is scoring the plug; these ten queue behind it.
  std::vector<PendingVerdict> handles;
  handles.reserve(10);
  for (int i = 0; i < 10; ++i) {
    handles.push_back(server.submit(small_graph(i % 2, 300 + static_cast<std::uint64_t>(i))));
  }
  EXPECT_TRUE(plug.get().ok());
  for (auto& handle : handles) {
    const Verdict verdict = handle.get();
    EXPECT_TRUE(verdict.ok()) << to_string(verdict.status);
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 11u);
  EXPECT_EQ(stats.batches, 4u);
  ASSERT_EQ(stats.batch_size_counts.size(), 5u);
  EXPECT_EQ(stats.batch_size_counts[1], 1u);  // the plug
  EXPECT_EQ(stats.batch_size_counts[4], 2u);
  EXPECT_EQ(stats.batch_size_counts[2], 1u);
  EXPECT_EQ(stats.packed_batches, 3u);
}

TEST(InferenceServer, FullQueueRejectsWithStatus) {
  ServeConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  config.max_batch = 1;
  InferenceServer server(shared_classifier(), config);

  // Occupy the single worker so the queue can actually fill up.
  PendingVerdict plug = server.submit(plug_graph());
  std::vector<PendingVerdict> handles;
  handles.reserve(12);
  for (int i = 0; i < 12; ++i) {
    handles.push_back(server.submit(small_graph(0, 400 + static_cast<std::uint64_t>(i))));
  }
  std::size_t ok = 0;
  std::size_t rejected = 0;
  for (auto& handle : handles) {
    const Verdict verdict = handle.get();
    if (verdict.ok()) ++ok;
    if (verdict.status == VerdictStatus::RejectedQueueFull) ++rejected;
    EXPECT_TRUE(verdict.ok() || verdict.status == VerdictStatus::RejectedQueueFull)
        << to_string(verdict.status);
  }
  EXPECT_TRUE(plug.get().ok());
  EXPECT_EQ(ok + rejected, 12u);
  EXPECT_GE(rejected, 1u);  // capacity 2 < 12 while the worker was busy
  EXPECT_EQ(server.stats().rejected_full, rejected);
  // max_batch 1 scores every request as a pack of one, which does not
  // count as a packed batch.
  EXPECT_EQ(server.stats().packed_batches, 0u);
}

TEST(InferenceServer, ExpiredDeadlineShedsLoad) {
  ServeConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  config.max_batch = 1;
  InferenceServer server(shared_classifier(), config);

  // The plugs take many ms on the lone worker; a 1 ms deadline queued
  // behind them must be expired, not scored.
  std::vector<PendingVerdict> plugs;
  plugs.reserve(3);
  for (int i = 0; i < 3; ++i) plugs.push_back(server.submit(plug_graph()));
  PendingVerdict doomed = server.submit(small_graph(0, 500), 1ms);
  const Verdict verdict = doomed.get();
  EXPECT_EQ(verdict.status, VerdictStatus::DeadlineExpired);
  for (auto& plug : plugs) EXPECT_TRUE(plug.get().ok());
  EXPECT_EQ(server.stats().expired, 1u);
}

TEST(InferenceServer, DefaultDeadlineFromConfigApplies) {
  ServeConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  config.max_batch = 1;
  config.default_deadline = 1ms;
  InferenceServer server(shared_classifier(), config);

  std::vector<PendingVerdict> plugs;
  plugs.reserve(3);
  for (int i = 0; i < 3; ++i) {
    plugs.push_back(server.submit(plug_graph(), 0ms));  // 0 = no deadline
  }
  PendingVerdict doomed = server.submit(small_graph(0, 600));
  EXPECT_EQ(doomed.get().status, VerdictStatus::DeadlineExpired);
  for (auto& plug : plugs) EXPECT_TRUE(plug.get().ok());
}

TEST(InferenceServer, GracefulStopDrainsEverythingQueued) {
  ServeConfig config = quick_config();
  config.queue_capacity = 64;
  InferenceServer server(shared_classifier(), config);
  std::vector<PendingVerdict> handles;
  handles.reserve(20);
  for (int i = 0; i < 20; ++i) {
    handles.push_back(server.submit(small_graph(i % 2, 700 + static_cast<std::uint64_t>(i))));
  }
  server.stop(/*drain=*/true);
  for (auto& handle : handles) {
    EXPECT_TRUE(handle.get().ok());  // drain scores everything accepted
  }
  // After stop, submissions resolve immediately with ShuttingDown.
  const Verdict late = server.submit(small_graph(0, 800)).get();
  EXPECT_EQ(late.status, VerdictStatus::ShuttingDown);
}

TEST(InferenceServer, AbortStopResolvesQueuedAsShuttingDown) {
  ServeConfig config;
  config.workers = 1;
  config.queue_capacity = 64;
  config.max_batch = 1;
  InferenceServer server(shared_classifier(), config);

  PendingVerdict plug = server.submit(plug_graph());
  std::vector<PendingVerdict> handles;
  handles.reserve(10);
  for (int i = 0; i < 10; ++i) {
    handles.push_back(server.submit(small_graph(0, 900 + static_cast<std::uint64_t>(i))));
  }
  server.stop(/*drain=*/false);
  // Every handle resolves; whatever was still queued reports ShuttingDown.
  std::size_t shut_down = 0;
  for (auto& handle : handles) {
    const Verdict verdict = handle.get();
    EXPECT_TRUE(verdict.ok() || verdict.status == VerdictStatus::ShuttingDown)
        << to_string(verdict.status);
    if (verdict.status == VerdictStatus::ShuttingDown) ++shut_down;
  }
  EXPECT_GE(shut_down, 1u);
  const Verdict plugged = plug.get();
  EXPECT_TRUE(plugged.ok() || plugged.status == VerdictStatus::ShuttingDown);
}

TEST(InferenceServer, ScanListingRunsFullPipeline) {
  InferenceServer server(shared_classifier(), quick_config());
  const Verdict verdict = server.scan_listing(
      "401000 mov eax, 1\n"
      "401005 add eax, 2\n"
      "401008 ret\n");
  ASSERT_TRUE(verdict.ok()) << verdict.error;
  EXPECT_LT(verdict.prediction.family_index, 2u);
}

TEST(InferenceServer, BadListingResolvesAsError) {
  InferenceServer server(shared_classifier(), quick_config());
  const Verdict verdict = server.scan_listing("");
  EXPECT_EQ(verdict.status, VerdictStatus::Error);
  EXPECT_FALSE(verdict.error.empty());
  EXPECT_EQ(server.stats().failed, 1u);
}

TEST(InferenceServer, UnfittedModelThrowsAtConstruction) {
  core::MagicClassifier unfitted(testing::small_config());
  EXPECT_THROW(InferenceServer(unfitted, quick_config()), std::logic_error);
}

// The server keeps a reference to its classifier, so a temporary one (which
// dies at the end of the constructor call) must not compile.
static_assert(std::is_constructible_v<InferenceServer, const core::MagicClassifier&>);
static_assert(!std::is_constructible_v<InferenceServer, core::MagicClassifier>);
static_assert(!std::is_constructible_v<InferenceServer, const core::MagicClassifier&&, ServeConfig>);

// The server and direct classify() calls score on the one shared model at
// the same time: every served verdict must equal the classify() verdict of
// the same graph, while classify() keeps running on other threads.
TEST(InferenceServer, ServesSameVerdictsAsConcurrentClassify) {
  const core::MagicClassifier& clf = shared_classifier();
  std::vector<acfg::Acfg> batch;
  batch.reserve(8);
  for (int i = 0; i < 8; ++i) {
    batch.push_back(small_graph(i % 2, 1000 + static_cast<std::uint64_t>(i)));
  }
  // Two graphs per pack, so classify() really runs on two threads.
  const core::PredictOptions options{.threads = 2, .max_pack_vertices = 12};
  const std::vector<core::Prediction> direct = clf.classify(batch, options);

  InferenceServer server(clf, quick_config());
  std::atomic<bool> go{true};
  std::thread classifier_load([&] {
    while (go.load(std::memory_order_acquire)) {
      const auto again = clf.classify(batch, options);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(again[i].probabilities, direct[i].probabilities);
      }
    }
  });
  std::vector<PendingVerdict> handles;
  for (int round = 0; round < 3; ++round) {
    for (const acfg::Acfg& sample : batch) handles.push_back(server.submit(sample));
  }
  std::vector<Verdict> served;
  for (PendingVerdict& handle : handles) served.push_back(handle.get());
  go.store(false, std::memory_order_release);
  classifier_load.join();

  for (std::size_t h = 0; h < served.size(); ++h) {
    const core::Prediction& want = direct[h % batch.size()];
    ASSERT_TRUE(served[h].ok()) << to_string(served[h].status);
    EXPECT_EQ(served[h].prediction.family_index, want.family_index);
    for (std::size_t c = 0; c < want.probabilities.size(); ++c) {
      EXPECT_NEAR(served[h].prediction.probabilities[c], want.probabilities[c],
                  1e-9 * std::max(1.0, std::abs(want.probabilities[c])));
    }
  }
}

TEST(PendingVerdict, InvalidHandleThrows) {
  PendingVerdict handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_FALSE(handle.ready());
  EXPECT_THROW(handle.get(), std::logic_error);
}

}  // namespace
}  // namespace magic::serve

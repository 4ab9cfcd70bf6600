// Packed micro-batch execution in the serving layer: a flushed batch runs
// as ONE fused forward, its verdicts match one forward per graph,
// and malformed graphs fall back to per-item scoring with per-request error
// attribution while the server keeps serving.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "serve/server.hpp"
#include "serve/serve_test_util.hpp"

namespace magic::serve {
namespace {

using testing::shared_classifier;
using testing::small_graph;

/// One worker: requests submitted while occupy_worker() keeps it busy are
/// guaranteed to coalesce into a single micro-batch.
ServeConfig one_worker_batching() {
  ServeConfig config;
  config.workers = 1;
  config.queue_capacity = 64;
  config.max_batch = 8;
  return config;
}

/// An ACFG whose attribute matrix has the wrong channel count: packing it
/// with healthy graphs throws (inconsistent channels), and scoring it alone
/// throws inside the forward pass — both serve-layer failure paths.
acfg::Acfg bad_channel_graph() {
  acfg::Acfg g;
  g.out_edges.assign(3, {});
  g.out_edges[0].push_back(1);
  g.attributes = tensor::Tensor({3, 2});
  for (std::size_t i = 0; i < g.attributes.size(); ++i) g.attributes[i] = 1.0;
  return g;
}

TEST(PackedServe, MicroBatchScoresPackedAndMatchesPredict) {
  core::MagicClassifier& clf = shared_classifier();
  InferenceServer server(clf, one_worker_batching());

  std::vector<acfg::Acfg> samples;
  std::vector<PendingVerdict> handles;
  for (int i = 0; i < 6; ++i) {
    samples.push_back(small_graph(i % 2, 300 + static_cast<std::uint64_t>(i)));
  }
  handles.reserve(samples.size());
  PendingVerdict plug = testing::occupy_worker(server);
  for (const acfg::Acfg& sample : samples) handles.push_back(server.submit(sample));
  ASSERT_TRUE(plug.get().ok());

  const std::vector<core::Prediction> reference =
      core::testing::eval_forward_predictions(clf, samples);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const Verdict verdict = handles[i].get();
    ASSERT_TRUE(verdict.ok()) << to_string(verdict.status);
    const core::Prediction& direct = reference[i];
    EXPECT_EQ(verdict.prediction.family_index, direct.family_index);
    ASSERT_EQ(verdict.prediction.probabilities.size(), direct.probabilities.size());
    for (std::size_t c = 0; c < direct.probabilities.size(); ++c) {
      EXPECT_NEAR(verdict.prediction.probabilities[c], direct.probabilities[c],
                  1e-9 * std::max(1.0, std::abs(direct.probabilities[c])));
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 6u + 1u);  // the samples and the plug
  EXPECT_GE(stats.packed_batches, 1u);
}

// Both exception paths of execute_batch (the packed forward throws, or
// packing itself throws) fall back to one pack per request: every bad
// request gets its own Error verdict, healthy ones still score.
TEST(PackedServe, LeaseReleasedWhenPackedForwardThrows) {
  InferenceServer server(shared_classifier(), one_worker_batching());

  // Batch of uniformly bad graphs: GraphBatch::pack succeeds (consistent
  // 2-channel batch) but the packed forward throws channel mismatch; the
  // per-item fallback then attributes an Error to every request.
  PendingVerdict plug = testing::occupy_worker(server);
  std::vector<PendingVerdict> bad;
  for (int i = 0; i < 3; ++i) bad.push_back(server.submit(bad_channel_graph()));
  ASSERT_TRUE(plug.get().ok());
  for (auto& handle : bad) {
    const Verdict verdict = handle.get();
    EXPECT_EQ(verdict.status, VerdictStatus::Error);
    EXPECT_FALSE(verdict.error.empty());
  }

  // Mixed batch: pack() itself throws (inconsistent channels); healthy
  // requests must still score via the fallback.
  plug = testing::occupy_worker(server);
  std::vector<PendingVerdict> mixed;
  mixed.push_back(server.submit(small_graph(0, 500)));
  mixed.push_back(server.submit(bad_channel_graph()));
  mixed.push_back(server.submit(small_graph(1, 501)));
  ASSERT_TRUE(plug.get().ok());
  EXPECT_TRUE(mixed[0].get().ok());
  EXPECT_EQ(mixed[1].get().status, VerdictStatus::Error);
  EXPECT_TRUE(mixed[2].get().ok());

  // The server keeps serving after both failure modes.
  EXPECT_TRUE(server.scan(small_graph(0, 502)).ok());
}

}  // namespace
}  // namespace magic::serve

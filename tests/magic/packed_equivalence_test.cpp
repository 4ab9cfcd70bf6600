// Equivalence suite for packed inference: classify() (and the single-graph
// predict() wrapper) must agree with one DgcnnModel::forward per graph to
// 1e-9 relative tolerance across every model variant, graph-size mix
// (1..500 vertices, k smaller than the graph, edge-free graphs) and
// threading mode.

#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "magic/classifier.hpp"
#include "magic/core_test_util.hpp"
#include "magic/graph_batch.hpp"
#include "temp_file.hpp"

namespace magic::core {
namespace {

using testing::eval_forward_predictions;
using testing::make_graph;
using testing::separable_dataset;

DgcnnConfig base_config() {
  DgcnnConfig cfg;
  cfg.graph_conv_channels = {8, 8};
  cfg.hidden_dim = 16;
  cfg.dropout_rate = 0.1;
  return cfg;
}

DgcnnConfig sort_conv1d_config() {
  DgcnnConfig cfg = base_config();
  cfg.pooling = PoolingType::SortPooling;
  cfg.remaining = RemainingLayer::Conv1D;
  cfg.conv1d_channels_first = 4;
  cfg.conv1d_channels_second = 8;
  return cfg;
}

DgcnnConfig sort_wv_config() {
  DgcnnConfig cfg = base_config();
  cfg.pooling = PoolingType::SortPooling;
  cfg.remaining = RemainingLayer::WeightedVertices;
  return cfg;
}

DgcnnConfig amp_config() {
  DgcnnConfig cfg = base_config();
  cfg.pooling = PoolingType::AdaptivePooling;
  cfg.pooling_ratio = 0.3;
  cfg.conv2d_channels = 4;
  return cfg;
}

MagicClassifier fitted(const DgcnnConfig& cfg, std::uint64_t seed) {
  TrainOptions quick;
  quick.epochs = 3;
  quick.batch_size = 8;
  quick.learning_rate = 3e-3;
  MagicClassifier clf(cfg, quick, seed);
  clf.fit(separable_dataset(8, seed), 0.2);
  return clf;
}

/// Graph sizes spanning 1..500 vertices. Training graphs have 4..10
/// vertices, so the derived SortPooling k is at most 10 and every larger
/// entry exercises the k-smaller-than-graph truncation.
std::vector<acfg::Acfg> size_mix(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<acfg::Acfg> mix;
  const std::size_t sizes[] = {1, 2, 3, 5, 9, 23, 57, 140, 500};
  int label = 0;
  for (std::size_t n : sizes) {
    mix.push_back(make_graph(label % 2, n, /*chain=*/label % 2 == 0, rng));
    ++label;
  }
  // Edge-free graph: every vertex isolated (propagation = self-loops only).
  acfg::Acfg isolated = make_graph(0, 11, /*chain=*/true, rng);
  for (auto& edges : isolated.out_edges) edges.clear();
  mix.push_back(isolated);
  return mix;
}

void expect_match(const std::vector<Prediction>& got,
                  const std::vector<Prediction>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].family_index, want[i].family_index)
        << what << " sample " << i;
    EXPECT_EQ(got[i].family_name, want[i].family_name) << what << " sample " << i;
    ASSERT_EQ(got[i].probabilities.size(), want[i].probabilities.size());
    for (std::size_t c = 0; c < want[i].probabilities.size(); ++c) {
      const double a = got[i].probabilities[c];
      const double b = want[i].probabilities[c];
      // 1e-9 relative tolerance (probabilities live in [0, 1]).
      EXPECT_NEAR(a, b, 1e-9 * std::max(1.0, std::abs(b)))
          << what << " sample " << i << " class " << c;
    }
  }
}

void expect_bitwise(const std::vector<Prediction>& got,
                    const std::vector<Prediction>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].family_index, want[i].family_index) << what << " sample " << i;
    EXPECT_EQ(got[i].probabilities, want[i].probabilities) << what << " sample " << i;
  }
}

DgcnnConfig config_for(int variant) {
  switch (variant) {
    case 0: return sort_conv1d_config();
    case 1: return sort_wv_config();
    default: return amp_config();
  }
}

class PackedEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PackedEquivalence, PackedMatchesPerSampleAndPredict) {
  MagicClassifier clf = fitted(config_for(GetParam()), 60 + GetParam());
  const std::vector<acfg::Acfg> mix = size_mix(61);
  const std::vector<Prediction> baseline = eval_forward_predictions(clf, mix);

  // Every graph in one pack.
  PredictOptions packed;
  packed.max_pack_vertices = 100000;
  expect_match(clf.classify(mix, packed), baseline, "one big pack");

  // Tight vertex budget: many packs, including one oversized graph that
  // must form its own single-graph pack.
  packed.max_pack_vertices = 64;
  expect_match(clf.classify(mix, packed), baseline, "budgeted packs");

  // The single-sample wrapper agrees sample by sample.
  for (std::size_t i = 0; i < mix.size(); ++i) {
    expect_match({clf.predict(mix[i])}, {baseline[i]}, "predict wrapper");
  }
}

TEST_P(PackedEquivalence, ThreadedClassifyMatchesSerial) {
  const MagicClassifier clf = fitted(config_for(GetParam()), 70 + GetParam());
  const std::vector<acfg::Acfg> mix = size_mix(71);

  PredictOptions serial;
  serial.threads = 1;
  serial.max_pack_vertices = 128;
  const std::vector<Prediction> baseline = clf.classify(mix, serial);

  PredictOptions threaded = serial;
  threaded.threads = 4;
  expect_match(clf.classify(mix, threaded), baseline, "4-thread packed");
}

INSTANTIATE_TEST_SUITE_P(AllVariants, PackedEquivalence,
                         ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           switch (info.param) {
                             case 0: return "SortPoolConv1D";
                             case 1: return "SortPoolWeightedVertices";
                             default: return "AdaptiveMaxPooling";
                           }
                         });

// classify() is const and safe from many threads at once on every head
// variant: with the same pack budget each concurrent call scores the same
// packs, so it must reproduce the serial verdicts bit for bit.
TEST(PackedEquivalence, ConcurrentClassifyIsThreadSafe) {
  for (int variant = 0; variant < 3; ++variant) {
    const MagicClassifier clf =
        fitted(config_for(variant), 80 + static_cast<std::uint64_t>(variant));
    const std::vector<acfg::Acfg> mix = size_mix(81);
    PredictOptions serial;
    serial.max_pack_vertices = 96;
    const std::vector<Prediction> baseline = clf.classify(mix, serial);

    constexpr int kCallers = 4;
    std::vector<std::vector<Prediction>> results(kCallers);
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int t = 0; t < kCallers; ++t) {
      callers.emplace_back([&, t] {
        PredictOptions opt = serial;
        opt.threads = 1 + static_cast<std::size_t>(t % 2);
        results[static_cast<std::size_t>(t)] = clf.classify(mix, opt);
      });
    }
    for (auto& caller : callers) caller.join();
    for (int t = 0; t < kCallers; ++t) {
      expect_bitwise(results[static_cast<std::size_t>(t)], baseline, "concurrent");
    }
  }
}

TEST(PackedEquivalence, PredictPackedMatchesClassify) {
  const MagicClassifier clf = fitted(sort_wv_config(), 84);
  const std::vector<acfg::Acfg> mix = size_mix(85);
  const GraphBatch batch = GraphBatch::pack(std::span<const acfg::Acfg>(mix));
  nn::InferenceWorkspace workspace;
  PredictOptions one_pack;
  one_pack.max_pack_vertices = 100000;
  expect_bitwise(clf.predict_packed(batch, workspace), clf.classify(mix, one_pack),
                 "predict_packed");
}

// ---- Option and mode contracts -------------------------------------------

TEST(PackedEquivalence, ZeroPackBudgetThrowsForPackedEngineOnly) {
  const MagicClassifier clf = fitted(sort_wv_config(), 86);
  const std::vector<acfg::Acfg> mix = size_mix(87);
  PredictOptions bad;
  bad.max_pack_vertices = 0;
  EXPECT_THROW((void)clf.classify(mix, bad), std::invalid_argument);
}

TEST(PackedEquivalence, ClassifyEmptySpanReturnsEmpty) {
  const MagicClassifier clf = fitted(sort_wv_config(), 88);
  EXPECT_TRUE(clf.classify({}).empty());
}

TEST(PackedEquivalence, ClassifyUnfittedThrows) {
  const MagicClassifier clf(sort_wv_config());
  util::Rng rng(89);
  const std::vector<acfg::Acfg> one{make_graph(0, 5, true, rng)};
  nn::InferenceWorkspace workspace;
  EXPECT_THROW((void)clf.classify(one), std::logic_error);
  EXPECT_THROW((void)clf.predict_packed(
                   GraphBatch::pack(std::span<const acfg::Acfg>(one)), workspace),
               std::logic_error);
}

TEST(PackedEquivalence, ModelPredictBatchRejectsChannelMismatch) {
  const MagicClassifier clf = fitted(sort_wv_config(), 92);
  acfg::Acfg narrow;
  narrow.out_edges.assign(3, {});
  narrow.attributes = tensor::Tensor({3, 2});  // model expects 11 channels
  const std::vector<acfg::Acfg> graphs{narrow};
  const GraphBatch batch = GraphBatch::pack(std::span<const acfg::Acfg>(graphs));
  nn::InferenceWorkspace workspace;
  EXPECT_THROW((void)clf.model()->forward(batch, workspace), std::invalid_argument);
}

// ---- Persistence ----------------------------------------------------------

TEST(PackedEquivalence, PathSaveLoadRoundTripPreservesClassify) {
  const MagicClassifier clf = fitted(sort_conv1d_config(), 93);
  const magic::testing::ScopedTempFile file("packed_equiv_model.txt");
  clf.save(file.path());
  const MagicClassifier restored = MagicClassifier::load(file.path());
  const std::vector<acfg::Acfg> mix = size_mix(94);
  expect_match(restored.classify(mix), clf.classify(mix), "path round trip");
}

}  // namespace
}  // namespace magic::core

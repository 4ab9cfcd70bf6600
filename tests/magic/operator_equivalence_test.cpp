// Per-operator equivalence suite for the graph-convolution zoo: every
// operator (paper / sage / tag) must
//   * agree packed-vs-per-graph (one DgcnnModel::forward per graph) to 1e-9
//     across the graph-size mix below (packed inference shares one
//     block-diagonal SpMM per layer), and
//   * train bitwise thread-count-invariantly (the fixed-order gradient
//     reduction must be operator-agnostic).
// CI runs this suite under MAGIC_SIMD=scalar and native (the simd-dispatch
// matrix), so operator math is pinned on both kernel paths.

#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "magic/classifier.hpp"
#include "magic/core_test_util.hpp"
#include "magic/parallel_trainer.hpp"

namespace magic::core {
namespace {

using testing::eval_forward_predictions;
using testing::make_graph;
using testing::separable_dataset;

nn::GraphConvOperator operator_for(int variant) {
  switch (variant) {
    case 0: return nn::GraphConvOperator::Paper;
    case 1: return nn::GraphConvOperator::Sage;
    default: return nn::GraphConvOperator::Tag;
  }
}

DgcnnConfig config_for(int variant) {
  DgcnnConfig cfg;
  cfg.graph_conv_channels = {8, 8};
  cfg.hidden_dim = 16;
  cfg.dropout_rate = 0.1;
  cfg.pooling = PoolingType::AdaptivePooling;
  cfg.pooling_ratio = 0.3;
  cfg.conv2d_channels = 4;
  cfg.graph_conv_op = operator_for(variant);
  cfg.tag_hops = 2;
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

/// The size mix: 1..500 vertices plus an edge-free graph.
std::vector<acfg::Acfg> size_mix(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<acfg::Acfg> mix;
  const std::size_t sizes[] = {1, 2, 3, 5, 9, 23, 57, 140, 500};
  int label = 0;
  for (std::size_t n : sizes) {
    mix.push_back(make_graph(label % 2, n, /*chain=*/label % 2 == 0, rng));
    ++label;
  }
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
    ASSERT_EQ(got[i].probabilities.size(), want[i].probabilities.size());
    for (std::size_t c = 0; c < want[i].probabilities.size(); ++c) {
      const double a = got[i].probabilities[c];
      const double b = want[i].probabilities[c];
      EXPECT_NEAR(a, b, 1e-9 * std::max(1.0, std::abs(b)))
          << what << " sample " << i << " class " << c;
    }
  }
}

class OperatorEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(OperatorEquivalence, PackedMatchesPerSampleAndPredict) {
  MagicClassifier clf = fitted(config_for(GetParam()), 160 + GetParam());
  const std::vector<acfg::Acfg> mix = size_mix(161);
  const std::vector<Prediction> baseline = eval_forward_predictions(clf, mix);

  PredictOptions packed;
  packed.max_pack_vertices = 100000;
  expect_match(clf.classify(mix, packed), baseline, "one big pack");

  packed.max_pack_vertices = 64;
  expect_match(clf.classify(mix, packed), baseline, "budgeted packs");

  for (std::size_t i = 0; i < mix.size(); ++i) {
    expect_match({clf.predict(mix[i])}, {baseline[i]}, "predict wrapper");
  }
}

struct TrainRun {
  TrainResult result;
  std::vector<nn::Tensor> params;
};

TrainRun train_with_threads(int variant, std::size_t threads) {
  data::Dataset d = separable_dataset(12, 1);
  std::vector<std::size_t> train_idx, val_idx;
  for (std::size_t i = 0; i < d.size(); ++i) {
    (i % 5 == 0 ? val_idx : train_idx).push_back(i);
  }
  util::Rng rng(2);
  DgcnnModel model(config_for(variant), rng, 6);
  TrainOptions opt;
  opt.epochs = 3;
  opt.batch_size = 8;
  opt.learning_rate = 3e-3;
  opt.weight_decay = 1e-4;
  opt.seed = 5;
  opt.threads = threads;
  TrainRun run;
  run.result = train_model(model, d, train_idx, val_idx, opt);
  for (nn::Parameter* p : model.parameters()) run.params.push_back(p->value);
  return run;
}

void expect_bitwise_equal(const TrainRun& a, const TrainRun& b) {
  ASSERT_EQ(a.result.history.size(), b.result.history.size());
  for (std::size_t e = 0; e < a.result.history.size(); ++e) {
    // EXPECT_EQ on doubles: bitwise identity, not approximate agreement.
    EXPECT_EQ(a.result.history[e].train_loss, b.result.history[e].train_loss)
        << "epoch " << e;
    EXPECT_EQ(a.result.history[e].validation_loss,
              b.result.history[e].validation_loss)
        << "epoch " << e;
  }
  ASSERT_EQ(a.params.size(), b.params.size());
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    ASSERT_TRUE(a.params[i].same_shape(b.params[i]));
    for (std::size_t j = 0; j < a.params[i].size(); ++j) {
      EXPECT_EQ(a.params[i][j], b.params[i][j])
          << "param " << i << " element " << j;
    }
  }
}

TEST_P(OperatorEquivalence, TrainingBitwiseIdenticalAcrossThreadCounts) {
  const TrainRun serial = train_with_threads(GetParam(), 1);
  const TrainRun four = train_with_threads(GetParam(), 4);
  expect_bitwise_equal(serial, four);
}

INSTANTIATE_TEST_SUITE_P(AllOperators, OperatorEquivalence,
                         ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           switch (info.param) {
                             case 0: return "Paper";
                             case 1: return "Sage";
                             default: return "Tag";
                           }
                         });

}  // namespace
}  // namespace magic::core

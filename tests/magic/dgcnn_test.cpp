#include "magic/dgcnn.hpp"

#include <chrono>
#include <cmath>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "magic/core_test_util.hpp"
#include "nn/loss.hpp"
#include "util/check.hpp"

namespace magic::core {
namespace {

using testing::make_graph;

DgcnnConfig base_config(PoolingType pooling, RemainingLayer remaining) {
  DgcnnConfig cfg;
  cfg.num_classes = 3;
  cfg.graph_conv_channels = {8, 8};
  cfg.pooling = pooling;
  cfg.remaining = remaining;
  cfg.pooling_ratio = 0.5;
  cfg.hidden_dim = 16;
  cfg.conv1d_channels_first = 4;
  cfg.conv1d_channels_second = 8;
  cfg.conv2d_channels = 4;
  cfg.dropout_rate = 0.0;
  return cfg;
}

std::vector<DgcnnConfig> all_variants() {
  return {base_config(PoolingType::SortPooling, RemainingLayer::Conv1D),
          base_config(PoolingType::SortPooling, RemainingLayer::WeightedVertices),
          base_config(PoolingType::AdaptivePooling, RemainingLayer::Conv1D)};
}

TEST(DgcnnConfig, DerivedQuantities) {
  DgcnnConfig cfg;
  cfg.graph_conv_channels = {128, 64, 32, 32};
  EXPECT_EQ(cfg.total_graph_channels(), 256u);
  cfg.pooling_ratio = 0.64;
  EXPECT_EQ(cfg.adaptive_grid(), 6u);
  cfg.pooling_ratio = 0.2;
  EXPECT_EQ(cfg.adaptive_grid(), 3u);
  cfg.pooling_ratio = 0.05;
  EXPECT_EQ(cfg.adaptive_grid(), 3u);  // floor at 3
  EXPECT_FALSE(cfg.describe().empty());
}

TEST(DgcnnModel, ForwardOutputsLogProbsForAllVariants) {
  util::Rng data_rng(1);
  for (auto& cfg : all_variants()) {
    util::Rng rng(2);
    DgcnnModel model(cfg, rng, /*sort_k_hint=*/6);
    model.set_training(false);
    for (std::size_t n : {1u, 4u, 9u, 30u}) {
      acfg::Acfg g = make_graph(0, n, n % 2 == 0, data_rng);
      nn::Tensor out = model.forward(g);
      ASSERT_EQ(out.rank(), 1u) << cfg.describe();
      ASSERT_EQ(out.dim(0), 3u) << cfg.describe();
      double total = 0.0;
      for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_LE(out[c], 1e-9);
        total += std::exp(out[c]);
      }
      EXPECT_NEAR(total, 1.0, 1e-9) << cfg.describe() << " n=" << n;
    }
  }
}

TEST(DgcnnModel, BackwardRunsForAllVariantsAndGraphSizes) {
  util::Rng data_rng(3);
  for (auto& cfg : all_variants()) {
    util::Rng rng(4);
    DgcnnModel model(cfg, rng, 6);
    for (std::size_t n : {1u, 5u, 20u}) {
      acfg::Acfg g = make_graph(1, n, true, data_rng);
      nn::NllLoss loss;
      nn::Tensor lp = model.forward(g);
      loss.forward(lp, 1);
      EXPECT_NO_THROW(model.backward(loss.backward())) << cfg.describe();
    }
  }
}

TEST(DgcnnModel, GradientsNonZeroAfterBackward) {
  util::Rng data_rng(5);
  util::Rng rng(6);
  DgcnnConfig cfg = base_config(PoolingType::AdaptivePooling, RemainingLayer::Conv1D);
  DgcnnModel model(cfg, rng, 6);
  acfg::Acfg g = make_graph(0, 8, true, data_rng);
  nn::NllLoss loss;
  loss.forward(model.forward(g), 0);
  model.backward(loss.backward());
  double total_grad = 0.0;
  for (auto* p : model.parameters()) total_grad += tensor::norm(p->grad);
  EXPECT_GT(total_grad, 1e-8);
}

TEST(DgcnnModel, EndToEndGradientMatchesNumericOnFirstLayer) {
  // Full-model gradient check on the first graph-conv weight matrix (the
  // longest backprop path through pooling and the head).
  util::Rng data_rng(7);
  util::Rng rng(8);
  DgcnnConfig cfg = base_config(PoolingType::SortPooling, RemainingLayer::WeightedVertices);
  cfg.graph_conv_channels = {4, 3};
  cfg.hidden_dim = 5;
  cfg.graph_conv_activation = nn::Activation::Tanh;
  DgcnnModel model(cfg, rng, 4);
  model.set_training(false);
  // Eval mode disables grad caching; the numeric check needs an eval-mode
  // backward (no dropout), so opt back in like MagicClassifier::explain.
  model.set_grad_enabled(true);
  acfg::Acfg g = make_graph(0, 6, true, data_rng);

  auto loss_value = [&]() {
    nn::NllLoss loss;
    return loss.forward(model.forward(g), 2);
  };

  for (auto* p : model.parameters()) p->zero_grad();
  nn::NllLoss loss;
  loss.forward(model.forward(g), 2);
  model.backward(loss.backward());

  nn::Parameter* w0 = model.parameters().front();
  const double eps = 1e-6;
  for (std::size_t i = 0; i < std::min<std::size_t>(w0->value.size(), 8); ++i) {
    const double orig = w0->value[i];
    w0->value[i] = orig + eps;
    const double hi = loss_value();
    w0->value[i] = orig - eps;
    const double lo = loss_value();
    w0->value[i] = orig;
    const double numeric = (hi - lo) / (2 * eps);
    EXPECT_NEAR(w0->grad[i], numeric, 1e-4) << "at " << i;
  }
}

TEST(DgcnnModel, RejectsEmptyGraphAndChannelMismatch) {
  util::Rng rng(9);
  DgcnnModel model(base_config(PoolingType::SortPooling, RemainingLayer::Conv1D), rng, 4);
  acfg::Acfg empty;
  EXPECT_THROW(model.forward(empty), std::invalid_argument);
  acfg::Acfg bad;
  bad.out_edges = {{}};
  bad.attributes = tensor::Tensor({1, 5});
  EXPECT_THROW(model.forward(bad), std::invalid_argument);
}

TEST(DgcnnModel, RejectsSingleClassConfig) {
  util::Rng rng(10);
  DgcnnConfig cfg = base_config(PoolingType::SortPooling, RemainingLayer::Conv1D);
  cfg.num_classes = 1;
  EXPECT_THROW(DgcnnModel(cfg, rng, 4), std::invalid_argument);
}

TEST(DgcnnModel, SortKFloorsAtFour) {
  util::Rng rng(11);
  DgcnnConfig cfg = base_config(PoolingType::SortPooling, RemainingLayer::Conv1D);
  DgcnnModel model(cfg, rng, /*sort_k_hint=*/1);
  EXPECT_EQ(model.sort_k(), 4u);
}

TEST(DgcnnModel, ParameterCountPositiveAndStable) {
  util::Rng rng(12);
  DgcnnModel model(base_config(PoolingType::AdaptivePooling, RemainingLayer::Conv1D), rng, 4);
  const std::size_t count = model.parameter_count();
  EXPECT_GT(count, 100u);
  EXPECT_EQ(model.parameter_count(), count);
}

TEST(DgcnnModel, DeterministicInEvalMode) {
  util::Rng data_rng(13);
  util::Rng rng(14);
  DgcnnConfig cfg = base_config(PoolingType::AdaptivePooling, RemainingLayer::Conv1D);
  cfg.dropout_rate = 0.5;  // must be inert in eval mode
  DgcnnModel model(cfg, rng, 4);
  model.set_training(false);
  acfg::Acfg g = make_graph(0, 7, false, data_rng);
  nn::Tensor a = model.forward(g);
  nn::Tensor b = model.forward(g);
  EXPECT_TRUE(tensor::allclose(a, b, 0.0));
}

TEST(DgcnnModel, NormalizationAblationChangesOutput) {
  util::Rng data_rng(17);
  acfg::Acfg g = make_graph(0, 6, false, data_rng);  // star: degrees differ
  DgcnnConfig with = base_config(PoolingType::SortPooling, RemainingLayer::WeightedVertices);
  DgcnnConfig without = with;
  without.normalize_propagation = false;
  util::Rng r1(18), r2(18);
  DgcnnModel m1(with, r1, 4), m2(without, r2, 4);
  m1.set_training(false);
  m2.set_training(false);
  EXPECT_FALSE(tensor::allclose(m1.forward(g), m2.forward(g), 1e-9));
}

TEST(DgcnnModel, Log1pPreprocessingChangesOutput) {
  util::Rng data_rng(15);
  acfg::Acfg g = make_graph(0, 6, true, data_rng);
  DgcnnConfig with = base_config(PoolingType::SortPooling, RemainingLayer::WeightedVertices);
  DgcnnConfig without = with;
  without.log1p_attributes = false;
  util::Rng r1(16), r2(16);
  DgcnnModel m1(with, r1, 4), m2(without, r2, 4);
  m1.set_training(false);
  m2.set_training(false);
  EXPECT_FALSE(tensor::allclose(m1.forward(g), m2.forward(g), 1e-9));
}

TEST(DgcnnModel, ConcurrentForwardOnOneInstanceThrowsInCheckedBuild) {
  util::Rng data_rng(49);
  util::Rng rng(50);
  DgcnnModel model(base_config(PoolingType::SortPooling, RemainingLayer::WeightedVertices),
                   rng, 6);
  // Big enough that the first forward is still running when the second
  // thread enters it.
  const acfg::Acfg big = make_graph(0, 4000, true, data_rng);
  const acfg::Acfg small = make_graph(0, 6, true, data_rng);

  EXPECT_FALSE(model.forward_in_flight());
  model.set_training(false);
  std::thread first([&] { (void)model.forward(big); });
  // Wait for the first forward to actually be in flight (the 4000-vertex
  // pass runs for many milliseconds; bound the wait anyway).
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool observed = false;
  while (std::chrono::steady_clock::now() < give_up) {
    if (model.forward_in_flight()) {
      observed = true;
      break;
    }
    std::this_thread::yield();
  }
  if (observed) {
    // Entering forward on the same instance from this thread must trip the
    // guard before any layer state is touched.
    EXPECT_THROW((void)model.forward(small), util::CheckError);
  }
  first.join();
  EXPECT_FALSE(model.forward_in_flight());
  // The guard clears with the owning forward: the model is usable again.
  EXPECT_NO_THROW((void)model.forward(small));
}

// predict_batch is const and modeless: run between a training forward()
// and its backward() it must leave every cache backward() reads (and the
// dropout stream) untouched, and score with eval semantics anyway.
TEST(DgcnnModel, PredictBatchBetweenForwardAndBackwardKeepsGradients) {
  util::Rng data_rng(19);
  const acfg::Acfg g = make_graph(1, 9, true, data_rng);
  const std::vector<acfg::Acfg> others{make_graph(0, 5, false, data_rng),
                                       make_graph(1, 30, true, data_rng)};
  const GraphBatch batch = GraphBatch::pack(std::span<const acfg::Acfg>(others));
  for (DgcnnConfig cfg : all_variants()) {
    cfg.dropout_rate = 0.5;
    util::Rng rng(20);
    DgcnnModel model(cfg, rng, 6);
    nn::Tensor scored_in_training;
    auto gradients = [&](bool interleave) {
      for (auto* p : model.parameters()) p->zero_grad();
      model.set_training(true);
      model.reseed_rng(21);
      nn::NllLoss loss;
      loss.forward(model.forward(g), 1);
      if (interleave) {
        nn::InferenceWorkspace workspace;
        scored_in_training = model.predict_batch(batch, workspace);
      }
      model.backward(loss.backward());
      std::vector<nn::Tensor> grads;
      for (auto* p : model.parameters()) grads.push_back(p->grad);
      grads.push_back(model.input_gradient());
      return grads;
    };
    const std::vector<nn::Tensor> want = gradients(false);
    const std::vector<nn::Tensor> got = gradients(true);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(got[i].same_shape(want[i])) << cfg.describe();
      for (std::size_t j = 0; j < want[i].size(); ++j) {
        EXPECT_EQ(got[i][j], want[i][j]) << cfg.describe() << " tensor " << i
                                         << " element " << j;
      }
    }

    model.set_training(false);
    nn::InferenceWorkspace workspace;
    const nn::Tensor scored_in_eval = model.predict_batch(batch, workspace);
    ASSERT_TRUE(scored_in_eval.same_shape(scored_in_training));
    for (std::size_t j = 0; j < scored_in_eval.size(); ++j) {
      EXPECT_EQ(scored_in_training[j], scored_in_eval[j]) << cfg.describe();
    }
  }
}

// A pack of one on the AdaptivePooling path runs the same kernels in the
// same order as eval-mode forward(), so the log-probabilities are bitwise
// equal for every operator; one workspace serves every graph size.
TEST(DgcnnModel, PackOfOneIsBitwiseEvalForwardOnAdaptivePooling) {
  util::Rng data_rng(22);
  for (auto op : {nn::GraphConvOperator::Paper, nn::GraphConvOperator::Sage,
                  nn::GraphConvOperator::Tag}) {
    DgcnnConfig cfg = base_config(PoolingType::AdaptivePooling, RemainingLayer::Conv1D);
    cfg.graph_conv_op = op;
    cfg.dropout_rate = 0.5;
    util::Rng rng(23);
    DgcnnModel model(cfg, rng, 6);
    model.set_training(false);
    nn::InferenceWorkspace workspace;
    for (std::size_t n : {300u, 1u, 2u, 7u, 40u}) {
      const acfg::Acfg g = make_graph(static_cast<int>(n % 2), n, n % 2 == 0, data_rng);
      const nn::Tensor want = model.forward(g);
      const nn::Tensor got =
          model.predict_batch(GraphBatch::pack(std::span(&g, 1)), workspace);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t j = 0; j < want.size(); ++j) {
        EXPECT_EQ(got[j], want[j]) << cfg.describe() << " n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace magic::core

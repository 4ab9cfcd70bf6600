#include "magic/dgcnn.hpp"

#include <cmath>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "magic/core_test_util.hpp"
#include "nn/loss.hpp"
#include "test_util.hpp"

namespace magic::core {
namespace {

using testing::forward_one;
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
    for (std::size_t n : {1u, 4u, 9u, 30u}) {
      acfg::Acfg g = make_graph(0, n, n % 2 == 0, data_rng);
      nn::Tensor out = forward_one(model, g);
      ASSERT_EQ(out.rank(), 2u) << cfg.describe();
      ASSERT_EQ(out.dim(0), 1u) << cfg.describe();
      ASSERT_EQ(out.dim(1), 3u) << cfg.describe();
      double total = 0.0;
      for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_LE(out[c], 1e-9);
        total += std::exp(out[c]);
      }
      EXPECT_NEAR(total, 1.0, 1e-9) << cfg.describe() << " n=" << n;
    }
  }
}

/// One training step's gradients: forward on `tape`, NLL of `label`,
/// backward into a fresh buffer. Returns the parameter gradients followed
/// by d(loss)/d(attributes).
std::vector<nn::Tensor> train_step(const DgcnnModel& model, const acfg::Acfg& g,
                                   std::size_t label, nn::Tape& tape) {
  const nn::Tensor lp = forward_one(model, g, &tape);
  const nn::Tensor row = lp.reshape({lp.dim(1)});
  const nn::NllLoss loss;
  std::vector<nn::Tensor> grads = nn::zero_gradients(model.parameters());
  nn::Tensor input_grad =
      model.backward(loss.backward(row, label).reshape(lp.shape()), tape, grads);
  EXPECT_TRUE(tape.empty());
  grads.push_back(std::move(input_grad));
  return grads;
}

TEST(DgcnnModel, BackwardRunsForAllVariantsAndGraphSizes) {
  util::Rng data_rng(3);
  for (auto& cfg : all_variants()) {
    util::Rng rng(4);
    DgcnnModel model(cfg, rng, 6);
    for (std::size_t n : {1u, 5u, 20u}) {
      acfg::Acfg g = make_graph(1, n, true, data_rng);
      nn::Tape tape(n);
      EXPECT_NO_THROW(train_step(model, g, 1, tape)) << cfg.describe();
    }
  }
}

TEST(DgcnnModel, GradientsNonZeroAfterBackward) {
  util::Rng data_rng(5);
  util::Rng rng(6);
  DgcnnConfig cfg = base_config(PoolingType::AdaptivePooling, RemainingLayer::Conv1D);
  DgcnnModel model(cfg, rng, 6);
  acfg::Acfg g = make_graph(0, 8, true, data_rng);
  nn::Tape tape(1);
  double total_grad = 0.0;
  for (const nn::Tensor& grad : train_step(model, g, 0, tape)) {
    total_grad += tensor::norm(grad);
  }
  EXPECT_GT(total_grad, 1e-8);
}

TEST(DgcnnModel, EndToEndGradientMatchesNumericOnFirstLayer) {
  // Full-model gradient check on the first graph-conv weight matrix (the
  // longest backprop path through pooling and the head), through an
  // eval-semantics tape (no dropout) as MagicClassifier::explain runs it.
  util::Rng data_rng(7);
  util::Rng rng(8);
  DgcnnConfig cfg = base_config(PoolingType::SortPooling, RemainingLayer::WeightedVertices);
  cfg.graph_conv_channels = {4, 3};
  cfg.hidden_dim = 5;
  cfg.graph_conv_activation = nn::Activation::Tanh;
  DgcnnModel model(cfg, rng, 4);
  acfg::Acfg g = make_graph(0, 6, true, data_rng);

  auto loss_value = [&]() {
    const nn::Tensor lp = forward_one(model, g);
    return nn::NllLoss().forward(lp.reshape({lp.dim(1)}), 2);
  };

  nn::Tape tape;
  const std::vector<nn::Tensor> grads = train_step(model, g, 2, tape);

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
    EXPECT_NEAR(grads.front()[i], numeric, 1e-4) << "at " << i;
  }
}

/// The five model variants the gradient checks and golden trajectories
/// cover: AMP with every graph-conv operator, SortPooling with either head.
std::vector<DgcnnConfig> gradcheck_variants() {
  std::vector<DgcnnConfig> variants;
  for (auto op : {nn::GraphConvOperator::Paper, nn::GraphConvOperator::Sage,
                  nn::GraphConvOperator::Tag}) {
    DgcnnConfig cfg = base_config(PoolingType::AdaptivePooling, RemainingLayer::Conv1D);
    cfg.graph_conv_op = op;
    variants.push_back(cfg);
  }
  variants.push_back(base_config(PoolingType::SortPooling, RemainingLayer::WeightedVertices));
  variants.push_back(base_config(PoolingType::SortPooling, RemainingLayer::Conv1D));
  for (DgcnnConfig& cfg : variants) {
    cfg.graph_conv_channels = {4, 3};
    cfg.graph_conv_activation = nn::Activation::Tanh;
    cfg.hidden_dim = 5;
    cfg.conv2d_channels = 2;
    cfg.conv1d_channels_first = 2;
    cfg.conv1d_channels_second = 3;
    cfg.dropout_rate = 0.5;        // an unseeded tape keeps it the identity
    cfg.log1p_attributes = false;  // backward's input gradient is then d/d(raw)
  }
  return variants;
}

TEST(DgcnnModel, GradientsMatchNumericForEveryVariant) {
  // Every parameter and the input gradient of the whole model, through the
  // same forward/backward pair training runs, against central differences.
  util::Rng data_rng(24);
  const acfg::Acfg graph = make_graph(1, 7, false, data_rng);
  for (const DgcnnConfig& cfg : gradcheck_variants()) {
    SCOPED_TRACE(cfg.describe());
    util::Rng rng(25);
    DgcnnModel model(cfg, rng, 4);
    magic::testing::check_function_gradients(
        [&](const nn::Tensor& attributes, nn::Tape* tape) {
          acfg::Acfg g = graph;
          g.attributes = attributes;
          return forward_one(model, g, tape);
        },
        [&](const nn::Tensor& grad, nn::Tape& tape, nn::Gradients grads) {
          return model.backward(grad, tape, grads);
        },
        model.parameters(), graph.attributes, rng, 1e-6, 1e-6);
  }
}

TEST(DgcnnModel, BackwardRejectsATapeOverSeveralGraphs) {
  util::Rng data_rng(26);
  const std::vector<acfg::Acfg> graphs{make_graph(0, 5, true, data_rng),
                                       make_graph(1, 6, false, data_rng)};
  util::Rng rng(27);
  const DgcnnModel model(base_config(PoolingType::AdaptivePooling, RemainingLayer::Conv1D),
                         rng, 6);
  nn::InferenceWorkspace workspace;
  nn::Tape tape(1);
  const nn::Tensor lp = model.forward(
      GraphBatch::pack(std::span<const acfg::Acfg>(graphs)), workspace, &tape);
  ASSERT_EQ(lp.dim(0), 2u);
  std::vector<nn::Tensor> grads = nn::zero_gradients(model.parameters());
  EXPECT_THROW(model.backward(nn::Tensor::zeros(lp.shape()), tape, grads),
               std::invalid_argument);
}

TEST(DgcnnModel, RejectsEmptyGraphAndChannelMismatch) {
  util::Rng rng(9);
  DgcnnModel model(base_config(PoolingType::SortPooling, RemainingLayer::Conv1D), rng, 4);
  acfg::Acfg empty;
  EXPECT_THROW(forward_one(model, empty), std::invalid_argument);
  acfg::Acfg bad;
  bad.out_edges = {{}};
  bad.attributes = tensor::Tensor({1, 5});
  EXPECT_THROW(forward_one(model, bad), std::invalid_argument);
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
  cfg.dropout_rate = 0.5;  // must be inert without a seeded tape
  DgcnnModel model(cfg, rng, 4);
  acfg::Acfg g = make_graph(0, 7, false, data_rng);
  nn::Tensor a = forward_one(model, g);
  nn::Tape unseeded;
  nn::Tensor b = forward_one(model, g, &unseeded);
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
  EXPECT_FALSE(tensor::allclose(forward_one(m1, g), forward_one(m2, g), 1e-9));
}

TEST(DgcnnModel, Log1pPreprocessingChangesOutput) {
  util::Rng data_rng(15);
  acfg::Acfg g = make_graph(0, 6, true, data_rng);
  DgcnnConfig with = base_config(PoolingType::SortPooling, RemainingLayer::WeightedVertices);
  DgcnnConfig without = with;
  without.log1p_attributes = false;
  util::Rng r1(16), r2(16);
  DgcnnModel m1(with, r1, 4), m2(without, r2, 4);
  EXPECT_FALSE(tensor::allclose(forward_one(m1, g), forward_one(m2, g), 1e-9));
}

// The model keeps no per-call state: an inference forward run between a
// training forward and its backward must leave that backward's gradients
// (and the dropout stream) untouched, and score with eval semantics anyway.
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
      nn::Tape tape(21);
      const nn::Tensor lp = forward_one(model, g, &tape);
      if (interleave) {
        nn::InferenceWorkspace workspace;
        scored_in_training = model.forward(batch, workspace);
      }
      const nn::Tensor row = lp.reshape({lp.dim(1)});
      std::vector<nn::Tensor> grads = nn::zero_gradients(model.parameters());
      grads.push_back(model.backward(nn::NllLoss().backward(row, 1).reshape(lp.shape()),
                                     tape, grads));
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

    nn::InferenceWorkspace workspace;
    nn::Tape unseeded;
    const nn::Tensor scored_in_eval = model.forward(batch, workspace, &unseeded);
    ASSERT_TRUE(scored_in_eval.same_shape(scored_in_training));
    for (std::size_t j = 0; j < scored_in_eval.size(); ++j) {
      EXPECT_EQ(scored_in_training[j], scored_in_eval[j]) << cfg.describe();
    }
  }
}

// Recording changes no bit of the output: the untaped forward of a pack of
// one equals the eval-semantics forward that records for backward (the
// pair explain() runs), on the AdaptivePooling path for every operator;
// one workspace serves every graph size.
TEST(DgcnnModel, PackOfOneIsBitwiseEvalForwardOnAdaptivePooling) {
  util::Rng data_rng(22);
  for (auto op : {nn::GraphConvOperator::Paper, nn::GraphConvOperator::Sage,
                  nn::GraphConvOperator::Tag}) {
    DgcnnConfig cfg = base_config(PoolingType::AdaptivePooling, RemainingLayer::Conv1D);
    cfg.graph_conv_op = op;
    cfg.dropout_rate = 0.5;
    util::Rng rng(23);
    DgcnnModel model(cfg, rng, 6);
    nn::InferenceWorkspace workspace;
    for (std::size_t n : {300u, 1u, 2u, 7u, 40u}) {
      const acfg::Acfg g = make_graph(static_cast<int>(n % 2), n, n % 2 == 0, data_rng);
      const GraphBatch batch = GraphBatch::pack(std::span(&g, 1));
      nn::Tape tape;
      const nn::Tensor want = model.forward(batch, workspace, &tape);
      const nn::Tensor got = model.forward(batch, workspace);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t j = 0; j < want.size(); ++j) {
        EXPECT_EQ(got[j], want[j]) << cfg.describe() << " n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace magic::core

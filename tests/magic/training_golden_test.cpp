// Golden training trajectories: every epoch's train and validation loss of
// five model variants, pinned as hex-float literals. The trajectory depends
// on the construction-time rng draws, the dropout mask stream and every
// forward and backward kernel, so a moved init draw, a changed mask stream
// or a reordered sum breaks it, while the 1e-12 relative tolerance absorbs
// the last-bit differences between the scalar and AVX2 kernel tables (at
// most 3e-16 relative on these trajectories) and between -march=native and
// generic builds.
// Each variant trains at 1 and 4 threads; the trainer's fixed-order
// reduction makes both trajectories the same one.

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "magic/core_test_util.hpp"
#include "magic/trainer.hpp"

namespace magic::core {
namespace {

using testing::separable_dataset;

struct EpochLosses {
  double train;
  double validation;
};

struct Golden {
  const char* name;
  EpochLosses epochs[4];
};

// Computed with the AVX2 kernel table: 4 epochs of batch 8 on
// separable_dataset(12, 1), one validation graph in five.
constexpr Golden kGolden[] = {
    {"amp-paper",
     {{0x1.4734d4a302433p-1, 0x1.5a8b61064bd4dp-1},
      {0x1.47bbb7b51f4cep-1, 0x1.5c8f627ee218ep-1},
      {0x1.57dde6ce9304p-1, 0x1.7462246e42d7fp-1},
      {0x1.a909929204a4cp-1, 0x1.714bc93d2fc08p-1}}},
    {"amp-sage",
     {{0x1.79e2401564ef4p-1, 0x1.552554cf00f66p-1},
      {0x1.4a40b8c5105e2p-1, 0x1.497838a8fcdcap-1},
      {0x1.3bde9c482221fp-1, 0x1.35e853c714c85p-1},
      {0x1.384e4284d2a12p-1, 0x1.1f0318a7eee48p-1}}},
    {"amp-tag",
     {{0x1.698adbc670c23p-1, 0x1.48e7595d0dbfap-1},
      {0x1.487540366b4edp-1, 0x1.3cd1d1bf554b4p-1},
      {0x1.427a47ad2f252p-1, 0x1.3183796c782bbp-1},
      {0x1.3390484ae3878p-1, 0x1.1dce2ef44097ap-1}}},
    {"sort-wv",
     {{0x1.acd6183eb2c54p+0, 0x1.12adada43f36ap+0},
      {0x1.93b8e39f1a8a8p+0, 0x1.cd594c302f76dp-1},
      {0x1.235c66f2b0a78p+0, 0x1.96ee1cbef5865p-1},
      {0x1.b85b66edea1e2p-1, 0x1.7ba6ec29a783ep-1}}},
    {"sort-conv1d",
     {{0x1.640c7c9dfc241p-1, 0x1.5e5203cf59efap-1},
      {0x1.5da3985975694p-1, 0x1.5c130c4454b26p-1},
      {0x1.5c9551eee877ep-1, 0x1.588a59562c8ebp-1},
      {0x1.55101c36b751ep-1, 0x1.5531fba77575dp-1}}},
};

DgcnnConfig variant_config(std::size_t variant) {
  DgcnnConfig cfg;
  cfg.num_classes = 2;
  cfg.graph_conv_channels = {8, 8};
  cfg.hidden_dim = 16;
  cfg.dropout_rate = 0.3;
  if (variant <= 2) {
    cfg.pooling = PoolingType::AdaptivePooling;
    cfg.pooling_ratio = 0.3;
    cfg.conv2d_channels = 4;
    const nn::GraphConvOperator ops[] = {nn::GraphConvOperator::Paper,
                                         nn::GraphConvOperator::Sage,
                                         nn::GraphConvOperator::Tag};
    cfg.graph_conv_op = ops[variant];
    cfg.tag_hops = 2;
  } else {
    cfg.pooling = PoolingType::SortPooling;
    cfg.remaining =
        variant == 3 ? RemainingLayer::WeightedVertices : RemainingLayer::Conv1D;
    cfg.conv1d_channels_first = 4;
    cfg.conv1d_channels_second = 8;
  }
  return cfg;
}

TrainResult train_variant(std::size_t variant, std::size_t threads) {
  const data::Dataset d = separable_dataset(12, 1);
  std::vector<std::size_t> train_idx, val_idx;
  for (std::size_t i = 0; i < d.size(); ++i) {
    (i % 5 == 0 ? val_idx : train_idx).push_back(i);
  }
  util::Rng rng(2);
  DgcnnModel model(variant_config(variant), rng, 6);
  TrainOptions opt;
  opt.epochs = 4;
  opt.batch_size = 8;
  opt.learning_rate = 3e-3;
  opt.weight_decay = 1e-4;
  opt.seed = 5;
  opt.threads = threads;
  return train_model(model, d, train_idx, val_idx, opt);
}

void expect_close(double got, double want, const char* what, std::size_t epoch) {
  EXPECT_LE(std::abs(got - want), 1e-12 * std::abs(want))
      << what << " loss of epoch " << epoch << ": got " << std::hexfloat << got
      << ", pinned " << want;
}

class TrainingGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TrainingGolden, LossTrajectoryMatchesPinnedValues) {
  const Golden& golden = kGolden[GetParam()];
  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(std::string(golden.name) + " at " + std::to_string(threads) +
                 " threads");
    const TrainResult result = train_variant(GetParam(), threads);
    ASSERT_EQ(result.history.size(), 4u);
    for (std::size_t e = 0; e < 4; ++e) {
      expect_close(result.history[e].train_loss, golden.epochs[e].train, "train", e);
      expect_close(result.history[e].validation_loss, golden.epochs[e].validation,
                   "validation", e);
    }
  }
}

std::string variant_name(const ::testing::TestParamInfo<std::size_t>& info) {
  const char* names[] = {"AmpPaper", "AmpSage", "AmpTag", "SortPoolWeightedVertices",
                         "SortPoolConv1D"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(Variants, TrainingGolden, ::testing::Range<std::size_t>(0, 5),
                         variant_name);

}  // namespace
}  // namespace magic::core

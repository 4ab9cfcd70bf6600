// Checkpoint compatibility of the AMP model: a committed v3 file must keep
// loading and predicting as it did when it was written, and a seeded model
// must keep drawing its pre-pool conv weights from the same rng position.

#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "acfg/attributes.hpp"
#include "magic/classifier.hpp"
#include "nn/conv2d.hpp"

namespace magic::core {
namespace {

// fixtures/amp_v3_gc8x8_c2d4.model is a MAGIC-MODEL v3 file of a small AMP
// model (graph conv (8, 8), Conv2D 4, grid 3, hidden 8) trained for 4 epochs
// on separable_dataset(8, 21), written before the AMP pre-pool stage was
// fused. kPinnedProbabilities are the probabilities it gave then for the
// probe graphs below. A renamed or reordered parameter fails the load; any
// drift in the AMP forward moves the probabilities.

acfg::Acfg probe_graph(std::size_t n, std::size_t variant) {
  acfg::Acfg a;
  a.label = 0;
  a.out_edges.assign(n, {});
  for (std::size_t i = 0; i + 1 < n; ++i) a.out_edges[i].push_back(i + 1);
  for (std::size_t i = 0; i + 3 < n; i += 3) a.out_edges[i].push_back(i + 3);
  const std::size_t c = acfg::kNumChannels;
  a.attributes = tensor::Tensor({n, c});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      a.attributes[i * c + j] = static_cast<double>((i * 7 + j * 3 + variant) % 11);
    }
  }
  return a;
}

struct PinnedPrediction {
  std::size_t vertices;  // 1 and 2 are below the 3 x 3 grid
  double probabilities[2];
};

constexpr PinnedPrediction kPinnedProbabilities[] = {
    {1, {0x1.306de00ce67e1p-1, 0x1.9f243fe63303ep-2}},
    {2, {0x1.e3da8c2c7bb97p-2, 0x1.0e12b9e9c2234p-1}},
    {3, {0x1.f0eb2d87035b4p-2, 0x1.078a693c7e526p-1}},
    {7, {0x1.dfefd21ee42e8p-2, 0x1.100816f08de8dp-1}},
    {23, {0x1.c83814baf15bfp-2, 0x1.1be3f5a287522p-1}},
    {60, {0x1.dd9b997a69753p-2, 0x1.11323342cb457p-1}},
};

TEST(CheckpointCompat, PinnedAmpV3ReproducesItsProbabilities) {
  const MagicClassifier clf =
      MagicClassifier::load(std::string(MAGIC_TEST_FIXTURES) + "/amp_v3_gc8x8_c2d4.model");
  ASSERT_EQ(clf.config().pooling, PoolingType::AdaptivePooling);
  ASSERT_EQ(clf.config().adaptive_grid(), 3u);
  std::vector<acfg::Acfg> graphs;
  for (std::size_t k = 0; k < std::size(kPinnedProbabilities); ++k) {
    graphs.push_back(probe_graph(kPinnedProbabilities[k].vertices, k));
  }
  const std::vector<Prediction> packed = clf.classify(graphs);
  ASSERT_EQ(packed.size(), graphs.size());
  for (std::size_t k = 0; k < graphs.size(); ++k) {
    SCOPED_TRACE("probe graph with " + std::to_string(graphs[k].num_vertices()) +
                 " vertices");
    const Prediction single = clf.predict(graphs[k]);
    ASSERT_EQ(single.probabilities.size(), 2u);
    for (std::size_t c = 0; c < 2; ++c) {
      const double want = kPinnedProbabilities[k].probabilities[c];
      EXPECT_NEAR(single.probabilities[c], want, 1e-12);
      EXPECT_NEAR(packed[k].probabilities[c], want, 1e-12);
    }
  }
}

TEST(CheckpointCompat, SeededAmpModelDrawsConvWeightsLikeConv2D) {
  // The fused pre-pool stage takes conv2d.weight from the same point of the
  // rng stream the unfused Conv2D did: right after the graph-conv stack.
  DgcnnConfig cfg;
  cfg.graph_conv_channels = {8, 8};
  cfg.conv2d_channels = 4;
  util::Rng model_rng(99);
  DgcnnModel model(cfg, model_rng);
  util::Rng ref_rng(99);
  nn::GraphConvStack stack(cfg.graph_conv_stack_config(), ref_rng);
  nn::Conv2D conv(1, cfg.conv2d_channels, 3, 3, 1, ref_rng);

  const auto params = model.parameters();
  const std::size_t first = stack.parameters().size();
  ASSERT_GT(params.size(), first + 1);
  EXPECT_EQ(params[first]->name, "conv2d.weight");
  EXPECT_EQ(params[first + 1]->name, "conv2d.bias");
  EXPECT_TRUE(tensor::allclose(params[first]->value, conv.parameters()[0]->value, 0.0));
}

}  // namespace
}  // namespace magic::core

// Per-ISA determinism at the training level: with the dispatch pinned to a
// single SimdLevel, the parallel trainer's bitwise loss-trajectory guarantee
// must hold at any thread count — for the scalar table AND the AVX2 table.
// (Across levels only kernel-level 1e-12 agreement is promised; a full
// training trajectory is chaotic and may diverge, so cross-level assertions
// stop at a single forward pass.)

#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "magic/core_test_util.hpp"
#include "magic/parallel_trainer.hpp"
#include "tensor/simd/dispatch.hpp"

namespace magic::core {
namespace {

namespace simd = magic::tensor::simd;
using testing::separable_dataset;

DgcnnConfig small_config() {
  DgcnnConfig cfg;
  cfg.num_classes = 2;
  cfg.graph_conv_channels = {8, 8};
  cfg.pooling = PoolingType::SortPooling;
  cfg.remaining = RemainingLayer::WeightedVertices;
  cfg.hidden_dim = 16;
  cfg.dropout_rate = 0.1;
  return cfg;
}

struct TrainRun {
  TrainResult result;
  std::vector<nn::Tensor> params;
};

TrainRun train_with_threads(std::size_t threads) {
  data::Dataset d = separable_dataset(12, 1);
  std::vector<std::size_t> train_idx, val_idx;
  for (std::size_t i = 0; i < d.size(); ++i) {
    (i % 5 == 0 ? val_idx : train_idx).push_back(i);
  }
  util::Rng rng(2);
  DgcnnModel model(small_config(), rng, 6);
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

// Restores the probe-selected level even when an assertion fails mid-test.
class LevelGuard {
 public:
  LevelGuard() : original_(simd::active_level()) {}
  ~LevelGuard() { simd::set_level(original_); }

 private:
  simd::SimdLevel original_;
};

TEST(SimdTrainer, ScalarTableIsBitwiseThreadCountInvariant) {
  LevelGuard guard;
  simd::set_level(simd::SimdLevel::Scalar);
  const TrainRun serial = train_with_threads(1);
  const TrainRun four = train_with_threads(4);
  expect_bitwise_equal(serial, four);
}

TEST(SimdTrainer, Avx2TableIsBitwiseThreadCountInvariant) {
  if (!simd::avx2_available()) {
    GTEST_SKIP() << "AVX2 kernels unavailable on this CPU/build";
  }
  LevelGuard guard;
  simd::set_level(simd::SimdLevel::Avx2);
  const TrainRun serial = train_with_threads(1);
  const TrainRun four = train_with_threads(4);
  expect_bitwise_equal(serial, four);
}

TEST(SimdTrainer, ForwardPassAgreesAcrossLevels) {
  if (!simd::avx2_available()) {
    GTEST_SKIP() << "AVX2 kernels unavailable on this CPU/build";
  }
  LevelGuard guard;
  data::Dataset d = separable_dataset(4, 9);
  util::Rng rng(10);
  const DgcnnModel model(small_config(), rng, 6);

  simd::set_level(simd::SimdLevel::Scalar);
  std::vector<nn::Tensor> scalar_out;
  for (const auto& sample : d.samples) scalar_out.push_back(testing::forward_one(model, sample));

  simd::set_level(simd::SimdLevel::Avx2);
  for (std::size_t s = 0; s < d.samples.size(); ++s) {
    const nn::Tensor avx2_out = testing::forward_one(model, d.samples[s]);
    ASSERT_TRUE(avx2_out.same_shape(scalar_out[s]));
    for (std::size_t i = 0; i < avx2_out.size(); ++i) {
      // One forward composes a handful of kernels, so allow a little
      // headroom over the single-kernel 1e-12 contract.
      const double tol = 1e-9 * std::max(1.0, std::abs(scalar_out[s][i]));
      EXPECT_NEAR(avx2_out[i], scalar_out[s][i], tol)
          << "sample " << s << " logit " << i;
    }
  }
}

}  // namespace
}  // namespace magic::core

#include "magic/parallel_trainer.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "magic/core_test_util.hpp"

namespace magic::core {
namespace {

using testing::separable_dataset;

DgcnnConfig small_config() {
  DgcnnConfig cfg;
  cfg.num_classes = 2;
  cfg.graph_conv_channels = {8, 8};
  cfg.pooling = PoolingType::SortPooling;
  cfg.remaining = RemainingLayer::WeightedVertices;
  cfg.hidden_dim = 16;
  cfg.dropout_rate = 0.1;  // nonzero: exercises per-sample mask reseeding
  return cfg;
}

TrainOptions fast_train(std::size_t epochs, std::size_t threads) {
  TrainOptions opt;
  opt.epochs = epochs;
  opt.batch_size = 8;
  opt.learning_rate = 3e-3;
  opt.weight_decay = 1e-4;
  opt.seed = 5;
  opt.threads = threads;
  return opt;
}

struct TrainRun {
  TrainResult result;
  std::vector<nn::Tensor> params;
};

TrainRun train_with_threads(std::size_t threads, std::size_t batch_size = 8) {
  data::Dataset d = separable_dataset(12, 1);
  std::vector<std::size_t> train_idx, val_idx;
  for (std::size_t i = 0; i < d.size(); ++i) {
    (i % 5 == 0 ? val_idx : train_idx).push_back(i);
  }
  util::Rng rng(2);
  DgcnnModel model(small_config(), rng, 6);
  TrainOptions opt = fast_train(4, threads);
  opt.batch_size = batch_size;
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
    EXPECT_EQ(a.result.history[e].validation_accuracy,
              b.result.history[e].validation_accuracy)
        << "epoch " << e;
  }
  EXPECT_EQ(a.result.best_validation_loss, b.result.best_validation_loss);
  EXPECT_EQ(a.result.best_epoch, b.result.best_epoch);
  ASSERT_EQ(a.params.size(), b.params.size());
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    ASSERT_TRUE(a.params[i].same_shape(b.params[i]));
    for (std::size_t j = 0; j < a.params[i].size(); ++j) {
      EXPECT_EQ(a.params[i][j], b.params[i][j])
          << "param " << i << " element " << j;
    }
  }
}

TEST(ParallelTrainer, BitwiseIdenticalAcrossThreadCounts) {
  const TrainRun serial = train_with_threads(1);
  const TrainRun two = train_with_threads(2);
  const TrainRun four = train_with_threads(4);
  expect_bitwise_equal(serial, two);
  expect_bitwise_equal(serial, four);
}

TEST(ParallelTrainer, FullBatchModeIsAlsoThreadCountInvariant) {
  // batch_size == 0 means one full-batch step per epoch.
  const TrainRun serial = train_with_threads(1, 0);
  const TrainRun four = train_with_threads(4, 0);
  expect_bitwise_equal(serial, four);
}

TEST(ParallelTrainer, ParallelEvaluateMatchesSerial) {
  data::Dataset d = separable_dataset(10, 3);
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < d.size(); ++i) idx.push_back(i);
  util::Rng rng(4);
  DgcnnModel model(small_config(), rng, 6);
  const EvalResult serial = evaluate_model(model, d, idx);
  const EvalResult parallel = evaluate_model(model, d, idx, 4);
  EXPECT_EQ(serial.mean_log_loss, parallel.mean_log_loss);
  ASSERT_EQ(serial.probabilities.size(), parallel.probabilities.size());
  for (std::size_t i = 0; i < serial.probabilities.size(); ++i) {
    EXPECT_EQ(serial.probabilities[i], parallel.probabilities[i]) << "row " << i;
  }
  EXPECT_EQ(serial.labels, parallel.labels);
  EXPECT_EQ(serial.confusion.accuracy(), parallel.confusion.accuracy());
  EXPECT_EQ(serial.confusion.total(), parallel.confusion.total());
}

TEST(ParallelTrainer, ZeroThreadsResolvesToHardwareConcurrency) {
  // threads == 0 trains on all cores and must still match the serial run.
  const TrainRun serial = train_with_threads(1);
  const TrainRun automatic = train_with_threads(0);
  expect_bitwise_equal(serial, automatic);
}

TEST(ParallelTrainer, PerSampleSeedIsPureAndPositionSensitive) {
  EXPECT_EQ(per_sample_seed(7, 0, 0), per_sample_seed(7, 0, 0));
  EXPECT_NE(per_sample_seed(7, 0, 0), per_sample_seed(7, 0, 1));
  EXPECT_NE(per_sample_seed(7, 0, 0), per_sample_seed(7, 1, 0));
  EXPECT_NE(per_sample_seed(7, 0, 0), per_sample_seed(8, 0, 0));
}

}  // namespace
}  // namespace magic::core

#include "magic/classifier.hpp"

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "magic/core_test_util.hpp"
#include "temp_file.hpp"
#include "util/thread_pool.hpp"

namespace magic::core {
namespace {

using testing::make_graph;
using testing::separable_dataset;

DgcnnConfig small_config() {
  DgcnnConfig cfg;
  cfg.graph_conv_channels = {8, 8};
  cfg.pooling = PoolingType::SortPooling;
  cfg.remaining = RemainingLayer::WeightedVertices;
  cfg.hidden_dim = 16;
  cfg.dropout_rate = 0.1;
  return cfg;
}

TrainOptions fast_train() {
  TrainOptions opt;
  opt.epochs = 20;
  opt.batch_size = 8;
  opt.learning_rate = 3e-3;
  return opt;
}

TEST(MagicClassifier, FitPredictOnSeparableData) {
  data::Dataset d = separable_dataset(15, 1);
  MagicClassifier clf(small_config(), fast_train(), 2);
  clf.fit(d, 0.2);
  EXPECT_TRUE(clf.fitted());
  util::Rng rng(3);
  Prediction p0 = clf.predict(make_graph(0, 6, true, rng));
  Prediction p1 = clf.predict(make_graph(1, 6, false, rng));
  EXPECT_EQ(p0.family_name, "arith_chain");
  EXPECT_EQ(p1.family_name, "mov_star");
  EXPECT_EQ(p0.probabilities.size(), 2u);
}

TEST(MagicClassifier, PredictBeforeFitThrows) {
  MagicClassifier clf(small_config());
  util::Rng rng(4);
  EXPECT_THROW(clf.predict(make_graph(0, 4, true, rng)), std::logic_error);
  std::ostringstream oss;
  EXPECT_THROW(clf.save(oss), std::logic_error);
}

TEST(MagicClassifier, PredictListingRunsFullPipeline) {
  data::Dataset d = separable_dataset(10, 5);
  MagicClassifier clf(small_config(), fast_train(), 6);
  clf.fit(d, 0.2);
  // Any parseable listing must classify into one of the two families.
  Prediction p = clf.predict_listing(
      "401000 mov eax, 1\n"
      "401005 add eax, 2\n"
      "401008 ret\n");
  EXPECT_LT(p.family_index, 2u);
}

TEST(MagicClassifier, SaveLoadRoundTripPreservesPredictions) {
  data::Dataset d = separable_dataset(12, 7);
  MagicClassifier clf(small_config(), fast_train(), 8);
  clf.fit(d, 0.2);

  std::stringstream ss;
  clf.save(ss);
  MagicClassifier restored = MagicClassifier::load(ss);
  EXPECT_TRUE(restored.fitted());
  EXPECT_EQ(restored.family_names(), clf.family_names());

  util::Rng rng(9);
  for (int i = 0; i < 5; ++i) {
    acfg::Acfg g = make_graph(i % 2, 5 + static_cast<std::size_t>(i), i % 2 == 0, rng);
    Prediction a = clf.predict(g);
    Prediction b = restored.predict(g);
    EXPECT_EQ(a.family_index, b.family_index);
    ASSERT_EQ(a.probabilities.size(), b.probabilities.size());
    for (std::size_t c = 0; c < a.probabilities.size(); ++c) {
      EXPECT_NEAR(a.probabilities[c], b.probabilities[c], 1e-12);
    }
  }
}

TEST(MagicClassifier, SaveLoadWorksForAdaptivePoolingVariant) {
  DgcnnConfig cfg = small_config();
  cfg.pooling = PoolingType::AdaptivePooling;
  cfg.conv2d_channels = 4;
  data::Dataset d = separable_dataset(8, 10);
  TrainOptions quick = fast_train();
  quick.epochs = 3;
  MagicClassifier clf(cfg, quick, 11);
  clf.fit(d, 0.2);
  std::stringstream ss;
  clf.save(ss);
  MagicClassifier restored = MagicClassifier::load(ss);
  util::Rng rng(12);
  acfg::Acfg g = make_graph(0, 7, true, rng);
  EXPECT_EQ(clf.predict(g).family_index, restored.predict(g).family_index);
}

TEST(MagicClassifier, LoadRejectsCorruptHeader) {
  std::stringstream ss("NOT-A-MODEL v9\n");
  EXPECT_THROW(MagicClassifier::load(ss), std::runtime_error);
}

TEST(MagicClassifier, LoadRejectsTruncatedParams) {
  data::Dataset d = separable_dataset(6, 13);
  TrainOptions quick = fast_train();
  quick.epochs = 2;
  MagicClassifier clf(small_config(), quick, 14);
  clf.fit(d, 0.2);
  std::stringstream ss;
  clf.save(ss);
  std::string text = ss.str();
  text.resize(text.size() * 3 / 4);
  std::stringstream truncated(text);
  EXPECT_THROW(MagicClassifier::load(truncated), std::runtime_error);
}

TEST(MagicClassifier, EvaluateReportsMetrics) {
  data::Dataset d = separable_dataset(10, 15);
  MagicClassifier clf(small_config(), fast_train(), 16);
  clf.fit(d, 0.2);
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < d.size(); ++i) idx.push_back(i);
  EvalResult eval = clf.evaluate(d, idx);
  EXPECT_EQ(eval.confusion.total(), d.size());
  EXPECT_GT(eval.confusion.accuracy(), 0.8);
}

TEST(MagicClassifier, PredictBatchMatchesSerialPredictions) {
  data::Dataset d = separable_dataset(8, 19);
  MagicClassifier clf(small_config(), fast_train(), 20);
  clf.fit(d, 0.2);
  util::Rng rng(21);
  std::vector<acfg::Acfg> batch;
  for (int i = 0; i < 9; ++i) {
    batch.push_back(make_graph(i % 2, 4 + static_cast<std::size_t>(i % 5), i % 2 == 0, rng));
  }
  PredictOptions parallel_options;
  parallel_options.threads = 3;
  parallel_options.max_pack_vertices = 8;  // several packs across the threads
  const auto parallel = clf.classify(batch, parallel_options);
  ASSERT_EQ(parallel.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Prediction serial = clf.predict(batch[i]);
    EXPECT_EQ(parallel[i].family_index, serial.family_index);
    for (std::size_t c = 0; c < serial.probabilities.size(); ++c) {
      EXPECT_NEAR(parallel[i].probabilities[c], serial.probabilities[c], 1e-9);
    }
  }
}

TEST(MagicClassifier, PredictBatchEmptyAndUnfitted) {
  MagicClassifier unfitted(small_config());
  EXPECT_THROW(unfitted.classify({}), std::logic_error);
  data::Dataset d = separable_dataset(6, 22);
  TrainOptions quick = fast_train();
  quick.epochs = 2;
  MagicClassifier clf(small_config(), quick, 23);
  clf.fit(d, 0.2);
  EXPECT_TRUE(clf.classify({}, PredictOptions{.threads = 2}).empty());
}

TEST(MagicClassifier, ExplainProducesNormalizedSaliency) {
  data::Dataset d = separable_dataset(10, 25);
  MagicClassifier clf(small_config(), fast_train(), 26);
  clf.fit(d, 0.2);
  util::Rng rng(27);
  acfg::Acfg g = make_graph(0, 7, true, rng);
  Explanation ex = clf.explain(g);
  EXPECT_EQ(ex.vertex_saliency.size(), g.num_vertices());
  EXPECT_EQ(ex.channel_saliency.size(), g.num_channels());
  double vsum = 0.0, csum = 0.0;
  for (double v : ex.vertex_saliency) {
    EXPECT_GE(v, 0.0);
    vsum += v;
  }
  for (double v : ex.channel_saliency) {
    EXPECT_GE(v, 0.0);
    csum += v;
  }
  EXPECT_NEAR(vsum, 1.0, 1e-9);
  EXPECT_NEAR(csum, 1.0, 1e-9);
  // The prediction embedded in the explanation matches predict().
  EXPECT_EQ(ex.prediction.family_index, clf.predict(g).family_index);
}

TEST(MagicClassifier, ExplainDoesNotPerturbTrainingGradients) {
  // explain() between a training forward and its backward leaves that
  // backward's gradients bit for bit unchanged: it works on its own tape
  // and gradient buffer.
  data::Dataset d = separable_dataset(8, 28);
  MagicClassifier clf(small_config(), fast_train(), 29);
  clf.fit(d, 0.2);
  util::Rng rng(30);
  const acfg::Acfg g = make_graph(1, 6, false, rng);
  const acfg::Acfg other = make_graph(0, 9, true, rng);
  const DgcnnModel& model = *clf.model();
  auto training_gradients = [&](bool explain_between) {
    nn::Tape tape(31);
    const nn::Tensor lp = testing::forward_one(model, g, &tape);
    if (explain_between) clf.explain(other);
    std::vector<nn::Tensor> grads = nn::zero_gradients(model.parameters());
    const nn::Tensor row = lp.reshape({lp.dim(1)});
    model.backward(nn::NllLoss().backward(row, 1).reshape(lp.shape()), tape, grads);
    return grads;
  };
  const std::vector<nn::Tensor> want = training_gradients(false);
  const std::vector<nn::Tensor> got = training_gradients(true);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    for (std::size_t j = 0; j < want[i].size(); ++j) ASSERT_EQ(got[i][j], want[i][j]);
  }
}

// explain() and classify() are const: four threads explaining and
// classifying on one classifier at once reproduce the serial results bit
// for bit (and run clean under TSan).
TEST(MagicClassifier, ConcurrentExplainAndClassifyMatchSerial) {
  data::Dataset d = separable_dataset(8, 32);
  MagicClassifier trained(small_config(), fast_train(), 33);
  trained.fit(d, 0.2);
  const MagicClassifier& clf = trained;
  util::Rng rng(34);
  std::vector<acfg::Acfg> graphs;
  for (std::size_t i = 0; i < 6; ++i) {
    graphs.push_back(make_graph(static_cast<int>(i % 2), 3 + 4 * i, i % 2 == 0, rng));
  }
  std::vector<Explanation> serial_explanations;
  for (const acfg::Acfg& g : graphs) serial_explanations.push_back(clf.explain(g));
  const std::vector<Prediction> serial_predictions = clf.classify(graphs);

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<Explanation>> explained(kThreads);
  std::vector<std::vector<Prediction>> classified(kThreads);
  {
    util::ThreadPool pool(kThreads);
    pool.parallel_for(kThreads, [&](std::size_t t) {
      for (std::size_t round = 0; round < 3; ++round) {
        if ((t + round) % 2 == 0) {
          explained[t].clear();
          for (const acfg::Acfg& g : graphs) explained[t].push_back(clf.explain(g));
        } else {
          classified[t] = clf.classify(graphs);
        }
      }
    });
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(explained[t].size(), graphs.size());
    ASSERT_EQ(classified[t].size(), graphs.size());
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const Explanation& want = serial_explanations[i];
      const Explanation& got = explained[t][i];
      EXPECT_EQ(got.prediction.family_index, want.prediction.family_index);
      EXPECT_EQ(got.prediction.probabilities, want.prediction.probabilities);
      EXPECT_EQ(got.vertex_saliency, want.vertex_saliency);
      EXPECT_EQ(got.channel_saliency, want.channel_saliency);
      EXPECT_EQ(classified[t][i].family_index, serial_predictions[i].family_index);
      EXPECT_EQ(classified[t][i].probabilities, serial_predictions[i].probabilities);
    }
  }
}

TEST(MagicClassifier, FileRoundTrip) {
  data::Dataset d = separable_dataset(6, 17);
  TrainOptions quick = fast_train();
  quick.epochs = 2;
  MagicClassifier clf(small_config(), quick, 18);
  clf.fit(d, 0.2);
  const magic::testing::ScopedTempFile file("magic_model.txt");
  clf.save(file.path());
  MagicClassifier restored = MagicClassifier::load(file.path());
  EXPECT_EQ(restored.family_names(), clf.family_names());
}

}  // namespace
}  // namespace magic::core

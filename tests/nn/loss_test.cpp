#include "nn/loss.hpp"

#include <cmath>

#include "test_util.hpp"

namespace magic::testing {
namespace {

TEST(LogSoftmax, OutputsAreLogProbabilities) {
  nn::LogSoftmax ls;
  Tensor y = ls.forward(Tensor(tensor::Shape{1, 3}, {1.0, 2.0, 3.0}), nullptr);
  double total = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_LE(y[i], 0.0);
    total += std::exp(y[i]);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(LogSoftmax, ShiftInvariance) {
  nn::LogSoftmax ls;
  Tensor a = ls.forward(Tensor(tensor::Shape{1, 3}, {1.0, 2.0, 3.0}), nullptr);
  Tensor b = ls.forward(Tensor(tensor::Shape{1, 3}, {101.0, 102.0, 103.0}), nullptr);
  EXPECT_TRUE(tensor::allclose(a, b, 1e-9));
}

TEST(LogSoftmax, NumericallyStableForLargeInputs) {
  nn::LogSoftmax ls;
  Tensor y = ls.forward(Tensor(tensor::Shape{1, 2}, {1000.0, 0.0}), nullptr);
  EXPECT_NEAR(y[0], 0.0, 1e-9);
  EXPECT_TRUE(std::isfinite(y[1]));
}

TEST(LogSoftmax, GradientMatchesNumeric) {
  util::Rng rng(1);
  nn::LogSoftmax ls;
  check_module_gradients(ls, Tensor::uniform({2, 5}, rng, -2, 2), rng);
}

TEST(LogSoftmax, RejectsRank3) {
  nn::LogSoftmax ls;
  EXPECT_THROW(ls.forward(Tensor::zeros({2, 2, 2}), nullptr), std::invalid_argument);
}

TEST(NllLoss, PicksTargetLogProb) {
  const nn::NllLoss loss;
  Tensor lp(tensor::Shape{3}, {-0.1, -2.0, -3.0});
  EXPECT_NEAR(loss.forward(lp, 1), 2.0, 1e-12);
}

TEST(NllLoss, BackwardIsMinusOneHot) {
  const nn::NllLoss loss;
  Tensor lp(tensor::Shape{3}, {-1.0, -1.0, -1.0});
  Tensor g = loss.backward(lp, 2);
  EXPECT_EQ(g[0], 0.0);
  EXPECT_EQ(g[1], 0.0);
  EXPECT_EQ(g[2], -1.0);
}

TEST(NllLoss, RejectsBadTarget) {
  const nn::NllLoss loss;
  Tensor lp(tensor::Shape{2}, {-1.0, -1.0});
  EXPECT_THROW(loss.forward(lp, 2), std::invalid_argument);
  EXPECT_THROW(loss.backward(lp, 2), std::invalid_argument);
}

TEST(CrossEntropy, CombinedGradientIsSoftmaxMinusOneHot) {
  // The canonical identity d(NLL ∘ LogSoftmax)/dlogits = p - onehot(y).
  nn::LogSoftmax ls;
  const nn::NllLoss loss;
  nn::Tape tape;
  Tensor logits(tensor::Shape{1, 3}, {0.5, -1.0, 2.0});
  Tensor lp = ls.forward(logits, &tape).reshape({3});
  Tensor g = ls.backward(loss.backward(lp, 0).reshape({1, 3}), tape, {});
  Tensor p = nn::exp_probs(lp);
  EXPECT_NEAR(g[0], p[0] - 1.0, 1e-12);
  EXPECT_NEAR(g[1], p[1], 1e-12);
  EXPECT_NEAR(g[2], p[2], 1e-12);
}

TEST(ExpProbs, InvertsLog) {
  Tensor lp(tensor::Shape{2}, {std::log(0.25), std::log(0.75)});
  Tensor p = nn::exp_probs(lp);
  EXPECT_NEAR(p[0], 0.25, 1e-12);
  EXPECT_NEAR(p[1], 0.75, 1e-12);
}

}  // namespace
}  // namespace magic::testing

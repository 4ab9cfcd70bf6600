#include "nn/optimizer.hpp"

#include <cmath>

#include "test_util.hpp"

namespace magic::testing {
namespace {

// Minimizes f(w) = ||w - target||^2 with Adam at learning rate `lr`;
// returns the final distance to the optimum.
double optimize_quadratic(double lr, std::size_t steps) {
  nn::Parameter w("w", Tensor(tensor::Shape{3}, {5.0, -4.0, 2.0}));
  const Tensor target(tensor::Shape{3}, {1.0, 2.0, -1.0});
  nn::Adam adam({&w}, lr);
  std::vector<Tensor> grads = nn::zero_gradients(std::vector<nn::Parameter*>{&w});
  for (std::size_t s = 0; s < steps; ++s) {
    for (std::size_t i = 0; i < 3; ++i) {
      grads[0][i] = 2.0 * (w.value[i] - target[i]);
    }
    adam.step(grads);
  }
  double dist = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    dist += (w.value[i] - target[i]) * (w.value[i] - target[i]);
  }
  return std::sqrt(dist);
}

TEST(Adam, ConvergesOnQuadratic) {
  EXPECT_LT(optimize_quadratic(0.1, 500), 1e-4);
}

TEST(Adam, FirstStepIsLearningRateSized) {
  // With bias correction, the first Adam step has magnitude ~lr.
  nn::Parameter w("w", Tensor(tensor::Shape{1}, {0.0}));
  nn::Adam adam({&w}, 0.01);
  const std::vector<Tensor> grads{Tensor(tensor::Shape{1}, {123.0})};  // any positive gradient
  adam.step(grads);
  EXPECT_NEAR(w.value[0], -0.01, 1e-6);
}

TEST(Optimizer, WeightDecayPullsTowardZero) {
  nn::Parameter w("w", Tensor(tensor::Shape{1}, {10.0}));
  nn::Adam adam({&w}, 0.1, 0.9, 0.999, 1e-8, /*weight_decay=*/0.5);
  const std::vector<Tensor> zero_loss_gradient{Tensor::zeros({1})};
  for (int i = 0; i < 200; ++i) adam.step(zero_loss_gradient);  // only decay acts
  EXPECT_LT(std::abs(w.value[0]), 1.0);
}

TEST(Adam, RejectsMismatchedGradients) {
  nn::Parameter w("w", Tensor(tensor::Shape{2}, {1.0, 1.0}));
  nn::Adam adam({&w}, 0.1);
  EXPECT_THROW(adam.step({}), std::invalid_argument);
  const std::vector<Tensor> wrong_shape{Tensor::zeros({3})};
  EXPECT_THROW(adam.step(wrong_shape), std::invalid_argument);
}

TEST(ReduceLrOnPlateau, DecaysAfterTwoConsecutiveIncreases) {
  // §V-B: "Once the validation loss increases for two continuous epochs, we
  // decrease the learning rate by a factor of ten".
  nn::Parameter w("w", Tensor(tensor::Shape{1}, {0.0}));
  nn::Adam adam({&w}, 1e-3);
  nn::ReduceLrOnPlateau sched(adam, 2, 0.1);
  EXPECT_FALSE(sched.observe(1.0));
  EXPECT_FALSE(sched.observe(0.9));   // improving
  EXPECT_FALSE(sched.observe(0.95));  // first increase
  EXPECT_TRUE(sched.observe(1.05));   // second increase -> decay
  EXPECT_NEAR(adam.lr(), 1e-4, 1e-12);
}

TEST(ReduceLrOnPlateau, ImprovementResetsCounter) {
  nn::Parameter w("w", Tensor(tensor::Shape{1}, {0.0}));
  nn::Adam adam({&w}, 1e-3);
  nn::ReduceLrOnPlateau sched(adam, 2, 0.1);
  sched.observe(1.0);
  sched.observe(1.1);   // increase #1
  sched.observe(0.5);   // improvement resets
  sched.observe(0.6);   // increase #1 again
  EXPECT_FALSE(sched.observe(0.55));  // improvement again
  EXPECT_NEAR(adam.lr(), 1e-3, 1e-12);
}

TEST(ReduceLrOnPlateau, RespectsMinLr) {
  nn::Parameter w("w", Tensor(tensor::Shape{1}, {0.0}));
  nn::Adam adam({&w}, 1e-6);
  nn::ReduceLrOnPlateau sched(adam, 1, 0.1, /*min_lr=*/1e-7);
  sched.observe(1.0);
  sched.observe(2.0);  // would decay to 1e-7 (allowed)
  EXPECT_NEAR(adam.lr(), 1e-7, 1e-15);
  sched.observe(3.0);  // further decay to 1e-8 refused
  EXPECT_NEAR(adam.lr(), 1e-7, 1e-15);
}

}  // namespace
}  // namespace magic::testing

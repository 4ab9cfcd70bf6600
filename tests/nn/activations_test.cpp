#include "nn/activations.hpp"

#include "test_util.hpp"

namespace magic::testing {
namespace {

Tensor safe_relu_input(util::Rng& rng, tensor::Shape shape) {
  // Keep values away from the ReLU kink so numerical gradients are valid.
  Tensor x = Tensor::uniform(std::move(shape), rng, 0.2, 2.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (rng.bernoulli(0.5)) x[i] = -x[i];
  }
  return x;
}

TEST(ReLU, ForwardClampsNegatives) {
  nn::ReLU relu;
  Tensor x(tensor::Shape{4}, {-1.0, 0.0, 2.0, -0.5});
  Tensor y = relu.forward(x, nullptr);
  EXPECT_EQ(y[0], 0.0);
  EXPECT_EQ(y[1], 0.0);
  EXPECT_EQ(y[2], 2.0);
  EXPECT_EQ(y[3], 0.0);
}

TEST(ReLU, GradientMatchesNumeric) {
  util::Rng rng(1);
  nn::ReLU relu;
  check_module_gradients(relu, safe_relu_input(rng, {3, 4}), rng);
}

TEST(Tanh, ForwardBounded) {
  nn::Tanh tanh_mod;
  Tensor y = tanh_mod.forward(Tensor(tensor::Shape{2}, {100.0, -100.0}), nullptr);
  EXPECT_NEAR(y[0], 1.0, 1e-9);
  EXPECT_NEAR(y[1], -1.0, 1e-9);
}

TEST(Tanh, GradientMatchesNumeric) {
  util::Rng rng(2);
  nn::Tanh tanh_mod;
  check_module_gradients(tanh_mod, Tensor::uniform({2, 5}, rng, -2, 2), rng);
}

TEST(ActivationFunctional, ValuesAndDerivatives) {
  using nn::Activation;
  EXPECT_EQ(nn::activate(Activation::ReLU, -1.0), 0.0);
  EXPECT_EQ(nn::activate(Activation::ReLU, 2.0), 2.0);
  EXPECT_EQ(nn::activate_grad(Activation::ReLU, -1.0), 0.0);
  EXPECT_EQ(nn::activate_grad(Activation::ReLU, 1.0), 1.0);
  EXPECT_NEAR(nn::activate(Activation::Tanh, 0.5), std::tanh(0.5), 1e-15);
  const double t = std::tanh(0.5);
  EXPECT_NEAR(nn::activate_grad(Activation::Tanh, 0.5), 1 - t * t, 1e-15);
  EXPECT_EQ(nn::activate(Activation::Identity, 3.5), 3.5);
  EXPECT_EQ(nn::activate_grad(Activation::Identity, 3.5), 1.0);
}

TEST(ReLU, BackwardRejectsShapeMismatch) {
  nn::ReLU relu;
  nn::Tape tape;
  relu.forward(Tensor::zeros({2, 2}), &tape);
  EXPECT_THROW(relu.backward(Tensor::zeros({3}), tape, {}), std::invalid_argument);
}

}  // namespace
}  // namespace magic::testing

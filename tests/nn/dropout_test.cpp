#include "nn/dropout.hpp"

#include "test_util.hpp"

namespace magic::testing {
namespace {

TEST(Dropout, EvalModeIsIdentity) {
  util::Rng rng(1);
  nn::Dropout drop(0.5, rng);
  Tensor x = Tensor::uniform({100}, rng, -1, 1);
  EXPECT_TRUE(tensor::allclose(drop.forward(x, nullptr), x, 0.0));
  nn::Tape unseeded;  // eval semantics, recorded
  EXPECT_TRUE(tensor::allclose(drop.forward(x, &unseeded), x, 0.0));
}

TEST(Dropout, ZeroRateIsIdentityEvenInTraining) {
  util::Rng rng(2);
  nn::Dropout drop(0.0, rng);
  nn::Tape tape(2);
  Tensor x = Tensor::uniform({50}, rng, -1, 1);
  EXPECT_TRUE(tensor::allclose(drop.forward(x, &tape), x, 0.0));
}

TEST(Dropout, TrainingZeroesRoughlyRateFraction) {
  util::Rng rng(3);
  nn::Dropout drop(0.3, rng);
  nn::Tape tape(3);
  Tensor x = Tensor::ones({20000});
  Tensor y = drop.forward(x, &tape);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / static_cast<double>(y.size()), 0.3, 0.02);
}

TEST(Dropout, SurvivorsScaledByInverseKeep) {
  util::Rng rng(4);
  nn::Dropout drop(0.5, rng);
  nn::Tape tape(4);
  Tensor x = Tensor::ones({1000});
  Tensor y = drop.forward(x, &tape);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_TRUE(y[i] == 0.0 || std::abs(y[i] - 2.0) < 1e-12);
  }
}

TEST(Dropout, ExpectationPreserved) {
  util::Rng rng(5);
  nn::Dropout drop(0.4, rng);
  nn::Tape tape(5);
  Tensor x = Tensor::ones({50000});
  Tensor y = drop.forward(x, &tape);
  EXPECT_NEAR(tensor::mean(y), 1.0, 0.03);
}

TEST(Dropout, BackwardUsesSameMask) {
  util::Rng rng(6);
  nn::Dropout drop(0.5, rng);
  nn::Tape tape(6);
  Tensor x = Tensor::ones({200});
  Tensor y = drop.forward(x, &tape);
  Tensor g = drop.backward(Tensor::ones({200}), tape, {});
  // Gradient passes exactly where the forward survived, with the same scale.
  EXPECT_TRUE(tensor::allclose(g, y, 1e-12));
  // The mask is a function of the seed alone.
  nn::Tape again(6);
  EXPECT_TRUE(tensor::allclose(drop.forward(x, &again), y, 0.0));
}

TEST(Dropout, EvalBackwardIsIdentity) {
  util::Rng rng(7);
  nn::Dropout drop(0.5, rng);
  nn::Tape tape;
  drop.forward(Tensor::ones({10}), &tape);
  Tensor g = Tensor::uniform({10}, rng, -1, 1);
  EXPECT_TRUE(tensor::allclose(drop.backward(g, tape, {}), g, 0.0));
}

TEST(Dropout, GradientsMatchNumeric) {
  // On a seeded tape the mask is a function of the seed, so the numeric
  // differences see the same mask the backward applies.
  util::Rng rng(9);
  nn::Dropout drop(0.4, rng);
  check_function_gradients(
      [&](const Tensor& x, nn::Tape* tape) {
        nn::Tape seeded(11);
        nn::Tape& t = tape != nullptr ? *tape : seeded;
        t.set_seed(11);
        return drop.forward(x, &t);
      },
      [&](const Tensor& g, nn::Tape& tape, nn::Gradients grads) {
        return drop.backward(g, tape, grads);
      },
      {}, Tensor::uniform({3, 7}, rng, -1, 1), rng);
}

TEST(Dropout, RejectsInvalidRate) {
  util::Rng rng(8);
  EXPECT_THROW(nn::Dropout(-0.1, rng), std::invalid_argument);
  EXPECT_THROW(nn::Dropout(1.0, rng), std::invalid_argument);
}

}  // namespace
}  // namespace magic::testing

#include "nn/sequential.hpp"

#include "nn/activations.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/reshape.hpp"
#include "test_util.hpp"

namespace magic::testing {
namespace {

TEST(Sequential, ChainsForward) {
  util::Rng rng(1);
  nn::Sequential seq;
  auto& lin = seq.emplace<nn::Linear>(3, 2, rng);
  seq.emplace<nn::ReLU>();
  lin.weight().value = Tensor::from_rows({{1, 0}, {0, 1}, {0, 0}});
  lin.bias().value = Tensor(tensor::Shape{2}, {0.0, -10.0});
  Tensor y = seq.forward(Tensor(tensor::Shape{1, 3}, {2.0, 3.0, 4.0}), nullptr);
  EXPECT_EQ(y[0], 2.0);
  EXPECT_EQ(y[1], 0.0);  // 3 - 10 clamped by ReLU
}

TEST(Sequential, GradientsMatchNumericThroughChain) {
  util::Rng rng(2);
  nn::Sequential seq;
  seq.emplace<nn::Linear>(4, 6, rng);
  seq.emplace<nn::Tanh>();
  seq.emplace<nn::Linear>(6, 3, rng);
  Tensor x = Tensor::uniform({2, 4}, rng, -1, 1);
  check_module_gradients(seq, x, rng);
}

TEST(Sequential, CollectsAllParameters) {
  util::Rng rng(3);
  nn::Sequential seq;
  seq.emplace<nn::Linear>(2, 2, rng);
  seq.emplace<nn::ReLU>();
  seq.emplace<nn::Linear>(2, 2, rng);
  EXPECT_EQ(seq.parameters().size(), 4u);  // 2x (weight + bias)
  EXPECT_EQ(seq.size(), 3u);
}

TEST(Sequential, PropagatesTrainingMode) {
  // The tape carries the mode: its children train on a seeded tape (each
  // on the stream child_seed(seed, index)) and evaluate without one.
  util::Rng rng(4);
  nn::Sequential seq;
  seq.emplace<nn::ReLU>();
  auto& drop = seq.emplace<nn::Dropout>(0.5, rng);
  const Tensor x = Tensor::ones({1, 64});
  EXPECT_TRUE(tensor::allclose(seq.forward(x, nullptr), x, 0.0));
  nn::Tape tape(7);
  const Tensor trained = seq.forward(x, &tape);
  EXPECT_FALSE(tensor::allclose(trained, x, 0.0));
  EXPECT_EQ(*tape.seed(), 7u);  // restored after the children ran
  nn::Tape child(nn::Sequential::child_seed(7, 2));
  EXPECT_TRUE(tensor::allclose(drop.forward(x, &child), trained, 0.0));
}

TEST(Flatten, RoundTripsShape) {
  nn::Flatten flat;
  util::Rng rng(5);
  nn::Tape tape;
  Tensor x = Tensor::uniform({2, 3, 4}, rng, -1, 1);
  Tensor y = flat.forward(x, &tape);
  EXPECT_EQ(y.rank(), 2u);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 12u);
  Tensor g = flat.backward(Tensor::ones({2, 12}), tape, {});
  EXPECT_EQ(g.rank(), 3u);
  EXPECT_EQ(g.dim(2), 4u);
}

TEST(FixedReshape, ReshapesAndRestores) {
  nn::FixedReshape rs({2, 6});
  util::Rng rng(6);
  nn::Tape tape;
  Tensor x = Tensor::uniform({1, 3, 4}, rng, -1, 1);
  Tensor y = rs.forward(x, &tape);
  EXPECT_EQ(y.dim(1), 2u);
  EXPECT_EQ(y.dim(2), 6u);
  EXPECT_EQ(y[5], x[5]);  // data order unchanged
  Tensor g = rs.backward(Tensor::ones({1, 2, 6}), tape, {});
  EXPECT_EQ(g.dim(1), 3u);
}

TEST(FixedReshape, GradientsMatchNumeric) {
  util::Rng rng(7);
  nn::FixedReshape rs({4, 3});
  check_module_gradients(rs, Tensor::uniform({2, 6, 2}, rng, -1, 1), rng);
}

TEST(Flatten, GradientsMatchNumeric) {
  util::Rng rng(8);
  nn::Flatten flat;
  check_module_gradients(flat, Tensor::uniform({2, 3, 2}, rng, -1, 1), rng);
}

TEST(FixedReshape, RejectsSizeMismatch) {
  nn::FixedReshape rs({5});
  EXPECT_THROW(rs.forward(Tensor::zeros({2, 3}), nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace magic::testing

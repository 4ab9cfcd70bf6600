// Grad-cache gating: with set_grad_enabled(false) a layer's forward must
// skip its backward caches (inference mode), backward must throw a clear
// std::logic_error, and the forward outputs must be unchanged.

#include <gtest/gtest.h>

#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/conv2d.hpp"
#include "nn/graph_conv.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/sequential.hpp"
#include "nn/weighted_vertices.hpp"
#include "util/rng.hpp"

namespace magic::nn {
namespace {

Tensor random_tensor(tensor::Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = rng.uniform(-1.5, 1.5);
  return t;
}

void expect_same(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

// Deterministic module: eval forward must equal train forward, and
// backward after an eval forward must throw.
void check_module(Module& m, const Tensor& input, const Tensor& grad) {
  m.set_grad_enabled(true);
  const Tensor train_out = m.forward(input);
  m.set_grad_enabled(false);
  const Tensor eval_out = m.forward(input);
  expect_same(eval_out, train_out);
  EXPECT_THROW(m.backward(grad), std::logic_error);
  // Re-enabling restores the backward path.
  m.set_grad_enabled(true);
  m.forward(input);
  EXPECT_NO_THROW(m.backward(grad));
}

TEST(GradCache, ActivationsGateTheirCaches) {
  const Tensor x = random_tensor({3, 4}, 1);
  const Tensor g = random_tensor({3, 4}, 2);
  ReLU relu;
  Tanh tanh;
  Sigmoid sigmoid;
  check_module(relu, x, g);
  check_module(tanh, x, g);
  check_module(sigmoid, x, g);
}

TEST(GradCache, LinearGatesItsCache) {
  util::Rng rng(3);
  Linear lin(4, 5, rng);
  check_module(lin, random_tensor({3, 4}, 4), random_tensor({3, 5}, 5));
}

TEST(GradCache, Conv1dGatesItsCache) {
  util::Rng rng(6);
  Conv1D conv(2, 3, 3, 1, rng);
  check_module(conv, random_tensor({2, 8}, 7), random_tensor({3, 6}, 8));
}

TEST(GradCache, Conv2dGatesItsCache) {
  util::Rng rng(9);
  Conv2D conv(1, 2, 3, 3, 1, rng);
  check_module(conv, random_tensor({1, 5, 5}, 10), random_tensor({2, 5, 5}, 11));
}

TEST(GradCache, WeightedVerticesGatesItsCache) {
  util::Rng rng(12);
  WeightedVertices wv(4, Activation::ReLU, rng);
  check_module(wv, random_tensor({4, 6}, 13), random_tensor({6}, 14));
}

TEST(GradCache, LogSoftmaxGatesItsCache) {
  LogSoftmax ls;
  check_module(ls, random_tensor({5}, 15), random_tensor({5}, 16));
}

TEST(GradCache, GraphConvLayerGatesItsCache) {
  util::Rng rng(17);
  PaperGraphConv layer(3, 4, Activation::Tanh, rng);
  // 5-vertex self-loop graph: the propagation operator is the identity.
  SparseMatrix prop = SparseMatrix::propagation_operator({{}, {}, {}, {}, {}});
  const Tensor x = random_tensor({5, 3}, 18);
  const Tensor g = random_tensor({5, 4}, 19);

  layer.set_grad_enabled(true);
  const Tensor train_out = layer.forward(prop, x);
  layer.set_grad_enabled(false);
  const Tensor eval_out = layer.forward(prop, x);
  expect_same(eval_out, train_out);
  EXPECT_THROW(layer.backward(g), std::logic_error);
  layer.set_grad_enabled(true);
  layer.forward(prop, x);
  EXPECT_NO_THROW(layer.backward(g));
}

TEST(GradCache, SequentialPropagatesToChildren) {
  util::Rng rng(20);
  Sequential seq;
  seq.emplace<Linear>(4, 3, rng);
  seq.emplace<ReLU>();
  seq.emplace<LogSoftmax>();
  const Tensor x = random_tensor({4}, 21);
  const Tensor g = random_tensor({3}, 22);
  seq.set_grad_enabled(false);
  seq.forward(x);
  EXPECT_THROW(seq.backward(g), std::logic_error);
  seq.set_grad_enabled(true);
  seq.forward(x);
  EXPECT_NO_THROW(seq.backward(g));
}

}  // namespace
}  // namespace magic::nn

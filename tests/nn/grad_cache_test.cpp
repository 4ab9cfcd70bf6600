// Recording gate: a forward without a tape must give exactly the output of
// the same forward recording on a tape, and a backward whose forward left
// no records must throw a clear std::logic_error instead of producing
// gradients from nothing.

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

// Deterministic module: the untaped forward must equal the taped one, a
// backward on a tape without records must throw, and the taped forward's
// backward must consume exactly its records.
void check_module(Module& m, const Tensor& input, const Tensor& grad) {
  std::vector<Tensor> grads = zero_gradients(m.parameters());
  Tape tape;
  const Tensor taped = m.forward(input, &tape);
  const Tensor untaped = m.forward(input, nullptr);
  expect_same(untaped, taped);
  Tape nothing;
  EXPECT_THROW(m.backward(grad, nothing, grads), std::logic_error);
  EXPECT_NO_THROW(m.backward(grad, tape, grads));
  EXPECT_TRUE(tape.empty());
}

TEST(GradCache, ActivationsGateTheirCaches) {
  const Tensor x = random_tensor({3, 4}, 1);
  const Tensor g = random_tensor({3, 4}, 2);
  ReLU relu;
  Tanh tanh;
  check_module(relu, x, g);
  check_module(tanh, x, g);
}

TEST(GradCache, LinearGatesItsCache) {
  util::Rng rng(3);
  Linear lin(4, 5, rng);
  check_module(lin, random_tensor({3, 4}, 4), random_tensor({3, 5}, 5));
}

TEST(GradCache, Conv1dGatesItsCache) {
  util::Rng rng(6);
  Conv1D conv(2, 3, 3, 1, rng);
  check_module(conv, random_tensor({1, 2, 8}, 7), random_tensor({1, 3, 6}, 8));
}

TEST(GradCache, Conv2dGatesItsCache) {
  util::Rng rng(9);
  Conv2D conv(1, 2, 3, 3, 1, rng);
  check_module(conv, random_tensor({1, 1, 5, 5}, 10), random_tensor({1, 2, 5, 5}, 11));
}

TEST(GradCache, WeightedVerticesGatesItsCache) {
  util::Rng rng(12);
  WeightedVertices wv(4, Activation::ReLU, rng);
  check_module(wv, random_tensor({1, 4, 6}, 13), random_tensor({1, 6}, 14));
}

TEST(GradCache, LogSoftmaxGatesItsCache) {
  LogSoftmax ls;
  check_module(ls, random_tensor({1, 5}, 15), random_tensor({1, 5}, 16));
}

TEST(GradCache, GraphConvLayerGatesItsCache) {
  util::Rng rng(17);
  PaperGraphConv layer(3, 4, Activation::Tanh, rng);
  // 5-vertex self-loop graph: the propagation operator is the identity.
  SparseMatrix prop = SparseMatrix::propagation_operator({{}, {}, {}, {}, {}});
  const Tensor x = random_tensor({5, 3}, 18);
  const Tensor g = random_tensor({5, 4}, 19);
  InferenceWorkspace workspace;
  auto run = [&](Tape* tape) {
    Tensor y({5, 4});
    layer.forward(prop, x, workspace, y.data(), 4, nullptr, tape);
    return y;
  };
  std::vector<Tensor> grads = zero_gradients(layer.parameters());
  Tape tape;
  const Tensor taped = run(&tape);
  const Tensor untaped = run(nullptr);
  expect_same(untaped, taped);
  Tape nothing;
  EXPECT_THROW(layer.backward(prop, g, nothing, grads), std::logic_error);
  EXPECT_NO_THROW(layer.backward(prop, g, tape, grads));
  EXPECT_TRUE(tape.empty());
}

TEST(GradCache, SequentialPropagatesToChildren) {
  util::Rng rng(20);
  Sequential seq;
  seq.emplace<Linear>(4, 3, rng);
  seq.emplace<ReLU>();
  seq.emplace<LogSoftmax>();
  check_module(seq, random_tensor({1, 4}, 21), random_tensor({1, 3}, 22));
}

}  // namespace
}  // namespace magic::nn

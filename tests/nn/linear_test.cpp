#include "nn/linear.hpp"

#include "test_util.hpp"

namespace magic::testing {
namespace {

TEST(Linear, ForwardMatchesManualAffine) {
  util::Rng rng(1);
  nn::Linear lin(2, 3, rng);
  lin.weight().value = Tensor::from_rows({{1, 2, 3}, {4, 5, 6}});
  lin.bias().value = Tensor(tensor::Shape{3}, {0.5, -0.5, 1.0});
  Tensor x(tensor::Shape{1, 2}, {1.0, 2.0});
  Tensor y = lin.forward(x, nullptr);
  EXPECT_NEAR(y[0], 1 + 8 + 0.5, 1e-12);
  EXPECT_NEAR(y[1], 2 + 10 - 0.5, 1e-12);
  EXPECT_NEAR(y[2], 3 + 12 + 1.0, 1e-12);
}

TEST(Linear, BatchedForwardShape) {
  util::Rng rng(2);
  nn::Linear lin(4, 2, rng);
  Tensor x = Tensor::uniform({5, 4}, rng, -1, 1);
  Tensor y = lin.forward(x, nullptr);
  EXPECT_EQ(y.dim(0), 5u);
  EXPECT_EQ(y.dim(1), 2u);
}

TEST(Linear, BatchOfOneKeepsLeadingDim) {
  util::Rng rng(3);
  nn::Linear lin(3, 4, rng);
  Tensor y = lin.forward(Tensor::uniform({1, 3}, rng, -1, 1), nullptr);
  EXPECT_EQ(y.rank(), 2u);
  EXPECT_EQ(y.dim(0), 1u);
  EXPECT_EQ(y.dim(1), 4u);
}

TEST(Linear, RejectsWrongWidth) {
  util::Rng rng(4);
  nn::Linear lin(3, 2, rng);
  EXPECT_THROW(lin.forward(Tensor::zeros({1, 4}), nullptr), std::invalid_argument);
}

TEST(Linear, GradientsMatchNumeric) {
  util::Rng rng(5);
  nn::Linear lin(3, 2, rng);
  Tensor x = Tensor::uniform({4, 3}, rng, -1, 1);
  check_module_gradients(lin, x, rng);
}

TEST(Linear, GradientsMatchNumericRank1) {
  // One rank-1 sample: a batch of one.
  util::Rng rng(6);
  nn::Linear lin(5, 3, rng);
  Tensor x = Tensor::uniform({1, 5}, rng, -1, 1);
  check_module_gradients(lin, x, rng);
}

TEST(Linear, NoBiasVariantHasSingleParameter) {
  util::Rng rng(7);
  nn::Linear lin(2, 2, rng, /*bias=*/false);
  EXPECT_EQ(lin.parameters().size(), 1u);
  Tensor x = Tensor::uniform({1, 2}, rng, -1, 1);
  check_module_gradients(lin, x, rng);
}

TEST(Linear, GradAccumulatesAcrossBackwardCalls) {
  util::Rng rng(8);
  nn::Linear lin(2, 2, rng);
  Tensor x = Tensor::uniform({1, 2}, rng, -1, 1);
  Tensor g = Tensor::ones({1, 2});
  std::vector<Tensor> grads = nn::zero_gradients(lin.parameters());
  nn::Tape first;
  lin.forward(x, &first);
  lin.backward(g, first, grads);
  Tensor after_one = grads[0];
  nn::Tape second;
  lin.forward(x, &second);
  lin.backward(g, second, grads);
  EXPECT_TRUE(tensor::allclose(grads[0], after_one * 2.0, 1e-12));
}

}  // namespace
}  // namespace magic::testing

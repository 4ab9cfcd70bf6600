#include "nn/weighted_vertices.hpp"

#include "test_util.hpp"

namespace magic::testing {
namespace {

TEST(WeightedVertices, ForwardIsWeightedRowSum) {
  // Fig. 5 of the paper: E = f(W x Zsp) with W = [0.4, 0.1, 0.5] and ReLU.
  util::Rng rng(1);
  nn::WeightedVertices wv(3, nn::Activation::ReLU, rng);
  wv.weight().value = Tensor(tensor::Shape{3}, {0.4, 0.1, 0.5});
  Tensor zsp = Tensor::from_rows({{1, -2}, {3, 4}, {5, 6}}).reshape({1, 3, 2});
  Tensor e = wv.forward(zsp, nullptr);
  ASSERT_EQ(e.rank(), 2u);
  ASSERT_EQ(e.dim(1), 2u);
  // channel 0: 0.4*1 + 0.1*3 + 0.5*5 = 3.2; channel 1: -0.8 + 0.4 + 3 = 2.6.
  EXPECT_NEAR(e[0], 3.2, 1e-12);
  EXPECT_NEAR(e[1], 2.6, 1e-12);
}

TEST(WeightedVertices, ReluZeroesNegativeEmbedding) {
  util::Rng rng(2);
  nn::WeightedVertices wv(2, nn::Activation::ReLU, rng);
  wv.weight().value = Tensor(tensor::Shape{2}, {1.0, 1.0});
  Tensor zsp = Tensor::from_rows({{-5.0}, {2.0}}).reshape({1, 2, 1});
  EXPECT_EQ(wv.forward(zsp, nullptr)[0], 0.0);
}

TEST(WeightedVertices, InitializesNearMeanPooling) {
  util::Rng rng(3);
  nn::WeightedVertices wv(4, nn::Activation::ReLU, rng);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(wv.weight().value[i], 0.25, 0.25 * 0.11);
  }
}

TEST(WeightedVertices, EquivalentToConv1dWithKernelK) {
  // §III-B: the layer is "a single channel Conv1D layer ... of kernel size
  // k, stride size k" applied to the transposed Zsp. Verify the algebra:
  // E_c = f(sum_i W_i Zsp[i][c]).
  util::Rng rng(4);
  const std::size_t k = 3, c = 5;
  nn::WeightedVertices wv(k, nn::Activation::Identity, rng);
  Tensor zsp = Tensor::uniform({1, k, c}, rng, -1, 1);
  Tensor e = wv.forward(zsp, nullptr);
  for (std::size_t ch = 0; ch < c; ++ch) {
    double manual = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      manual += wv.weight().value[i] * zsp.at(0, i, ch);
    }
    EXPECT_NEAR(e[ch], manual, 1e-12);
  }
}

TEST(WeightedVertices, GradientsMatchNumeric) {
  util::Rng rng(5);
  nn::WeightedVertices wv(4, nn::Activation::Tanh, rng);
  check_module_gradients(wv, Tensor::uniform({2, 4, 6}, rng, -1, 1), rng);
}

TEST(WeightedVertices, RejectsWrongRowCount) {
  util::Rng rng(6);
  nn::WeightedVertices wv(3, nn::Activation::ReLU, rng);
  EXPECT_THROW(wv.forward(Tensor::zeros({1, 4, 2}), nullptr), std::invalid_argument);
}

TEST(WeightedVertices, RejectsZeroK) {
  util::Rng rng(7);
  EXPECT_THROW(nn::WeightedVertices(0, nn::Activation::ReLU, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace magic::testing

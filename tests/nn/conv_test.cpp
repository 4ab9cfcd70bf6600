#include "nn/conv1d.hpp"
#include "nn/conv2d.hpp"

#include "test_util.hpp"

namespace magic::testing {
namespace {

TEST(Conv1D, ForwardMatchesHandComputation) {
  util::Rng rng(1);
  nn::Conv1D conv(1, 1, 2, 1, rng);
  auto params = conv.parameters();
  params[0]->value = Tensor(tensor::Shape{1, 1, 2}, {1.0, -1.0});  // weight
  params[1]->value = Tensor(tensor::Shape{1}, {0.5});              // bias
  Tensor x(tensor::Shape{1, 1, 4}, {1.0, 3.0, 2.0, 5.0});
  Tensor y = conv.forward(x, nullptr);
  EXPECT_EQ(y.dim(2), 3u);
  EXPECT_NEAR(y[0], 1 - 3 + 0.5, 1e-12);
  EXPECT_NEAR(y[1], 3 - 2 + 0.5, 1e-12);
  EXPECT_NEAR(y[2], 2 - 5 + 0.5, 1e-12);
}

TEST(Conv1D, StrideEqualsKernelIsBlockwise) {
  // The DGCNN head's first Conv1D uses kernel = stride = descriptor width.
  util::Rng rng(2);
  nn::Conv1D conv(1, 1, 3, 3, rng);
  auto params = conv.parameters();
  params[0]->value = Tensor(tensor::Shape{1, 1, 3}, {1.0, 1.0, 1.0});
  params[1]->value = Tensor(tensor::Shape{1}, {0.0});
  Tensor x(tensor::Shape{1, 1, 6}, {1, 2, 3, 4, 5, 6});
  Tensor y = conv.forward(x, nullptr);
  EXPECT_EQ(y.dim(2), 2u);
  EXPECT_NEAR(y[0], 6.0, 1e-12);
  EXPECT_NEAR(y[1], 15.0, 1e-12);
}

TEST(Conv1D, OutLengthFormula) {
  util::Rng rng(3);
  nn::Conv1D conv(2, 4, 5, 2, rng);
  EXPECT_EQ(conv.out_length(11), 4u);
  EXPECT_THROW(conv.out_length(4), std::invalid_argument);
}

TEST(Conv1D, MultiChannelShapes) {
  util::Rng rng(4);
  nn::Conv1D conv(3, 5, 2, 1, rng);
  Tensor y = conv.forward(Tensor::uniform({2, 3, 7}, rng, -1, 1), nullptr);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 5u);
  EXPECT_EQ(y.dim(2), 6u);
}

TEST(Conv1D, GradientsMatchNumeric) {
  util::Rng rng(5);
  nn::Conv1D conv(2, 3, 3, 2, rng);
  check_module_gradients(conv, Tensor::uniform({2, 2, 9}, rng, -1, 1), rng, 1e-5);
}

TEST(Conv1D, RejectsWrongChannelCount) {
  util::Rng rng(6);
  nn::Conv1D conv(2, 1, 2, 1, rng);
  EXPECT_THROW(conv.forward(Tensor::zeros({1, 3, 5}), nullptr), std::invalid_argument);
}

TEST(Conv2D, IdentityKernelPassesThrough) {
  util::Rng rng(7);
  nn::Conv2D conv(1, 1, 1, 1, 0, rng);
  auto params = conv.parameters();
  params[0]->value = Tensor(tensor::Shape{1, 1, 1, 1}, {1.0});
  params[1]->value = Tensor(tensor::Shape{1}, {0.0});
  Tensor x = Tensor::uniform({1, 1, 3, 4}, rng, -1, 1);
  EXPECT_TRUE(tensor::allclose(conv.forward(x, nullptr), x, 1e-12));
}

TEST(Conv2D, PaddingPreservesSpatialDims) {
  util::Rng rng(8);
  nn::Conv2D conv(1, 4, 3, 3, 1, rng);
  Tensor y = conv.forward(Tensor::uniform({1, 1, 5, 6}, rng, -1, 1), nullptr);
  EXPECT_EQ(y.dim(1), 4u);
  EXPECT_EQ(y.dim(2), 5u);
  EXPECT_EQ(y.dim(3), 6u);
}

TEST(Conv2D, SumKernelComputesWindowSums) {
  util::Rng rng(9);
  nn::Conv2D conv(1, 1, 2, 2, 0, rng);
  auto params = conv.parameters();
  params[0]->value = Tensor::ones({1, 1, 2, 2});
  params[1]->value = Tensor::zeros({1});
  Tensor x(tensor::Shape{1, 1, 2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor y = conv.forward(x, nullptr);
  EXPECT_EQ(y.dim(2), 1u);
  EXPECT_EQ(y.dim(3), 2u);
  EXPECT_NEAR(y[0], 1 + 2 + 4 + 5, 1e-12);
  EXPECT_NEAR(y[1], 2 + 3 + 5 + 6, 1e-12);
}

TEST(Conv2D, GradientsMatchNumeric) {
  util::Rng rng(10);
  nn::Conv2D conv(2, 3, 3, 3, 1, rng);
  check_module_gradients(conv, Tensor::uniform({2, 2, 4, 5}, rng, -1, 1), rng, 1e-5);
}

TEST(Conv2D, GradientsMatchNumericNoPadding) {
  util::Rng rng(11);
  nn::Conv2D conv(1, 2, 2, 2, 0, rng);
  check_module_gradients(conv, Tensor::uniform({1, 1, 4, 4}, rng, -1, 1), rng, 1e-5);
}

TEST(Conv2D, RejectsTooSmallInput) {
  util::Rng rng(12);
  nn::Conv2D conv(1, 1, 3, 3, 0, rng);
  EXPECT_THROW(conv.forward(Tensor::zeros({1, 1, 2, 2}), nullptr), std::invalid_argument);
}

TEST(Conv2D, MinimalInputWithPaddingWorks) {
  // The AMP path can see single-vertex graphs: (1 x 1 x C) images.
  util::Rng rng(13);
  nn::Conv2D conv(1, 2, 3, 3, 1, rng);
  Tensor y = conv.forward(Tensor::uniform({1, 1, 1, 4}, rng, -1, 1), nullptr);
  EXPECT_EQ(y.dim(2), 1u);
  EXPECT_EQ(y.dim(3), 4u);
}

}  // namespace
}  // namespace magic::testing

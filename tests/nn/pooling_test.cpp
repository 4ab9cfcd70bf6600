#include "nn/adaptive_max_pool.hpp"
#include "nn/max_pool1d.hpp"

#include "test_util.hpp"

namespace magic::testing {
namespace {

TEST(MaxPool1D, ForwardPicksWindowMaxima) {
  nn::MaxPool1D pool(2, 2);
  Tensor x(tensor::Shape{1, 1, 6}, {1, 5, 2, 2, 9, 0});
  Tensor y = pool.forward(x, nullptr);
  EXPECT_EQ(y.dim(2), 3u);
  EXPECT_EQ(y[0], 5.0);
  EXPECT_EQ(y[1], 2.0);
  EXPECT_EQ(y[2], 9.0);
}

TEST(MaxPool1D, BackwardRoutesToArgmax) {
  nn::MaxPool1D pool(2, 2);
  Tensor x(tensor::Shape{1, 1, 4}, {1, 5, 7, 2});
  nn::Tape tape;
  pool.forward(x, &tape);
  Tensor g = pool.backward(Tensor(tensor::Shape{1, 1, 2}, {10.0, 20.0}), tape, {});
  EXPECT_EQ(g[0], 0.0);
  EXPECT_EQ(g[1], 10.0);
  EXPECT_EQ(g[2], 20.0);
  EXPECT_EQ(g[3], 0.0);
}

TEST(MaxPool1D, GradientsMatchNumeric) {
  util::Rng rng(1);
  nn::MaxPool1D pool(3, 2);
  check_module_gradients(pool, Tensor::uniform({2, 2, 9}, rng, -1, 1), rng);
}

TEST(MaxPool1D, RejectsShortInput) {
  nn::MaxPool1D pool(4, 1);
  EXPECT_THROW(pool.forward(Tensor::zeros({1, 1, 3}), nullptr), std::invalid_argument);
}

// --- AdaptiveMaxPool2D (§III-C, Fig. 6) ------------------------------------

TEST(AdaptiveMaxPool, OutputShapeIsFixedRegardlessOfInput) {
  nn::AdaptiveMaxPool2D pool(3, 3);
  util::Rng rng(2);
  for (std::size_t h : {3u, 4u, 5u, 9u, 17u}) {
    for (std::size_t w : {3u, 7u, 12u}) {
      Tensor y = pool.forward(Tensor::uniform({1, 2, h, w}, rng, -1, 1), nullptr);
      EXPECT_EQ(y.dim(1), 2u);
      EXPECT_EQ(y.dim(2), 3u);
      EXPECT_EQ(y.dim(3), 3u);
    }
  }
}

TEST(AdaptiveMaxPool, PaperFigureSixKernelBehaviour) {
  // Fig. 6: a 5 x 7 input pooled by a 3 x 3 adaptive layer. Check that each
  // output equals the max of its adaptive window.
  nn::AdaptiveMaxPool2D pool(3, 3);
  util::Rng rng(3);
  Tensor x = Tensor::uniform({1, 1, 5, 7}, rng, -1, 1);
  Tensor y = pool.forward(x, nullptr);
  auto win = [](std::size_t i, std::size_t in, std::size_t out) {
    const std::size_t lo = (i * in) / out;
    const std::size_t hi = ((i + 1) * in + out - 1) / out;
    return std::make_pair(lo, hi);
  };
  for (std::size_t oy = 0; oy < 3; ++oy) {
    for (std::size_t ox = 0; ox < 3; ++ox) {
      auto [y0, y1] = win(oy, 5, 3);
      auto [x0, x1] = win(ox, 7, 3);
      double expected = -1e9;
      for (std::size_t yy = y0; yy < y1; ++yy) {
        for (std::size_t xx = x0; xx < x1; ++xx) {
          expected = std::max(expected, x.at(0, 0, yy, xx));
        }
      }
      EXPECT_NEAR(y.at(0, 0, oy, ox), expected, 1e-12);
    }
  }
}

TEST(AdaptiveMaxPool, IdentityWhenGridMatchesInput) {
  nn::AdaptiveMaxPool2D pool(2, 2);
  util::Rng rng(4);
  Tensor x = Tensor::uniform({1, 1, 2, 2}, rng, -1, 1);
  EXPECT_TRUE(tensor::allclose(pool.forward(x, nullptr), x, 0.0));
}

TEST(AdaptiveMaxPool, InputSmallerThanGrid) {
  // A 1-vertex graph can give a 1 x C "image": windows repeat values.
  nn::AdaptiveMaxPool2D pool(3, 3);
  Tensor x(tensor::Shape{1, 1, 1, 2}, {7.0, 9.0});
  Tensor y = pool.forward(x, nullptr);
  EXPECT_EQ(y.dim(2), 3u);
  // Every output must be one of the input values.
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_TRUE(y[i] == 7.0 || y[i] == 9.0);
  }
}

TEST(AdaptiveMaxPool, BackwardAccumulatesToSources) {
  nn::AdaptiveMaxPool2D pool(1, 1);
  Tensor x(tensor::Shape{1, 1, 2, 2}, {1.0, 4.0, 2.0, 3.0});
  nn::Tape tape;
  pool.forward(x, &tape);
  Tensor g = pool.backward(Tensor(tensor::Shape{1, 1, 1, 1}, {5.0}), tape, {});
  EXPECT_EQ(g[1], 5.0);  // max was at index 1
  EXPECT_EQ(g[0], 0.0);
}

TEST(AdaptiveMaxPool, GradientsMatchNumeric) {
  util::Rng rng(5);
  nn::AdaptiveMaxPool2D pool(3, 3);
  check_module_gradients(pool, Tensor::uniform({2, 2, 5, 7}, rng, -1, 1), rng);
}

TEST(AdaptiveMaxPool, GradientsMatchNumericWhenInputSmall) {
  util::Rng rng(6);
  nn::AdaptiveMaxPool2D pool(4, 4);
  check_module_gradients(pool, Tensor::uniform({1, 1, 2, 3}, rng, -1, 1), rng);
}

TEST(AdaptiveMaxPool, RejectsBadConstruction) {
  EXPECT_THROW(nn::AdaptiveMaxPool2D(0, 3), std::invalid_argument);
}

TEST(AdaptiveMaxPool, RejectsNonRank3) {
  nn::AdaptiveMaxPool2D pool(2, 2);
  // A batch of (4 x 4) samples: each sample must be (C x H x W).
  EXPECT_THROW(pool.forward(Tensor::zeros({4, 4, 4}), nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace magic::testing

// AdaptiveConvPool against the unfused chain it replaces:
// Conv2D(1, f, 3, 3, 1) -> ReLU -> AdaptiveMaxPool2D(g, g) with the same
// weights. Pooled outputs, bias gradients and input gradients must agree
// bit for bit; weight gradients to 1e-12 relative.

#include "nn/adaptive_conv_pool.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "nn/activations.hpp"
#include "nn/adaptive_max_pool.hpp"
#include "nn/conv2d.hpp"
#include "test_util.hpp"

namespace magic::testing {
namespace {

constexpr std::size_t kFilters = 4;

enum class Image { Uniform, DuplicatedRows, Constant, NonPositive };

const char* image_name(Image kind) {
  switch (kind) {
    case Image::Uniform: return "uniform";
    case Image::DuplicatedRows: return "duplicated-rows";
    case Image::Constant: return "constant";
    case Image::NonPositive: return "non-positive";
  }
  return "?";
}

// An (n x c) stack output of the given kind. Runs of four equal rows give
// equal conv rows inside each run, and a constant image equal values
// everywhere inside the border, so positive ties decide the argmax.
Tensor make_image(Image kind, std::size_t n, std::size_t c, util::Rng& rng) {
  Tensor x({n, c});
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t col = 0; col < c; ++col) {
      double v = rng.uniform(-1.0, 1.0);
      if (kind == Image::DuplicatedRows && y % 4 != 0) v = x[(y - 1) * c + col];
      if (kind == Image::Constant) v = 0.75;
      x[y * c + col] = v;
    }
  }
  return x;
}

bool bitwise_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

struct Chain {
  nn::Conv2D conv;
  nn::ReLU relu;
  nn::AdaptiveMaxPool2D pool;
  Chain(std::size_t g, util::Rng& rng) : conv(1, kFilters, 3, 3, 1, rng), pool(g, g) {}
};

void check_against_chain(std::size_t g, std::size_t n, std::size_t c, Image kind) {
  SCOPED_TRACE("g=" + std::to_string(g) + " n=" + std::to_string(n) +
               " C=" + std::to_string(c) + " image=" + image_name(kind));
  util::Rng draw_a(40 + g);
  util::Rng draw_b(40 + g);
  Chain chain(g, draw_a);
  nn::AdaptiveConvPool fused(kFilters, g, draw_b);
  auto ref_params = chain.conv.parameters();
  auto params = fused.parameters();
  ASSERT_EQ(params.size(), 2u);
  for (std::size_t p = 0; p < 2; ++p) {
    ASSERT_EQ(params[p]->name, ref_params[p]->name);
    ASSERT_TRUE(tensor::allclose(params[p]->value, ref_params[p]->value, 0.0));
  }
  // Both draws consumed the same stretch of the rng stream.
  ASSERT_EQ(draw_a.uniform(0.0, 1.0), draw_b.uniform(0.0, 1.0));
  // Nonzero biases; the non-positive image pins filter 0's bias far below
  // any tap sum, so every one of its windows has no positive pre-activation.
  util::Rng rng(7 * n + c);
  for (std::size_t o = 0; o < kFilters; ++o) {
    double b = rng.uniform(-0.3, 0.3);
    if (kind == Image::NonPositive && o == 0) b = -100.0;
    params[1]->value[o] = b;
    ref_params[1]->value[o] = b;
  }

  const Tensor x = make_image(kind, n, c, rng);
  nn::Tape chain_tape;
  const Tensor want = chain.pool.forward(
      chain.relu.forward(chain.conv.forward(x.reshape({1, 1, n, c}), &chain_tape),
                         &chain_tape),
      &chain_tape);
  nn::Tape tape;
  const Tensor got = fused.forward(x, {0, n}, &tape);
  ASSERT_EQ(got.shape(), want.shape());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(bitwise_equal(got[i], want[i]))
        << "pooled " << i << ": " << got[i] << " vs " << want[i];
  }
  if (kind == Image::NonPositive) {
    for (std::size_t i = 0; i < g * g; ++i) EXPECT_EQ(got[i], 0.0);
  }

  const Tensor grad = Tensor::uniform(want.shape(), rng, -1.0, 1.0);
  std::vector<Tensor> ref_grads = nn::zero_gradients(ref_params);
  std::vector<Tensor> grads = nn::zero_gradients(params);
  const Tensor want_in = chain.conv.backward(
      chain.relu.backward(chain.pool.backward(grad, chain_tape, {}), chain_tape, {}),
      chain_tape, ref_grads);
  const Tensor got_in = fused.backward(grad, tape, grads);
  ASSERT_EQ(got_in.shape(), (tensor::Shape{n, c}));
  EXPECT_TRUE(tape.empty());
  for (std::size_t i = 0; i < got_in.size(); ++i) {
    ASSERT_TRUE(bitwise_equal(got_in[i], want_in[i]))
        << "input grad " << i << ": " << got_in[i] << " vs " << want_in[i];
  }
  for (std::size_t o = 0; o < kFilters; ++o) {
    EXPECT_TRUE(bitwise_equal(grads[1][o], ref_grads[1][o])) << "bias grad " << o;
  }
  if (kind == Image::NonPositive) {
    EXPECT_EQ(grads[1][0], 0.0);
  }
  const Tensor& wg = grads[0];
  const Tensor& ref_wg = ref_grads[0];
  for (std::size_t i = 0; i < wg.size(); ++i) {
    EXPECT_LE(std::abs(wg[i] - ref_wg[i]), 1e-12 * std::abs(ref_wg[i]))
        << "weight grad " << i << ": " << wg[i] << " vs " << ref_wg[i];
  }
}

TEST(AdaptiveConvPool, MatchesUnfusedChain) {
  for (std::size_t g : {3u, 6u}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{2}, g - 1, g, std::size_t{57},
                          std::size_t{500}}) {
      for (std::size_t c : {2u, 16u, 128u}) {
        for (Image kind : {Image::Uniform, Image::DuplicatedRows, Image::Constant,
                           Image::NonPositive}) {
          check_against_chain(g, n, c, kind);
        }
      }
    }
  }
}

/// check_function_gradients over one (n x C) image.
void check_pool_gradients(nn::AdaptiveConvPool& fused, const Tensor& x, util::Rng& rng) {
  check_function_gradients(
      [&](const Tensor& input, nn::Tape* tape) {
        return fused.forward(input, {0, input.dim(0)}, tape);
      },
      [&](const Tensor& g, nn::Tape& tape, nn::Gradients grads) {
        return fused.backward(g, tape, grads);
      },
      fused.parameters(), x, rng);
}

TEST(AdaptiveConvPool, GradientsMatchNumeric) {
  util::Rng rng(11);
  nn::AdaptiveConvPool fused(3, 3, rng);
  for (std::size_t o = 0; o < 3; ++o) fused.parameters()[1]->value[o] = 0.1 * o;
  check_pool_gradients(fused, Tensor::uniform({7, 5}, rng, -1, 1), rng);
  // Smaller than the grid, so windows repeat and share argmaxes.
  nn::AdaptiveConvPool small(2, 4, rng);
  check_pool_gradients(small, Tensor::uniform({2, 3}, rng, -1, 1), rng);
}

TEST(AdaptiveConvPool, ForwardIntoMatchesForwardOnASegment) {
  // A graph's segment of a packed matrix pools exactly as the graph alone,
  // and so does its backward.
  util::Rng rng(13);
  nn::AdaptiveConvPool fused(4, 3, rng);
  const Tensor packed = Tensor::uniform({20, 6}, rng, -1, 1);
  // Rows 5..13 of the packed matrix as one graph.
  Tensor segment({9, 6});
  for (std::size_t i = 0; i < segment.size(); ++i) segment[i] = packed[5 * 6 + i];
  nn::Tape alone_tape;
  const Tensor want = fused.forward(segment, {0, 9}, &alone_tape);
  nn::Tape packed_tape;
  const Tensor got = fused.forward(packed, {0, 5, 14, 20}, &packed_tape);
  ASSERT_EQ(got.shape(), (tensor::Shape{3, 4, 3, 3}));
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(got[want.size() + i], want[i]));
  }
  const Tensor grad = Tensor::uniform(want.shape(), rng, -1, 1);
  Tensor packed_grad = Tensor::zeros(got.shape());
  for (std::size_t i = 0; i < grad.size(); ++i) packed_grad[grad.size() + i] = grad[i];
  std::vector<Tensor> alone_grads = nn::zero_gradients(fused.parameters());
  std::vector<Tensor> packed_grads = nn::zero_gradients(fused.parameters());
  const Tensor alone_in = fused.backward(grad, alone_tape, alone_grads);
  const Tensor packed_in = fused.backward(packed_grad, packed_tape, packed_grads);
  for (std::size_t i = 0; i < alone_in.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(packed_in[5 * 6 + i], alone_in[i]));
  }
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t i = 0; i < alone_grads[p].size(); ++i) {
      EXPECT_TRUE(bitwise_equal(packed_grads[p][i], alone_grads[p][i]));
    }
  }
  EXPECT_THROW(fused.forward(packed, {0, 5, 5, 20}, nullptr), std::invalid_argument);
}

TEST(AdaptiveConvPool, BackwardAfterEvalForwardThrows) {
  util::Rng rng(14);
  nn::AdaptiveConvPool fused(2, 3, rng);
  const Tensor x = Tensor::uniform({5, 4}, rng, -1, 1);
  const Tensor grad = Tensor::uniform({1, 2, 3, 3}, rng, -1, 1);
  std::vector<Tensor> grads = nn::zero_gradients(fused.parameters());
  nn::Tape nothing;
  EXPECT_THROW(fused.backward(grad, nothing, grads), std::logic_error);  // no forward yet
  nn::Tape tape;
  const Tensor train_out = fused.forward(x, {0, 5}, &tape);
  EXPECT_NO_THROW(fused.backward(grad, tape, grads));
  const Tensor eval_out = fused.forward(x, {0, 5}, nullptr);
  EXPECT_TRUE(tensor::allclose(eval_out, train_out, 0.0));
  EXPECT_THROW(fused.backward(grad, tape, grads), std::logic_error);  // records consumed
  nn::Tape again;
  fused.forward(x, {0, 5}, &again);
  EXPECT_THROW(fused.backward(Tensor::zeros({1, 2, 4, 4}), again, grads),
               std::invalid_argument);
}

TEST(AdaptiveConvPool, RejectsBadShapes) {
  util::Rng rng(15);
  EXPECT_THROW(nn::AdaptiveConvPool(0, 3, rng), std::invalid_argument);
  EXPECT_THROW(nn::AdaptiveConvPool(2, 0, rng), std::invalid_argument);
  nn::AdaptiveConvPool fused(2, 3, rng);
  EXPECT_THROW(fused.forward(Tensor::zeros({1, 4, 4}), {0, 1}, nullptr),
               std::invalid_argument);
  EXPECT_THROW(fused.forward(Tensor::zeros({0, 4}), {0, 0}, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace magic::testing

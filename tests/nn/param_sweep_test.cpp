// Parameterized property sweeps: gradient correctness and shape invariants
// across layer-configuration grids (TEST_P / INSTANTIATE_TEST_SUITE_P).

#include <tuple>

#include "nn/adaptive_max_pool.hpp"
#include "nn/conv1d.hpp"
#include "nn/conv2d.hpp"
#include "nn/graph_conv.hpp"
#include "nn/linear.hpp"
#include "nn/sort_pooling.hpp"
#include "test_util.hpp"

namespace magic::testing {
namespace {

// --- Linear sweep -----------------------------------------------------------

class LinearSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(LinearSweep, GradientsMatchNumeric) {
  const auto [in, out, rows] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(in * 131 + out * 17 + rows));
  nn::Linear lin(static_cast<std::size_t>(in), static_cast<std::size_t>(out), rng);
  Tensor x = Tensor::uniform({static_cast<std::size_t>(rows),
                              static_cast<std::size_t>(in)}, rng, -1, 1);
  check_module_gradients(lin, x, rng);
}

INSTANTIATE_TEST_SUITE_P(Shapes, LinearSweep,
                         ::testing::Combine(::testing::Values(1, 3, 8),
                                            ::testing::Values(1, 5),
                                            ::testing::Values(1, 4)));

// --- Conv1D sweep -----------------------------------------------------------

class Conv1dSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {};

TEST_P(Conv1dSweep, GradientsMatchNumeric) {
  const auto [ic, oc, kernel, stride, length] = GetParam();
  if (length < kernel) GTEST_SKIP();
  util::Rng rng(static_cast<std::uint64_t>(ic + oc * 7 + kernel * 31 + stride * 97 +
                                           length * 151));
  nn::Conv1D conv(static_cast<std::size_t>(ic), static_cast<std::size_t>(oc),
                  static_cast<std::size_t>(kernel), static_cast<std::size_t>(stride),
                  rng);
  Tensor x = Tensor::uniform({1, static_cast<std::size_t>(ic),
                              static_cast<std::size_t>(length)}, rng, -1, 1);
  check_module_gradients(conv, x, rng, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Conv1dSweep,
                         ::testing::Combine(::testing::Values(1, 2),
                                            ::testing::Values(1, 3),
                                            ::testing::Values(1, 3),
                                            ::testing::Values(1, 3),
                                            ::testing::Values(3, 7)));

// --- Conv2D sweep -----------------------------------------------------------

class Conv2dSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {};

TEST_P(Conv2dSweep, GradientsMatchNumeric) {
  const auto [ic, oc, h, w, pad] = GetParam();
  if (static_cast<std::size_t>(h) + 2 * static_cast<std::size_t>(pad) < 3 ||
      static_cast<std::size_t>(w) + 2 * static_cast<std::size_t>(pad) < 3) {
    GTEST_SKIP();
  }
  util::Rng rng(static_cast<std::uint64_t>(ic * 3 + oc * 11 + h * 29 + w * 71 + pad));
  nn::Conv2D conv(static_cast<std::size_t>(ic), static_cast<std::size_t>(oc), 3, 3,
                  static_cast<std::size_t>(pad), rng);
  Tensor x = Tensor::uniform({1, static_cast<std::size_t>(ic),
                              static_cast<std::size_t>(h),
                              static_cast<std::size_t>(w)}, rng, -1, 1);
  check_module_gradients(conv, x, rng, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Conv2dSweep,
                         ::testing::Combine(::testing::Values(1, 2),
                                            ::testing::Values(1, 4),
                                            ::testing::Values(1, 3, 6),
                                            ::testing::Values(3, 5),
                                            ::testing::Values(0, 1)));

// --- AdaptiveMaxPool invariants across input sizes ---------------------------

class AmpSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(AmpSweep, OutputShapeFixedAndValuesFromInput) {
  const auto [grid, h, w] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(grid * 5 + h * 13 + w * 37));
  nn::AdaptiveMaxPool2D pool(static_cast<std::size_t>(grid),
                             static_cast<std::size_t>(grid));
  // One sample of two channels, viewed per channel below as (2 x h x w).
  Tensor x = Tensor::uniform({2, static_cast<std::size_t>(h),
                              static_cast<std::size_t>(w)}, rng, -1, 1);
  Tensor y = pool.forward(x.reshape({1, 2, x.dim(1), x.dim(2)}), nullptr)
                 .reshape({2, static_cast<std::size_t>(grid),
                           static_cast<std::size_t>(grid)});
  EXPECT_EQ(y.dim(1), static_cast<std::size_t>(grid));
  EXPECT_EQ(y.dim(2), static_cast<std::size_t>(grid));
  // Every pooled value must exist in the corresponding input channel.
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t i = 0; i < y.dim(1) * y.dim(2); ++i) {
      const double v = y[c * y.dim(1) * y.dim(2) + i];
      bool found = false;
      for (std::size_t j = 0; j < x.dim(1) * x.dim(2) && !found; ++j) {
        found = (x[c * x.dim(1) * x.dim(2) + j] == v);
      }
      EXPECT_TRUE(found);
    }
  }
  // The global per-channel maximum always survives pooling (some window
  // contains it).
  for (std::size_t c = 0; c < 2; ++c) {
    double in_max = -1e18, out_max = -1e18;
    for (std::size_t j = 0; j < x.dim(1) * x.dim(2); ++j) {
      in_max = std::max(in_max, x[c * x.dim(1) * x.dim(2) + j]);
    }
    for (std::size_t j = 0; j < y.dim(1) * y.dim(2); ++j) {
      out_max = std::max(out_max, y[c * y.dim(1) * y.dim(2) + j]);
    }
    EXPECT_EQ(in_max, out_max);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, AmpSweep,
                         ::testing::Combine(::testing::Values(2, 3, 6),
                                            ::testing::Values(1, 4, 9, 17),
                                            ::testing::Values(1, 7, 12)));

// --- SortPooling invariants over n/k combinations -----------------------------

class SortPoolSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SortPoolSweep, SortedDescendingAndShapeCorrect) {
  const auto [n, k] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n * 19 + k));
  nn::SortPooling pool(static_cast<std::size_t>(k));
  Tensor z = Tensor::uniform({static_cast<std::size_t>(n), 3}, rng, -1, 1);
  Tensor out = pool.forward(z, {0, z.dim(0)}, nullptr)
                   .reshape({static_cast<std::size_t>(k), 3});
  EXPECT_EQ(out.dim(0), static_cast<std::size_t>(k));
  EXPECT_EQ(out.dim(1), 3u);
  const std::size_t filled = std::min<std::size_t>(n, k);
  for (std::size_t i = 1; i < filled; ++i) {
    EXPECT_GE(out.at(i - 1, 2), out.at(i, 2));  // last channel descending
  }
  for (std::size_t i = filled; i < static_cast<std::size_t>(k); ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(out.at(i, j), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SortPoolSweep,
                         ::testing::Combine(::testing::Values(1, 3, 8, 20),
                                            ::testing::Values(1, 4, 10)));

// --- GraphConv gradcheck across graph shapes and activations -----------------

struct GraphCase {
  std::vector<std::vector<std::size_t>> edges;
  const char* name;
};

class GraphConvSweep
    : public ::testing::TestWithParam<std::tuple<int, nn::Activation>> {};

TEST_P(GraphConvSweep, GradientsMatchNumeric) {
  const auto [which, act] = GetParam();
  static const std::vector<GraphCase> cases = {
      {{{}}, "single vertex"},
      {{{1}, {2}, {}}, "chain"},
      {{{1, 2, 3}, {}, {}, {}}, "star"},
      {{{1}, {2}, {0}}, "cycle"},
      {{{1, 1}, {}}, "parallel edges"},
  };
  const auto& graph = cases[static_cast<std::size_t>(which)];
  util::Rng rng(static_cast<std::uint64_t>(which * 83 + static_cast<int>(act)));
  nn::PaperGraphConv layer(2, 3, act, rng);
  tensor::SparseMatrix p = tensor::SparseMatrix::propagation_operator(graph.edges);
  // Shift inputs away from zero so ReLU kinks do not break the numeric
  // gradient comparison.
  Tensor z = Tensor::uniform({graph.edges.size(), 2}, rng, 0.3, 1.5);

  const Tensor w = Tensor::uniform({z.dim(0), 3}, rng, 0.2, 1.0);
  auto run = [&](const Tensor& input, nn::Tape* tape) {
    Tensor out({input.dim(0), 3});
    nn::InferenceWorkspace workspace;
    layer.forward(p, input, workspace, out.data(), 3, nullptr, tape);
    return out;
  };
  auto loss = [&](const Tensor& input) {
    Tensor out = run(input, nullptr);
    double total = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) total += w[i] * out[i];
    return total;
  };
  std::vector<Tensor> grads = nn::zero_gradients(layer.parameters());
  nn::Tape tape;
  run(z, &tape);
  Tensor din = layer.backward(p, w, tape, grads);
  Tensor num = numeric_grad(loss, z);
  for (std::size_t i = 0; i < din.size(); ++i) {
    EXPECT_NEAR(din[i], num[i], 1e-5) << graph.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GraphConvSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(nn::Activation::Tanh,
                                         nn::Activation::Identity)));

}  // namespace
}  // namespace magic::testing

// Negative tests for the checked-mode contract layer: every violation must
// fail with a message naming the layer and the expected-vs-actual shape, and
// out-of-range Tensor::at must name the index and the actual shape.
//
// Tests are always built with MAGIC_CHECKED_BUILD (CMake forces it on when
// MAGIC_BUILD_TESTS=ON), so the contracts are guaranteed live here.

#include "nn/shape_contract.hpp"

#include <string>

#include <gtest/gtest.h>

#include "nn/conv1d.hpp"
#include "nn/graph_conv.hpp"
#include "nn/linear.hpp"
#include "nn/sort_pooling.hpp"
#include "nn/weighted_vertices.hpp"
#include "tensor/sparse.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace magic::nn {
namespace {

using tensor::SparseMatrix;
using tensor::Tensor;

#ifndef MAGIC_CHECKED_BUILD
#error "shape_contract_test requires a checked build (MAGIC_CHECKED_BUILD)"
#endif

// Runs `fn`, requires a ShapeContractError whose message contains every
// fragment in `expected_fragments`.
template <typename Fn>
void expect_contract_violation(Fn&& fn,
                               std::initializer_list<const char*> fragments) {
  try {
    fn();
    FAIL() << "expected ShapeContractError";
  } catch (const ShapeContractError& e) {
    const std::string what = e.what();
    for (const char* fragment : fragments) {
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "message missing \"" << fragment << "\": " << what;
    }
  }
}

TEST(ShapeContract, GraphConvLayerNamesLayerAndShapes) {
  util::Rng rng(7);
  PaperGraphConv layer(4, 8, Activation::ReLU, rng);
  const auto prop = SparseMatrix::propagation_operator({{1}, {0}, {}});
  InferenceWorkspace workspace;
  Tensor out({3, 8});
  // 5 channels instead of the declared 4; the contract names the concrete
  // class.
  expect_contract_violation(
      [&] {
        layer.forward(prop, Tensor::zeros({3, 5}), workspace, out.data(), 8, nullptr,
                      nullptr);
      },
      {"PaperGraphConv::forward", "(n x 4)", "Tensor[3x5]"});
}

TEST(ShapeContract, GraphConvStackChecksFirstLayerWidth) {
  util::Rng rng(7);
  GraphConvStackConfig config;
  config.in_channels = 11;
  config.channels = {32, 32};
  GraphConvStack stack(config, rng);
  const auto prop = SparseMatrix::propagation_operator({{}, {}});
  InferenceWorkspace workspace;
  expect_contract_violation(
      [&] { stack.forward(prop, Tensor::zeros({2, 7}), workspace, nullptr); },
      {"GraphConvStack::forward", "(n x 11)", "Tensor[2x7]"});
}

TEST(ShapeContract, GraphConvOperatorSizeMismatchIsCheckError) {
  util::Rng rng(7);
  PaperGraphConv layer(4, 8, Activation::ReLU, rng);
  const auto prop = SparseMatrix::propagation_operator({{1}, {0}});  // 2x2
  InferenceWorkspace workspace;
  Tensor out({3, 8});
  EXPECT_THROW(layer.forward(prop, Tensor::zeros({3, 4}), workspace, out.data(), 8,
                             nullptr, nullptr),
               util::CheckError);
}

TEST(ShapeContract, SortPoolingRejectsWrongRank) {
  SortPooling pool(8);
  expect_contract_violation([&] { pool.forward(Tensor::zeros({6}), {0, 6}, nullptr); },
                            {"SortPooling::forward", "(n x C)", "Tensor[6]"});
}

TEST(ShapeContract, Conv1dNamesChannelsAndKernelBound) {
  util::Rng rng(7);
  Conv1D conv(16, 32, 5, 1, rng);
  // Wrong channel count.
  expect_contract_violation(
      [&] { conv.forward(Tensor::zeros({1, 3, 40}), nullptr); },
      {"Conv1D::forward", "(N x 16 x L>=5)", "Tensor[1x3x40]"});
  // Right channels, input shorter than the kernel.
  expect_contract_violation(
      [&] { conv.forward(Tensor::zeros({1, 16, 4}), nullptr); },
      {"Conv1D::forward", "(N x 16 x L>=5)", "Tensor[1x16x4]"});
}

TEST(ShapeContract, LinearNamesExpectedWidth) {
  util::Rng rng(7);
  Linear lin(3, 2, rng);
  // A sample without its batch dimension, then the wrong width.
  expect_contract_violation([&] { lin.forward(Tensor::zeros({3}), nullptr); },
                            {"Linear::forward", "(N x 3)", "Tensor[3]"});
  expect_contract_violation([&] { lin.forward(Tensor::zeros({5, 4}), nullptr); },
                            {"Linear::forward", "(N x 3)", "Tensor[5x4]"});
}

TEST(ShapeContract, WeightedVerticesNamesK) {
  util::Rng rng(7);
  WeightedVertices wv(8, Activation::ReLU, rng);
  expect_contract_violation([&] { wv.forward(Tensor::zeros({1, 4, 2}), nullptr); },
                            {"WeightedVertices::forward", "(N x 8 x C)", "Tensor[1x4x2]"});
}

TEST(ShapeContract, ViolationIsStillInvalidArgument) {
  // Pre-contract callers catch std::invalid_argument; the contract error
  // must remain substitutable.
  SortPooling pool(4);
  EXPECT_THROW(pool.forward(Tensor::zeros({6}), {0, 6}, nullptr), std::invalid_argument);
}

TEST(ShapeContract, TensorAtNamesIndexAndShape) {
  Tensor t = Tensor::zeros({3, 4});
  try {
    t.at(5, 7);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("at(i,j)"), std::string::npos) << what;
    EXPECT_NE(what.find("(5, 7)"), std::string::npos) << what;
    EXPECT_NE(what.find("Tensor[3x4]"), std::string::npos) << what;
  }
}

TEST(ShapeContract, TensorAtNamesRankMismatch) {
  Tensor t = Tensor::zeros({2, 3, 4});
  try {
    t.at(0, 0);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank-2 accessor"), std::string::npos) << what;
    EXPECT_NE(what.find("Tensor[2x3x4]"), std::string::npos) << what;
  }
}

TEST(ShapeContract, MagicCheckFormatsStreamedMessage) {
  const int got = 7;
  try {
    MAGIC_CHECK(got == 3, "expected 3, got " << got);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("expected 3, got 7"), std::string::npos) << what;
    EXPECT_NE(what.find("got == 3"), std::string::npos) << what;
  }
}

TEST(ShapeContract, FormatContractRendersSymbolsAndBounds) {
  EXPECT_EQ(format_contract({shape::eq(16), shape::at_least("L", 5)}),
            "(16 x L>=5)");
  EXPECT_EQ(format_contract({shape::any("n"), shape::any("C")}), "(n x C)");
  EXPECT_EQ(format_contract({}), "scalar");
}

}  // namespace
}  // namespace magic::nn

#pragma once
// The AdaptiveMaxPooling pre-pool stage (§III-C), fused into one pass.
//
// The paper's AMP model runs a Conv2D over the graph-convolution output
// Z^{1:h} viewed as a one-channel (n x C) image, a ReLU, and an adaptive max
// pool to a fixed g x g grid. Done layer by layer that chain writes an
// (f x n x C) activation, copies it in ReLU and zero-fills two more of that
// size in backward, although only f * g * g pooled values (and gradients)
// survive. AdaptiveConvPool computes the same stage row by row: each
// output row of each filter is built from input rows y-1..y+1 into one
// C-wide row buffer and folded straight into the windows covering it, so
// it keeps only each window's max, argmax and pre-activation (plus, when
// training, a copy of the input for the weight gradient). Backward touches
// the argmax positions only.
//
// Results equal Conv2D(1, f, 3, 3, 1) -> ReLU -> AdaptiveMaxPool2D(g, g)
// with the same weights (tests/nn/adaptive_conv_pool_test.cpp pins this
// against the unfused chain):
//   * window bounds are AdaptiveMaxPool2D's, clamped the same way for n < g
//     and n = 1;
//   * the first maximum in raster order wins a tie;
//   * a window with no positive pre-activation outputs 0 and passes back a
//     zero gradient;
//   * windows sharing an argmax sum their gradients;
//   * every gradient term of the dense Conv2D backward that can be nonzero
//     is accumulated in the same order, so bias and input gradients match
//     bit for bit.

#include <cstddef>
#include <vector>

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace magic::nn {

/// Fused Conv2D(1 -> f, 3 x 3, padding 1) -> ReLU -> AdaptiveMaxPool2D(g, g):
/// (n x C) -> (f x g x g). Owns `conv2d.weight` (f x 1 x 3 x 3) and
/// `conv2d.bias` (f), drawn exactly as Conv2D(1, f, 3, 3, 1, rng) draws them.
class AdaptiveConvPool : public Module {
 public:
  AdaptiveConvPool(std::size_t channels, std::size_t grid, util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  /// (f x g x g) -> (n x C); adds the parameter gradients.
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "AdaptiveConvPool"; }

  /// Inference on an (n x c) row-major block, e.g. one graph's rows of a
  /// packed matrix: writes the f * g * g pooled values to `out`. Caches
  /// nothing, so it needs no copy of the rows.
  void forward_into(const double* rows, std::size_t n, std::size_t c,
                    double* out) const;

  std::size_t channels() const noexcept { return channels_; }
  std::size_t grid() const noexcept { return grid_; }

 private:
  /// The streaming pass. `argmax` (flat row-major input index) and
  /// `preact` (pre-activation at that index), f * g * g entries each, are
  /// written when non-null.
  void pool(const double* rows, std::size_t n, std::size_t c, double* out,
            std::size_t* argmax, double* preact) const;

  std::size_t channels_;
  std::size_t grid_;
  Parameter weight_;  // (f x 1 x 3 x 3)
  Parameter bias_;    // (f)
  Tensor cached_input_;
  std::vector<std::size_t> argmax_;
  std::vector<double> preact_;
  bool cache_valid_ = false;
};

}  // namespace magic::nn

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
// it keeps only each window's max, argmax and pre-activation (and, on a
// tape, the input for the weight gradient). Backward touches the argmax
// positions only.
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

/// Fused Conv2D(1 -> f, 3 x 3, padding 1) -> ReLU -> AdaptiveMaxPool2D(g, g)
/// over a packed batch: the (total_vertices x C) rows of N graphs, delimited
/// by the N + 1 segment `offsets`, map to (N x f x g x g), each graph's rows
/// pooled as one (n x C) image. Owns `conv2d.weight` (f x 1 x 3 x 3) and
/// `conv2d.bias` (f), drawn exactly as Conv2D(1, f, 3, 3, 1, rng) draws them.
class AdaptiveConvPool {
 public:
  AdaptiveConvPool(std::size_t channels, std::size_t grid, util::Rng& rng);

  /// Reads each graph's rows in place. Records the input, the offsets and
  /// every window's argmax and pre-activation.
  Tensor forward(Tensor packed, const std::vector<std::size_t>& offsets,
                 Tape* tape) const;
  /// (N x f x g x g) -> (total_vertices x C); adds the parameter gradients.
  Tensor backward(Tensor grad_output, Tape& tape, Gradients grads) const;
  std::vector<Parameter*> parameters();

 private:
  /// The streaming pass over one (n x c) image. `argmax` (flat row-major
  /// index into the image) and `preact` (pre-activation at that index),
  /// f * g * g entries each, are written when non-null.
  void pool(const double* rows, std::size_t n, std::size_t c, double* out,
            std::size_t* argmax, double* preact) const;
  /// Backward of one image: adds its parameter gradients and writes the
  /// image's input gradient into `grad_in` (zeroed by the caller).
  void pool_backward(const double* rows, std::size_t n, std::size_t c,
                     const double* grad_output, const std::size_t* argmax,
                     const double* preact, double* grad_in, Gradients grads) const;

  std::size_t channels_;
  std::size_t grid_;
  Parameter weight_;  // (f x 1 x 3 x 3)
  Parameter bias_;    // (f)
};

}  // namespace magic::nn

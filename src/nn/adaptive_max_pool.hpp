#pragma once
// Adaptive max pooling (§III-C of the paper, Fig. 6).
//
// Inputs of any (H x W) spatial size are reduced to a fixed (OH x OW) grid:
// the layer partitions each input into OH x OW sub-windows whose sizes are
// derived from the input dimensions, and keeps the maximum per sub-window
// and channel. This unifies variable-size graph-convolution outputs Z^{1:h}
// without sorting, and is the paper's best-performing pooling on both
// datasets (Table II). DgcnnModel runs the fused AdaptiveConvPool; this
// layer is the unfused reference it is tested against.

#include "nn/module.hpp"

namespace magic::nn {

/// AdaptiveMaxPool2D over (N x C x H x W) -> (N x C x OH x OW). Requires
/// H >= 1, W >= 1; windows follow the standard adaptive rule
/// rows(i) = [floor(i*H/OH), ceil((i+1)*H/OH)).
class AdaptiveMaxPool2D : public Module {
 public:
  AdaptiveMaxPool2D(std::size_t out_h, std::size_t out_w);

  /// Records the input shape and the argmax of every output element.
  Tensor forward(Tensor input, Tape* tape) const override;
  Tensor backward(Tensor grad_output, Tape& tape, Gradients grads) const override;
  std::string name() const override { return "AdaptiveMaxPool2D"; }

  std::size_t out_h() const noexcept { return oh_; }
  std::size_t out_w() const noexcept { return ow_; }

 private:
  std::size_t oh_;
  std::size_t ow_;
};

}  // namespace magic::nn

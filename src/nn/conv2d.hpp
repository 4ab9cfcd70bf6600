#pragma once
// 2-D convolution over (channels x height x width) tensors.
//
// Used by the AdaptiveMaxPooling head (§III-C): a Conv2D runs over the
// concatenated graph-convolution output Z^{1:h} (viewed as a one-channel
// image) before adaptive max pooling, and a small VGG-inspired Conv2D stack
// follows the pooling.

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace magic::nn {

/// Conv2D with stride 1 and symmetric zero padding. Input
/// (N x C_in x H x W); output (N x C_out x H + 2p - kh + 1 x W + 2p - kw + 1).
class Conv2D : public Module {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel_h,
         std::size_t kernel_w, std::size_t padding, util::Rng& rng);

  /// One convolve loop per sample; records the input.
  Tensor forward(Tensor input, Tape* tape) const override;
  Tensor backward(Tensor grad_output, Tape& tape, Gradients grads) const override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "Conv2D"; }

 private:
  /// One (C_in x H x W) image into (C_out x Ho x Wo).
  void convolve_into(const double* pin, double* pout, std::size_t H,
                     std::size_t W) const;

  std::size_t in_channels_;
  std::size_t out_channels_;
  std::size_t kh_;
  std::size_t kw_;
  std::size_t pad_;
  Parameter weight_;  // (C_out x C_in x kh x kw)
  Parameter bias_;    // (C_out)
};

}  // namespace magic::nn

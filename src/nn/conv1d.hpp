#pragma once
// 1-D convolution over (channels x length) inputs.
//
// The original DGCNN head (§III-A4) applies a Conv1D of kernel/stride equal
// to the per-vertex descriptor width to the flattened SortPooling output,
// then a second Conv1D with a small kernel (the paper tunes kernel size in
// {5, 7} and channel pair (16, 32), Table II).

#include "nn/activations.hpp"
#include "nn/module.hpp"
#include "util/rng.hpp"

namespace magic::nn {

/// Conv1D layer. Input (N x C_in x L); output (N x C_out x L_out) with
/// L_out = (L - kernel) / stride + 1 (no padding).
class Conv1D : public Module {
 public:
  Conv1D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, util::Rng& rng);

  /// One convolve loop per sample, whatever N is; records the input.
  Tensor forward(Tensor input, Tape* tape) const override;
  Tensor backward(Tensor grad_output, Tape& tape, Gradients grads) const override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "Conv1D"; }

  std::size_t out_length(std::size_t in_length) const;

 private:
  /// One (C_in x L) image into (C_out x Lo).
  void convolve_into(const double* in, double* out, std::size_t L,
                     std::size_t Lo) const;

  std::size_t in_channels_;
  std::size_t out_channels_;
  std::size_t kernel_;
  std::size_t stride_;
  Parameter weight_;  // (C_out x C_in x K)
  Parameter bias_;    // (C_out)
};

}  // namespace magic::nn

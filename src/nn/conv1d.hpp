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

/// Conv1D layer. Input (C_in x L); output (C_out x L_out) with
/// L_out = (L - kernel) / stride + 1 (no padding).
class Conv1D : public Module {
 public:
  Conv1D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  /// (batch x C_in x L) -> (batch x C_out x L_out). Lowered to one im2col +
  /// GEMM over the whole batch (instead of re-streaming every image once
  /// per output channel), so it matches forward() per sample to within
  /// floating-point associativity of the shared kernels.
  Tensor forward_batch(const Tensor& input) const override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "Conv1D"; }

  std::size_t out_length(std::size_t in_length) const;

 private:
  /// Shared convolution core: one (C_in x L) image into (C_out x Lo).
  void convolve_into(const double* in, double* out, std::size_t L,
                     std::size_t Lo) const;

  std::size_t in_channels_;
  std::size_t out_channels_;
  std::size_t kernel_;
  std::size_t stride_;
  Parameter weight_;  // (C_out x C_in x K)
  Parameter bias_;    // (C_out)
  Tensor cached_input_;
  bool cache_valid_ = false;
};

}  // namespace magic::nn

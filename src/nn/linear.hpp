#pragma once
// Fully connected layer: Y = X W + b.

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace magic::nn {

/// Affine layer. Accepts rank-1 input (treated as 1 x in) or rank-2 input
/// (batch x in); the output mirrors the input rank.
class Linear : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng,
         bool bias = true);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  /// One (batch x in) x (in x out) GEMM — forward() already accepts rank-2
  /// input, so the batch runs fused with no per-sample slicing.
  Tensor forward_batch(const Tensor& input) const override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "Linear"; }

  std::size_t in_features() const noexcept { return in_; }
  std::size_t out_features() const noexcept { return out_; }

  Parameter& weight() noexcept { return weight_; }
  Parameter& bias() noexcept { return bias_; }

 private:
  /// X W + b for a rank-2 (rows x in) X: the math shared by both forwards.
  Tensor affine(const Tensor& input) const;

  std::size_t in_;
  std::size_t out_;
  bool has_bias_;
  Parameter weight_;  // (in x out)
  Parameter bias_;    // (out)
  Tensor cached_input_;  // as 2-D; only stored while grad caching is enabled
  Tensor dw_scratch_;    // reused (in x out) buffer for X^T dY
  bool input_was_rank1_ = false;
  bool cache_valid_ = false;
};

}  // namespace magic::nn

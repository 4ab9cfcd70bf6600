#pragma once
// Fully connected layer: Y = X W + b.

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace magic::nn {

/// Affine layer over a (N x in) batch of rank-1 samples: (N x in) ->
/// (N x out) as one GEMM.
class Linear : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng,
         bool bias = true);

  /// Records the input (dW = X^T dY).
  Tensor forward(Tensor input, Tape* tape) const override;
  Tensor backward(Tensor grad_output, Tape& tape, Gradients grads) const override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "Linear"; }

  std::size_t in_features() const noexcept { return in_; }
  std::size_t out_features() const noexcept { return out_; }

  Parameter& weight() noexcept { return weight_; }
  Parameter& bias() noexcept { return bias_; }

 private:
  std::size_t in_;
  std::size_t out_;
  bool has_bias_;
  Parameter weight_;  // (in x out)
  Parameter bias_;    // (out)
};

}  // namespace magic::nn

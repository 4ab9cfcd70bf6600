#pragma once
// WeightedVertices layer (§III-B of the paper, Eq. 3-4 and Fig. 5).
//
// The paper's first extension to DGCNN: a single-channel Conv1D of kernel
// size k and stride k over the SortPooling output is equivalent to
//
//   E = f( W x Z^sp ),   W in R^{1 x k}
//
// i.e. a learned weighted sum of the k kept vertex embeddings, producing a
// graph embedding E in R^{1 x sum(c_t)} that feeds the classifier. The
// weights are trained by gradient descent together with the rest of the
// network.

#include "nn/activations.hpp"
#include "nn/module.hpp"
#include "util/rng.hpp"

namespace magic::nn {

/// Input (k x C); output rank-1 tensor of length C.
class WeightedVertices : public Module {
 public:
  WeightedVertices(std::size_t k, Activation activation, util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  /// (batch x k x C) -> (batch x C); identical accumulation order per sample.
  Tensor forward_batch(const Tensor& input) const override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "WeightedVertices"; }

  Parameter& weight() noexcept { return weight_; }

 private:
  std::size_t k_;
  Activation activation_;
  Parameter weight_;  // (k)
  Tensor cached_input_;
  Tensor cached_preact_;  // S = W Zsp, length C
  bool cache_valid_ = false;
};

}  // namespace magic::nn

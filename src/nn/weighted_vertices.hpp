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

/// Input (N x k x C); output (N x C): one length-C embedding per sample.
class WeightedVertices : public Module {
 public:
  WeightedVertices(std::size_t k, Activation activation, util::Rng& rng);

  /// Records the input and the pre-activations S = W Zsp.
  Tensor forward(Tensor input, Tape* tape) const override;
  Tensor backward(Tensor grad_output, Tape& tape, Gradients grads) const override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "WeightedVertices"; }

  Parameter& weight() noexcept { return weight_; }

 private:
  std::size_t k_;
  Activation activation_;
  Parameter weight_;  // (k)
};

}  // namespace magic::nn

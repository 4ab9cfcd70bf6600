#pragma once
// Max pooling over the length axis of a (channels x length) tensor; used
// between the two Conv1D layers of the original DGCNN head.

#include "nn/module.hpp"

namespace magic::nn {

/// MaxPool1D with kernel/stride over (N x C x L); output length
/// floor((L - kernel)/stride)+1.
class MaxPool1D : public Module {
 public:
  MaxPool1D(std::size_t kernel, std::size_t stride);

  /// Records the input shape and the argmax of every output element.
  Tensor forward(Tensor input, Tape* tape) const override;
  Tensor backward(Tensor grad_output, Tape& tape, Gradients grads) const override;
  std::string name() const override { return "MaxPool1D"; }

 private:
  std::size_t kernel_;
  std::size_t stride_;
};

}  // namespace magic::nn

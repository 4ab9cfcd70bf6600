#pragma once
// Max pooling over the length axis of a (channels x length) tensor; used
// between the two Conv1D layers of the original DGCNN head.

#include "nn/module.hpp"

#include <vector>

namespace magic::nn {

/// MaxPool1D with kernel/stride; output length floor((L - kernel)/stride)+1.
class MaxPool1D : public Module {
 public:
  MaxPool1D(std::size_t kernel, std::size_t stride);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  /// (batch x C x L) -> (batch x C x L_out); no argmax bookkeeping.
  Tensor forward_batch(const Tensor& input) const override;
  std::string name() const override { return "MaxPool1D"; }

 private:
  std::size_t kernel_;
  std::size_t stride_;
  Shape input_shape_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
};

}  // namespace magic::nn

#include "nn/max_pool1d.hpp"

#include <stdexcept>

#include "nn/shape_contract.hpp"

namespace magic::nn {

MaxPool1D::MaxPool1D(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride) {
  if (kernel == 0 || stride == 0) {
    throw std::invalid_argument("MaxPool1D: kernel and stride must be positive");
  }
}

Tensor MaxPool1D::forward(Tensor input, Tape* tape) const {
  MAGIC_SHAPE_CONTRACT("MaxPool1D::forward", input, shape::any("N"),
                       shape::any("C"), shape::at_least("L", kernel_));
  check_batch("MaxPool1D::forward", input, 3);
  const std::size_t batch = input.dim(0), C = input.dim(1), L = input.dim(2);
  if (L < kernel_) throw std::invalid_argument("MaxPool1D: input shorter than kernel");
  const std::size_t Lo = (L - kernel_) / stride_ + 1;
  Tensor out({batch, C, Lo});
  std::vector<std::size_t> argmax(tape != nullptr ? out.size() : 0);
  for (std::size_t row = 0; row < batch * C; ++row) {
    for (std::size_t t = 0; t < Lo; ++t) {
      std::size_t best = row * L + t * stride_;
      for (std::size_t k = 1; k < kernel_; ++k) {
        const std::size_t idx = row * L + t * stride_ + k;
        if (input[idx] > input[best]) best = idx;
      }
      out[row * Lo + t] = input[best];
      if (tape != nullptr) argmax[row * Lo + t] = best;
    }
  }
  if (tape != nullptr) {
    tape->push(input.shape());
    tape->push(std::move(argmax));
  }
  return out;
}

Tensor MaxPool1D::backward(Tensor grad_output, Tape& tape, Gradients grads) const {
  check_gradients("MaxPool1D::backward", grads, 0);
  const std::vector<std::size_t> argmax = tape.pop_indices();
  const Shape input_shape = tape.pop_indices();
  if (grad_output.size() != argmax.size()) {
    throw std::invalid_argument("MaxPool1D::backward: grad shape mismatch");
  }
  Tensor grad_in = Tensor::zeros(input_shape);
  for (std::size_t i = 0; i < argmax.size(); ++i) {
    grad_in[argmax[i]] += grad_output[i];
  }
  return grad_in;
}

}  // namespace magic::nn

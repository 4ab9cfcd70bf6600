#include "nn/linear.hpp"

#include "nn/init.hpp"
#include "nn/shape_contract.hpp"

namespace magic::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng,
               bool bias)
    : in_(in_features),
      out_(out_features),
      has_bias_(bias),
      weight_("linear.weight", xavier_uniform({in_features, out_features},
                                              in_features, out_features, rng)),
      bias_("linear.bias", Tensor::zeros({out_features})) {}

Tensor Linear::forward(Tensor input, Tape* tape) const {
  MAGIC_SHAPE_CONTRACT("Linear::forward", input, shape::any("N"),
                       shape::eq(in_));
  check_batch("Linear::forward", input, 2);
  if (input.dim(1) != in_) {
    throw std::invalid_argument("Linear::forward: expected (N x " +
                                std::to_string(in_) + "), got " + input.describe());
  }
  Tensor out = tensor::matmul(input, weight_.value);
  if (has_bias_) {
    const std::size_t rows = out.dim(0);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < out_; ++j) out[i * out_ + j] += bias_.value[j];
    }
  }
  if (tape != nullptr) tape->push(std::move(input));
  return out;
}

Tensor Linear::backward(Tensor grad_output, Tape& tape, Gradients grads) const {
  check_gradients("Linear::backward", grads, has_bias_ ? 2 : 1);
  const Tensor input = tape.pop_tensor();
  if (grad_output.rank() != 2 || grad_output.dim(1) != out_ ||
      grad_output.dim(0) != input.dim(0)) {
    throw std::invalid_argument("Linear::backward: grad shape mismatch");
  }
  // dW = X^T dY ; db = column sums of dY ; dX = dY W^T, with the
  // transpose-free kernels.
  grads[0] += tensor::matmul_tn(input, grad_output);
  if (has_bias_) {
    const std::size_t rows = grad_output.dim(0);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < out_; ++j) grads[1][j] += grad_output[i * out_ + j];
    }
  }
  return tensor::matmul_nt(grad_output, weight_.value);
}

std::vector<Parameter*> Linear::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace magic::nn

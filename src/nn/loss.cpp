#include "nn/loss.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/shape_contract.hpp"
#include "tensor/simd/kernels.hpp"

namespace magic::nn {

Tensor LogSoftmax::forward(Tensor input, Tape* tape) const {
  MAGIC_SHAPE_CONTRACT("LogSoftmax::forward", input, shape::any("N"),
                       shape::at_least("classes", 1));
  check_batch("LogSoftmax::forward", input, 2);
  if (input.dim(1) == 0) {
    throw std::invalid_argument("LogSoftmax::forward: no classes");
  }
  const std::size_t rows = input.dim(0), classes = input.dim(1);
  const auto& kernels = tensor::simd::kernels();
  for (std::size_t r = 0; r < rows; ++r) {
    kernels.logsoftmax_fwd(input.data() + r * classes, classes);
  }
  if (tape != nullptr) tape->push(input);
  return input;
}

Tensor LogSoftmax::backward(Tensor grad_output, Tape& tape, Gradients grads) const {
  check_gradients("LogSoftmax::backward", grads, 0);
  const Tensor output = tape.pop_tensor();
  if (!grad_output.same_shape(output)) {
    throw std::invalid_argument("LogSoftmax::backward: shape mismatch");
  }
  // d/dx_j of log_softmax_i = delta_ij - softmax_j, row by row.
  const std::size_t rows = output.dim(0), classes = output.dim(1);
  const auto& kernels = tensor::simd::kernels();
  for (std::size_t r = 0; r < rows; ++r) {
    kernels.logsoftmax_bwd(grad_output.data() + r * classes,
                           output.data() + r * classes, classes);
  }
  return grad_output;
}

namespace {

void check_observation(const Tensor& log_probs, std::size_t target) {
  MAGIC_SHAPE_CONTRACT("NllLoss::forward", log_probs, shape::at_least("classes", 1));
  if (log_probs.rank() != 1 || target >= log_probs.dim(0)) {
    throw std::invalid_argument("NllLoss: bad target or input rank");
  }
}

}  // namespace

double NllLoss::forward(const Tensor& log_probs, std::size_t target) const {
  check_observation(log_probs, target);
  return -log_probs[target];
}

Tensor NllLoss::backward(const Tensor& log_probs, std::size_t target) const {
  check_observation(log_probs, target);
  Tensor grad = Tensor::zeros(log_probs.shape());
  grad[target] = -1.0;
  return grad;
}

Tensor exp_probs(const Tensor& log_probs) {
  Tensor out = log_probs;
  tensor::simd::kernels().exp_fwd(out.data(), out.size());
  return out;
}

}  // namespace magic::nn

#include "nn/activations.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/shape_contract.hpp"
#include "tensor/simd/kernels.hpp"

namespace magic::nn {

Tensor ReLU::forward(Tensor input, Tape* tape) const {
  MAGIC_SHAPE_CONTRACT_ANY("ReLU::forward", input);
  if (tape != nullptr) tape->push(input);
  tensor::simd::kernels().relu_fwd(input.data(), input.size());
  return input;
}

Tensor ReLU::backward(Tensor grad_output, Tape& tape, Gradients grads) const {
  check_gradients("ReLU::backward", grads, 0);
  const Tensor input = tape.pop_tensor();
  if (!grad_output.same_shape(input)) {
    throw std::invalid_argument("ReLU::backward: shape mismatch");
  }
  tensor::simd::kernels().relu_bwd(grad_output.data(), input.data(), grad_output.size());
  return grad_output;
}

Tensor Tanh::forward(Tensor input, Tape* tape) const {
  MAGIC_SHAPE_CONTRACT_ANY("Tanh::forward", input);
  tensor::simd::kernels().tanh_fwd(input.data(), input.size());
  if (tape != nullptr) tape->push(input);
  return input;
}

Tensor Tanh::backward(Tensor grad_output, Tape& tape, Gradients grads) const {
  check_gradients("Tanh::backward", grads, 0);
  const Tensor output = tape.pop_tensor();
  if (!grad_output.same_shape(output)) {
    throw std::invalid_argument("Tanh::backward: shape mismatch");
  }
  tensor::simd::kernels().tanh_bwd(grad_output.data(), output.data(), grad_output.size());
  return grad_output;
}

double activate(Activation a, double x) noexcept {
  switch (a) {
    case Activation::ReLU: return x > 0.0 ? x : 0.0;
    case Activation::Tanh: return std::tanh(x);
    case Activation::Identity: return x;
  }
  return x;
}

double activate_grad(Activation a, double x) noexcept {
  switch (a) {
    case Activation::ReLU: return x > 0.0 ? 1.0 : 0.0;
    case Activation::Tanh: {
      const double t = std::tanh(x);
      return 1.0 - t * t;
    }
    case Activation::Identity: return 1.0;
  }
  return 1.0;
}

void apply_activation(Activation a, double* x, std::size_t n) {
  switch (a) {
    case Activation::ReLU: tensor::simd::kernels().relu_fwd(x, n); return;
    case Activation::Tanh: tensor::simd::kernels().tanh_fwd(x, n); return;
    case Activation::Identity: return;
  }
}

void apply_activation_grad(Activation a, double* grad, const double* preact,
                           std::size_t n) {
  switch (a) {
    case Activation::ReLU:
      tensor::simd::kernels().relu_bwd(grad, preact, n);
      return;
    case Activation::Tanh:
      tensor::simd::kernels().tanh_grad_pre(grad, preact, n);
      return;
    case Activation::Identity: return;
  }
}

}  // namespace magic::nn

#include "nn/activations.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/shape_contract.hpp"
#include "tensor/simd/kernels.hpp"

namespace magic::nn {

Tensor ReLU::forward(const Tensor& input) {
  MAGIC_SHAPE_CONTRACT_ANY("ReLU::forward", input);
  cache_valid_ = grad_enabled();
  if (cache_valid_) cached_input_ = input;
  Tensor out = input;
  tensor::simd::kernels().relu_fwd(out.data(), out.size());
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (!cache_valid_) {
    throw std::logic_error("ReLU::backward: no cached forward (grad caching disabled)");
  }
  if (!grad_output.same_shape(cached_input_)) {
    throw std::invalid_argument("ReLU::backward: shape mismatch");
  }
  Tensor grad = grad_output;
  tensor::simd::kernels().relu_bwd(grad.data(), cached_input_.data(), grad.size());
  return grad;
}

Tensor ReLU::forward_batch(const Tensor& input) const {
  return forward_batch_owned(Tensor(input));
}

Tensor ReLU::forward_batch_owned(Tensor&& input) const {
  (void)batch_item_shape(input, "ReLU::forward_batch");
  tensor::simd::kernels().relu_fwd(input.data(), input.size());
  return std::move(input);
}

Tensor Tanh::forward(const Tensor& input) {
  MAGIC_SHAPE_CONTRACT_ANY("Tanh::forward", input);
  cache_valid_ = grad_enabled();
  Tensor out = input;
  tensor::simd::kernels().tanh_fwd(out.data(), out.size());
  if (cache_valid_) cached_output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  if (!cache_valid_) {
    throw std::logic_error("Tanh::backward: no cached forward (grad caching disabled)");
  }
  if (!grad_output.same_shape(cached_output_)) {
    throw std::invalid_argument("Tanh::backward: shape mismatch");
  }
  Tensor grad = grad_output;
  tensor::simd::kernels().tanh_bwd(grad.data(), cached_output_.data(), grad.size());
  return grad;
}

Tensor Sigmoid::forward(const Tensor& input) {
  MAGIC_SHAPE_CONTRACT_ANY("Sigmoid::forward", input);
  cache_valid_ = grad_enabled();
  if (!cache_valid_) {
    return tensor::map(input, [](double x) { return 1.0 / (1.0 + std::exp(-x)); });
  }
  cached_output_ = tensor::map(input, [](double x) { return 1.0 / (1.0 + std::exp(-x)); });
  return cached_output_;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  if (!cache_valid_) {
    throw std::logic_error("Sigmoid::backward: no cached forward (grad caching disabled)");
  }
  if (!grad_output.same_shape(cached_output_)) {
    throw std::invalid_argument("Sigmoid::backward: shape mismatch");
  }
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    grad[i] *= cached_output_[i] * (1.0 - cached_output_[i]);
  }
  return grad;
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

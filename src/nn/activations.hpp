#pragma once
// Elementwise activation modules: ReLU (paper's worked example, Fig. 3/5),
// Tanh (original DGCNN's graph-conv nonlinearity) and Sigmoid.

#include <cstddef>

#include "nn/module.hpp"

namespace magic::nn {

/// f(x) = max(x, 0).
class ReLU : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  /// Elementwise, so the batch is just a bigger tensor (no slicing).
  Tensor forward_batch(const Tensor& input) const override;
  /// Owned input: clamps in place, reusing the caller's storage.
  Tensor forward_batch_owned(Tensor&& input) const override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor cached_input_;
  bool cache_valid_ = false;
};

/// f(x) = tanh(x).
class Tanh : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Tanh"; }

 private:
  Tensor cached_output_;
  bool cache_valid_ = false;
};

/// f(x) = 1 / (1 + exp(-x)).
class Sigmoid : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Sigmoid"; }

 private:
  Tensor cached_output_;
  bool cache_valid_ = false;
};

/// Which nonlinearity a graph-convolution layer applies (Eq. 1's f).
enum class Activation { ReLU, Tanh, Identity };

/// Functional forms used by layers that fuse the activation.
double activate(Activation a, double x) noexcept;
/// Derivative expressed via the *pre-activation* input x.
double activate_grad(Activation a, double x) noexcept;

/// Bulk forms dispatching through the SIMD kernel table; layers that touch
/// whole rows/buffers use these instead of per-element activate() calls.
/// Applies the nonlinearity to x[0..n) in place.
void apply_activation(Activation a, double* x, std::size_t n);
/// grad[i] *= f'(preact[i]) for i in [0, n).
void apply_activation_grad(Activation a, double* grad, const double* preact,
                           std::size_t n);

}  // namespace magic::nn

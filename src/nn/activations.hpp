#pragma once
// Elementwise activation modules: ReLU (paper's worked example, Fig. 3/5)
// and Tanh (original DGCNN's graph-conv nonlinearity).

#include <cstddef>

#include "nn/module.hpp"

namespace magic::nn {

/// f(x) = max(x, 0), elementwise over any shape.
class ReLU : public Module {
 public:
  /// Records the input (backward passes the gradient where it was > 0).
  Tensor forward(Tensor input, Tape* tape) const override;
  Tensor backward(Tensor grad_output, Tape& tape, Gradients grads) const override;
  std::string name() const override { return "ReLU"; }
};

/// f(x) = tanh(x), elementwise over any shape.
class Tanh : public Module {
 public:
  /// Records the output (f' = 1 - f^2).
  Tensor forward(Tensor input, Tape* tape) const override;
  Tensor backward(Tensor grad_output, Tape& tape, Gradients grads) const override;
  std::string name() const override { return "Tanh"; }
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

#pragma once
// Shared test helpers: numerical gradient checking for nn modules and a few
// fixture builders.

#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace magic::testing {

using nn::Tensor;

/// Central-difference numerical gradient of scalar(x) at x.
inline Tensor numeric_grad(const std::function<double(const Tensor&)>& scalar,
                           const Tensor& x, double eps = 1e-5) {
  Tensor grad = Tensor::zeros(x.shape());
  Tensor probe = x;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double orig = probe[i];
    probe[i] = orig + eps;
    const double hi = scalar(probe);
    probe[i] = orig - eps;
    const double lo = scalar(probe);
    probe[i] = orig;
    grad[i] = (hi - lo) / (2.0 * eps);
  }
  return grad;
}

/// The forward of a function under gradient check: maps `input`, recording
/// on `tape` when it is non-null.
using ForwardFn = std::function<Tensor(const Tensor& input, nn::Tape* tape)>;
/// Its backward: pops the records, adds the parameter gradients into
/// `grads` and returns d(loss)/d(input).
using BackwardFn =
    std::function<Tensor(const Tensor& grad_output, nn::Tape& tape, nn::Gradients grads)>;

/// Checks a function's input gradient and the gradients it adds for
/// `params` (in `grads` order) against numerical differentiation, using the
/// scalar loss L = sum(w ⊙ f(x)) for a fixed random weighting w (so every
/// output element participates). Also checks that backward consumes
/// exactly the records its forward left on the tape.
///
/// Requires a *deterministic* function (dropout on an unseeded tape).
inline void check_function_gradients(const ForwardFn& forward, const BackwardFn& backward,
                                     const std::vector<nn::Parameter*>& params,
                                     const Tensor& input, util::Rng& rng,
                                     double tol = 1e-6, double eps = 1e-5) {
  const Tensor probe_out = forward(input, nullptr);
  const Tensor w = Tensor::uniform(probe_out.shape(), rng, -1.0, 1.0);

  auto loss_for_input = [&](const Tensor& x) {
    const Tensor out = forward(x, nullptr);
    double total = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) total += w[i] * out[i];
    return total;
  };

  // Analytic gradients.
  std::vector<Tensor> grads = nn::zero_gradients(params);
  nn::Tape tape;
  forward(input, &tape);
  const Tensor grad_in = backward(w, tape, grads);
  EXPECT_TRUE(tape.empty()) << "backward left records on the tape";

  const Tensor num_in = numeric_grad(loss_for_input, input, eps);
  ASSERT_EQ(grad_in.shape(), num_in.shape());
  for (std::size_t i = 0; i < grad_in.size(); ++i) {
    EXPECT_NEAR(grad_in[i], num_in[i], tol) << "input grad mismatch at " << i;
  }

  for (std::size_t k = 0; k < params.size(); ++k) {
    nn::Parameter* p = params[k];
    auto loss_for_param = [&](const Tensor& v) {
      const Tensor saved = p->value;
      p->value = v;
      const double loss = loss_for_input(input);
      p->value = saved;
      return loss;
    };
    const Tensor num_p = numeric_grad(loss_for_param, p->value, eps);
    for (std::size_t i = 0; i < num_p.size(); ++i) {
      EXPECT_NEAR(grads[k][i], num_p[i], tol)
          << "param " << p->name << " grad mismatch at " << i;
    }
  }
}

/// check_function_gradients over a module's forward and backward.
inline void check_module_gradients(nn::Module& module, const Tensor& input,
                                   util::Rng& rng, double tol = 1e-6,
                                   double eps = 1e-5) {
  check_function_gradients(
      [&](const Tensor& x, nn::Tape* tape) { return module.forward(x, tape); },
      [&](const Tensor& g, nn::Tape& tape, nn::Gradients grads) {
        return module.backward(g, tape, grads);
      },
      module.parameters(), input, rng, tol, eps);
}

}  // namespace magic::testing

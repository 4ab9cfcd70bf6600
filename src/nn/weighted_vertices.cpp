#include "nn/weighted_vertices.hpp"

#include <cmath>

#include "nn/shape_contract.hpp"

namespace magic::nn {

WeightedVertices::WeightedVertices(std::size_t k, Activation activation,
                                   util::Rng& rng)
    : k_(k),
      activation_(activation),
      // Initialized near uniform averaging (1/k with small noise) so early
      // training behaves like mean pooling over the kept vertices.
      weight_("weighted_vertices.weight", Tensor::zeros({k})) {
  if (k == 0) throw std::invalid_argument("WeightedVertices: k must be positive");
  const double base = 1.0 / static_cast<double>(k);
  for (std::size_t i = 0; i < k; ++i) {
    weight_.value[i] = base + rng.uniform(-0.1 * base, 0.1 * base);
  }
}

Tensor WeightedVertices::forward(Tensor input, Tape* tape) const {
  MAGIC_SHAPE_CONTRACT("WeightedVertices::forward", input, shape::any("N"),
                       shape::eq(k_), shape::any("C"));
  check_batch("WeightedVertices::forward", input, 3);
  if (input.dim(1) != k_) {
    throw std::invalid_argument("WeightedVertices::forward: expected (N x " +
                                std::to_string(k_) + " x C), got " +
                                input.describe());
  }
  const std::size_t batch = input.dim(0);
  const std::size_t c = input.dim(2);
  Tensor out = Tensor::zeros({batch, c});
  for (std::size_t s = 0; s < batch; ++s) {
    const double* in = input.data() + s * k_ * c;
    double* po = out.data() + s * c;
    for (std::size_t i = 0; i < k_; ++i) {
      const double w = weight_.value[i];
      for (std::size_t j = 0; j < c; ++j) po[j] += w * in[i * c + j];
    }
  }
  if (tape != nullptr) {
    tape->push(std::move(input));
    tape->push(out);  // the pre-activations
  }
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = activate(activation_, out[i]);
  return out;
}

Tensor WeightedVertices::backward(Tensor grad_output, Tape& tape,
                                  Gradients grads) const {
  check_gradients("WeightedVertices::backward", grads, 1);
  const Tensor preact = tape.pop_tensor();
  const Tensor input = tape.pop_tensor();
  if (!grad_output.same_shape(preact)) {
    throw std::invalid_argument("WeightedVertices::backward: grad shape mismatch");
  }
  const std::size_t batch = preact.dim(0);
  const std::size_t c = preact.dim(1);
  Tensor& ds = grad_output;
  for (std::size_t j = 0; j < ds.size(); ++j) {
    ds[j] *= activate_grad(activation_, preact[j]);
  }
  Tensor grad_in = Tensor::zeros(input.shape());
  for (std::size_t s = 0; s < batch; ++s) {
    const double* x = input.data() + s * k_ * c;
    const double* d = ds.data() + s * c;
    double* gi = grad_in.data() + s * k_ * c;
    for (std::size_t i = 0; i < k_; ++i) {
      double wg = 0.0;
      const double w = weight_.value[i];
      for (std::size_t j = 0; j < c; ++j) {
        wg += d[j] * x[i * c + j];
        gi[i * c + j] = w * d[j];
      }
      grads[0][i] += wg;
    }
  }
  return grad_in;
}

std::vector<Parameter*> WeightedVertices::parameters() { return {&weight_}; }

}  // namespace magic::nn

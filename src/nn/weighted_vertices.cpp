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

Tensor WeightedVertices::forward(const Tensor& input) {
  MAGIC_SHAPE_CONTRACT("WeightedVertices::forward", input, shape::eq(k_),
                       shape::any("C"));
  if (input.rank() != 2 || input.dim(0) != k_) {
    throw std::invalid_argument("WeightedVertices::forward: expected (" +
                                std::to_string(k_) + " x C), got " + input.describe());
  }
  const std::size_t c = input.dim(1);
  Tensor preact = Tensor::zeros({c});
  for (std::size_t i = 0; i < k_; ++i) {
    const double w = weight_.value[i];
    for (std::size_t j = 0; j < c; ++j) {
      preact[j] += w * input[i * c + j];
    }
  }
  Tensor out = tensor::map(preact,
                           [this](double x) { return activate(activation_, x); });
  cache_valid_ = grad_enabled();
  if (cache_valid_) {
    cached_input_ = input;
    cached_preact_ = std::move(preact);
  }
  return out;
}

Tensor WeightedVertices::forward_batch(const Tensor& input) const {
  (void)batch_item_shape(input, "WeightedVertices::forward_batch");
  if (input.rank() != 3 || input.dim(1) != k_) {
    throw std::invalid_argument("WeightedVertices::forward_batch: expected (batch x " +
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
    for (std::size_t j = 0; j < c; ++j) po[j] = activate(activation_, po[j]);
  }
  return out;
}

Tensor WeightedVertices::backward(const Tensor& grad_output) {
  if (!cache_valid_) {
    throw std::logic_error(
        "WeightedVertices::backward: no cached forward (grad caching disabled)");
  }
  if (!grad_output.same_shape(cached_preact_)) {
    throw std::invalid_argument("WeightedVertices::backward: grad shape mismatch");
  }
  const std::size_t c = cached_preact_.dim(0);
  Tensor ds = grad_output;
  for (std::size_t j = 0; j < c; ++j) {
    ds[j] *= activate_grad(activation_, cached_preact_[j]);
  }
  Tensor grad_in = Tensor::zeros(cached_input_.shape());
  for (std::size_t i = 0; i < k_; ++i) {
    double wg = 0.0;
    const double w = weight_.value[i];
    for (std::size_t j = 0; j < c; ++j) {
      wg += ds[j] * cached_input_[i * c + j];
      grad_in[i * c + j] = w * ds[j];
    }
    weight_.grad[i] += wg;
  }
  return grad_in;
}

std::vector<Parameter*> WeightedVertices::parameters() { return {&weight_}; }

}  // namespace magic::nn

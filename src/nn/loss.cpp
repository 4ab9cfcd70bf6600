#include "nn/loss.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/shape_contract.hpp"
#include "tensor/simd/kernels.hpp"
#include "util/check.hpp"

namespace magic::nn {

Tensor LogSoftmax::forward(const Tensor& input) {
  MAGIC_SHAPE_CONTRACT("LogSoftmax::forward", input, shape::at_least("classes", 1));
  if (input.rank() != 1) {
    throw std::invalid_argument("LogSoftmax: rank-1 input required");
  }
  cache_valid_ = grad_enabled();
  Tensor out = input;
  tensor::simd::kernels().logsoftmax_fwd(out.data(), out.size());
  if (cache_valid_) cached_output_ = out;
  return out;
}

Tensor LogSoftmax::backward(const Tensor& grad_output) {
  if (!cache_valid_) {
    throw std::logic_error("LogSoftmax::backward: no cached forward (grad caching disabled)");
  }
  if (!grad_output.same_shape(cached_output_)) {
    throw std::invalid_argument("LogSoftmax::backward: shape mismatch");
  }
  // d/dx_j of log_softmax_i = delta_ij - softmax_j
  Tensor grad = grad_output;
  tensor::simd::kernels().logsoftmax_bwd(grad.data(), cached_output_.data(),
                                         grad.size());
  return grad;
}

Tensor LogSoftmax::forward_batch(const Tensor& input) const {
  return forward_batch_owned(Tensor(input));
}

Tensor LogSoftmax::forward_batch_owned(Tensor&& input) const {
  (void)batch_item_shape(input, "LogSoftmax::forward_batch");
  if (input.rank() != 2 || input.dim(1) == 0) {
    throw std::invalid_argument(
        "LogSoftmax::forward_batch: (batch x classes) input required");
  }
  const std::size_t rows = input.dim(0), classes = input.dim(1);
  const auto& kernels = tensor::simd::kernels();
  for (std::size_t r = 0; r < rows; ++r) {
    kernels.logsoftmax_fwd(input.data() + r * classes, classes);
  }
  return std::move(input);
}

double NllLoss::forward(const Tensor& log_probs, std::size_t target) {
  MAGIC_SHAPE_CONTRACT("NllLoss::forward", log_probs, shape::at_least("classes", 1));
  if (log_probs.rank() != 1 || target >= log_probs.dim(0)) {
    throw std::invalid_argument("NllLoss: bad target or input rank");
  }
  size_ = log_probs.dim(0);
  target_ = target;
  return -log_probs[target];
}

Tensor NllLoss::backward() const {
  MAGIC_CHECK(size_ > 0, "NllLoss::backward called before forward");
  Tensor grad = Tensor::zeros({size_});
  if (size_ == 0) return grad;  // unchecked-build fallback: avoid OOB write
  grad[target_] = -1.0;
  return grad;
}

Tensor exp_probs(const Tensor& log_probs) {
  Tensor out = log_probs;
  tensor::simd::kernels().exp_fwd(out.data(), out.size());
  return out;
}

}  // namespace magic::nn

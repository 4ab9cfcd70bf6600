#include "nn/max_pool1d.hpp"

#include <stdexcept>

#include "nn/shape_contract.hpp"

namespace magic::nn {

MaxPool1D::MaxPool1D(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride) {
  if (kernel == 0 || stride == 0) {
    throw std::invalid_argument("MaxPool1D: kernel and stride must be positive");
  }
}

Tensor MaxPool1D::forward(const Tensor& input) {
  MAGIC_SHAPE_CONTRACT("MaxPool1D::forward", input, shape::any("C"),
                       shape::at_least("L", kernel_));
  if (input.rank() != 2) throw std::invalid_argument("MaxPool1D: rank-2 input");
  const std::size_t C = input.dim(0);
  const std::size_t L = input.dim(1);
  if (L < kernel_) throw std::invalid_argument("MaxPool1D: input shorter than kernel");
  const std::size_t Lo = (L - kernel_) / stride_ + 1;
  input_shape_ = input.shape();
  argmax_.assign(C * Lo, 0);
  Tensor out({C, Lo});
  for (std::size_t c = 0; c < C; ++c) {
    for (std::size_t t = 0; t < Lo; ++t) {
      std::size_t best = c * L + t * stride_;
      for (std::size_t k = 1; k < kernel_; ++k) {
        const std::size_t idx = c * L + t * stride_ + k;
        if (input[idx] > input[best]) best = idx;
      }
      argmax_[c * Lo + t] = best;
      out[c * Lo + t] = input[best];
    }
  }
  return out;
}

Tensor MaxPool1D::forward_batch(const Tensor& input) const {
  (void)batch_item_shape(input, "MaxPool1D::forward_batch");
  if (input.rank() != 3) {
    throw std::invalid_argument("MaxPool1D::forward_batch: rank-3 input required, got " +
                                input.describe());
  }
  const std::size_t batch = input.dim(0);
  const std::size_t C = input.dim(1);
  const std::size_t L = input.dim(2);
  if (L < kernel_) {
    throw std::invalid_argument("MaxPool1D::forward_batch: input shorter than kernel");
  }
  const std::size_t Lo = (L - kernel_) / stride_ + 1;
  Tensor out({batch, C, Lo});
  for (std::size_t s = 0; s < batch; ++s) {
    const double* in = input.data() + s * C * L;
    double* po = out.data() + s * C * Lo;
    for (std::size_t c = 0; c < C; ++c) {
      for (std::size_t t = 0; t < Lo; ++t) {
        double best = in[c * L + t * stride_];
        for (std::size_t k = 1; k < kernel_; ++k) {
          const double v = in[c * L + t * stride_ + k];
          if (v > best) best = v;
        }
        po[c * Lo + t] = best;
      }
    }
  }
  return out;
}

Tensor MaxPool1D::backward(const Tensor& grad_output) {
  if (grad_output.size() != argmax_.size()) {
    throw std::invalid_argument("MaxPool1D::backward: grad shape mismatch");
  }
  Tensor grad_in = Tensor::zeros(input_shape_);
  for (std::size_t i = 0; i < argmax_.size(); ++i) {
    grad_in[argmax_[i]] += grad_output[i];
  }
  return grad_in;
}

}  // namespace magic::nn

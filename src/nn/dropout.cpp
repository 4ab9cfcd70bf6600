#include "nn/dropout.hpp"

#include <stdexcept>

#include "nn/shape_contract.hpp"

namespace magic::nn {

Dropout::Dropout(double rate, util::Rng& rng) : rate_(rate), rng_(rng.split()) {
  if (rate < 0.0 || rate >= 1.0) {
    throw std::invalid_argument("Dropout: rate must be in [0, 1)");
  }
}

Tensor Dropout::forward(const Tensor& input) {
  MAGIC_SHAPE_CONTRACT_ANY("Dropout::forward", input);
  if (!training_ || rate_ == 0.0) {
    mask_valid_ = false;
    return input;
  }
  const double keep = 1.0 - rate_;
  mask_ = Tensor::zeros(input.shape());
  Tensor out = input;
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (rng_.uniform() < keep) {
      mask_[i] = 1.0 / keep;
      out[i] *= mask_[i];
    } else {
      out[i] = 0.0;
    }
  }
  mask_valid_ = true;
  return out;
}

Tensor Dropout::forward_batch(const Tensor& input) const {
  (void)batch_item_shape(input, "Dropout::forward_batch");
  return input;  // inverted dropout is identity at inference time
}

Tensor Dropout::forward_batch_owned(Tensor&& input) const {
  (void)batch_item_shape(input, "Dropout::forward_batch");
  return std::move(input);
}

void Dropout::reseed_rng(std::uint64_t seed) { rng_ = util::Rng(seed); }

Tensor Dropout::backward(const Tensor& grad_output) {
  if (!mask_valid_) return grad_output;  // eval mode: identity
  if (!grad_output.same_shape(mask_)) {
    throw std::invalid_argument("Dropout::backward: shape mismatch");
  }
  return tensor::hadamard(grad_output, mask_);
}

}  // namespace magic::nn

#include "nn/linear.hpp"

#include "nn/init.hpp"
#include "nn/shape_contract.hpp"

namespace magic::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng,
               bool bias)
    : in_(in_features),
      out_(out_features),
      has_bias_(bias),
      weight_("linear.weight", xavier_uniform({in_features, out_features},
                                              in_features, out_features, rng)),
      bias_("linear.bias", Tensor::zeros({out_features})) {}

Tensor Linear::forward(const Tensor& input) {
  input_was_rank1_ = (input.rank() == 1);
  if (input_was_rank1_) {
    MAGIC_SHAPE_CONTRACT("Linear::forward", input, shape::eq(in_));
  } else {
    MAGIC_SHAPE_CONTRACT("Linear::forward", input, shape::any("rows"),
                         shape::eq(in_));
  }
  Tensor input2 = input_was_rank1_ ? input.reshape({1, input.dim(0)}) : input;
  if (input2.rank() != 2 || input2.dim(1) != in_) {
    // Unchecked-build fallback; in checked builds the contract above fires
    // first with the richer message.
    throw std::invalid_argument("Linear::forward: expected (*, " +
                                std::to_string(in_) + "), got " + input.describe());
  }
  Tensor out = affine(input2);
  cache_valid_ = grad_enabled();
  if (cache_valid_) cached_input_ = std::move(input2);
  return input_was_rank1_ ? out.reshape({out_}) : out;
}

Tensor Linear::affine(const Tensor& input) const {
  Tensor out = tensor::matmul(input, weight_.value);
  if (has_bias_) {
    const std::size_t rows = out.dim(0);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < out_; ++j) out[i * out_ + j] += bias_.value[j];
    }
  }
  return out;
}

Tensor Linear::forward_batch(const Tensor& input) const {
  (void)batch_item_shape(input, "Linear::forward_batch");
  if (input.rank() != 2 || input.dim(1) != in_) {
    throw std::invalid_argument("Linear::forward_batch: (batch x " +
                                std::to_string(in_) + ") input required, got " +
                                input.describe());
  }
  return affine(input);  // one fused (batch x in) GEMM
}

Tensor Linear::backward(const Tensor& grad_output) {
  if (!cache_valid_) {
    throw std::logic_error("Linear::backward: no cached forward (grad caching disabled)");
  }
  Tensor grad2 = grad_output.rank() == 1
                     ? grad_output.reshape({1, grad_output.dim(0)})
                     : grad_output;
  if (grad2.rank() != 2 || grad2.dim(1) != out_ ||
      grad2.dim(0) != cached_input_.dim(0)) {
    throw std::invalid_argument("Linear::backward: grad shape mismatch");
  }
  // dW = X^T dY ; db = column sums of dY ; dX = dY W^T.
  // Transpose-free kernels; dw_scratch_ is reused across steps.
  tensor::matmul_tn_into(dw_scratch_, cached_input_, grad2);
  weight_.grad += dw_scratch_;
  if (has_bias_) {
    const std::size_t rows = grad2.dim(0);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < out_; ++j) bias_.grad[j] += grad2[i * out_ + j];
    }
  }
  Tensor grad_in = tensor::matmul_nt(grad2, weight_.value);
  return input_was_rank1_ ? grad_in.reshape({in_}) : grad_in;
}

std::vector<Parameter*> Linear::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace magic::nn

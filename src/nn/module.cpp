#include "nn/module.hpp"

#include <stdexcept>
#include <string>

namespace magic::nn {

Shape batch_item_shape(const Tensor& input, const char* who) {
  if (input.rank() < 2) {
    throw std::invalid_argument(std::string(who) +
                                ": batched input needs a leading batch "
                                "dimension, got " + input.describe());
  }
  if (input.dim(0) == 0) {
    throw std::invalid_argument(std::string(who) + ": empty batch");
  }
  return Shape(input.shape().begin() + 1, input.shape().end());
}

Tensor Module::forward_batch(const Tensor& input) const {
  static_cast<void>(input);
  throw std::logic_error(name() + "::forward_batch: no batched forward");
}

}  // namespace magic::nn

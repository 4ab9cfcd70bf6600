#include "nn/dropout.hpp"

#include <stdexcept>

#include "nn/shape_contract.hpp"

namespace magic::nn {

Dropout::Dropout(double rate, util::Rng& rng) : rate_(rate) {
  if (rate < 0.0 || rate >= 1.0) {
    throw std::invalid_argument("Dropout: rate must be in [0, 1)");
  }
  // The masks come from the tape's seed, not from `rng`, but this draw
  // stays: every layer built after the dropout (DgcnnModel's final Linear)
  // takes its initial weights from the stream after it, so dropping it
  // would move those weights and every trained model and checkpoint test
  // with them.
  static_cast<void>(rng.split());
}

Tensor Dropout::forward(Tensor input, Tape* tape) const {
  MAGIC_SHAPE_CONTRACT_ANY("Dropout::forward", input);
  if (tape == nullptr) return input;
  if (!tape->seed() || rate_ == 0.0) {
    tape->push(Tensor());  // the identity
    return input;
  }
  util::Rng rng(*tape->seed());
  const double keep = 1.0 - rate_;
  Tensor mask = Tensor::zeros(input.shape());
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (rng.uniform() < keep) {
      mask[i] = 1.0 / keep;
      input[i] *= mask[i];
    } else {
      input[i] = 0.0;
    }
  }
  tape->push(std::move(mask));
  return input;
}

Tensor Dropout::backward(Tensor grad_output, Tape& tape, Gradients grads) const {
  check_gradients("Dropout::backward", grads, 0);
  const Tensor mask = tape.pop_tensor();
  if (mask.rank() == 0) return grad_output;
  if (!grad_output.same_shape(mask)) {
    throw std::invalid_argument("Dropout::backward: shape mismatch");
  }
  grad_output.mul_(mask);
  return grad_output;
}

}  // namespace magic::nn

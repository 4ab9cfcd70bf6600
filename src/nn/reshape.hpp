#pragma once
// Shape-adapter modules used to glue convolutional stages to dense heads.

#include "nn/module.hpp"
#include "nn/shape_contract.hpp"

namespace magic::nn {

/// Flattens each sample to rank-1: (N x ...) -> (N x prod(...)). Records
/// the input shape; the storage moves through untouched.
class Flatten : public Module {
 public:
  Tensor forward(Tensor input, Tape* tape) const override {
    MAGIC_SHAPE_CONTRACT_ANY("Flatten::forward", input);
    if (input.rank() == 0 || input.dim(0) == 0) {
      throw std::invalid_argument("Flatten::forward: empty batch " + input.describe());
    }
    if (tape != nullptr) tape->push(input.shape());
    const std::size_t batch = input.dim(0);
    const std::size_t width = input.size() / batch;
    return std::move(input).reshape({batch, width});
  }
  Tensor backward(Tensor grad_output, Tape& tape, Gradients grads) const override {
    check_gradients("Flatten::backward", grads, 0);
    return std::move(grad_output).reshape(tape.pop_indices());
  }
  std::string name() const override { return "Flatten"; }
};

/// Reshapes each sample to a fixed target shape (total size must match):
/// (N x ...) -> (N x target). Records the input shape.
class FixedReshape : public Module {
 public:
  explicit FixedReshape(Shape target) : target_(std::move(target)) {}

  Tensor forward(Tensor input, Tape* tape) const override {
    MAGIC_SHAPE_CONTRACT_SIZE("FixedReshape::forward", input,
                              (input.rank() == 0 ? 0 : input.dim(0)) * target_size());
    if (input.rank() == 0 || input.dim(0) == 0 ||
        input.size() != input.dim(0) * target_size()) {
      throw std::invalid_argument("FixedReshape::forward: per-sample size mismatch for " +
                                  input.describe());
    }
    if (tape != nullptr) tape->push(input.shape());
    Shape batched{input.dim(0)};
    batched.insert(batched.end(), target_.begin(), target_.end());
    return std::move(input).reshape(std::move(batched));
  }
  Tensor backward(Tensor grad_output, Tape& tape, Gradients grads) const override {
    check_gradients("FixedReshape::backward", grads, 0);
    return std::move(grad_output).reshape(tape.pop_indices());
  }
  std::string name() const override { return "FixedReshape"; }

 private:
  std::size_t target_size() const {
    std::size_t total = 1;
    for (std::size_t d : target_) total *= d;
    return total;
  }

  const Shape target_;
};

}  // namespace magic::nn

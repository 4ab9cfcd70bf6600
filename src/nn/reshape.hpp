#pragma once
// Shape-adapter modules used to glue convolutional stages to dense heads.

#include "nn/module.hpp"
#include "nn/shape_contract.hpp"

namespace magic::nn {

/// Flattens any input to rank-1; backward restores the original shape.
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& input) override {
    MAGIC_SHAPE_CONTRACT_ANY("Flatten::forward", input);
    input_shape_ = input.shape();
    return input.reshape({input.size()});
  }
  Tensor backward(const Tensor& grad_output) override {
    return grad_output.reshape(input_shape_);
  }
  /// Flattens everything after the leading batch dimension.
  Tensor forward_batch(const Tensor& input) const override {
    return forward_batch_owned(Tensor(input));
  }
  /// Owned input: pure metadata change, storage moves through untouched.
  Tensor forward_batch_owned(Tensor&& input) const override {
    (void)batch_item_shape(input, "Flatten::forward_batch");
    const std::size_t batch = input.dim(0);
    return std::move(input).reshape({batch, input.size() / batch});
  }
  std::string name() const override { return "Flatten"; }

 private:
  Shape input_shape_;
};

/// Reshapes to a fixed target shape (total size must match).
class FixedReshape : public Module {
 public:
  explicit FixedReshape(Shape target) : target_(std::move(target)) {}

  Tensor forward(const Tensor& input) override {
    MAGIC_SHAPE_CONTRACT_SIZE("FixedReshape::forward", input, target_size());
    input_shape_ = input.shape();
    return input.reshape(target_);
  }
  Tensor backward(const Tensor& grad_output) override {
    return grad_output.reshape(input_shape_);
  }
  /// Reshapes each sample to the target shape under a leading batch dim.
  Tensor forward_batch(const Tensor& input) const override {
    return forward_batch_owned(Tensor(input));
  }
  /// Owned input: pure metadata change, storage moves through untouched.
  Tensor forward_batch_owned(Tensor&& input) const override {
    (void)batch_item_shape(input, "FixedReshape::forward_batch");
    const std::size_t batch = input.dim(0);
    if (input.size() != batch * target_size()) {
      throw std::invalid_argument("FixedReshape::forward_batch: per-sample "
                                  "size mismatch for " + input.describe());
    }
    Shape batched{batch};
    for (std::size_t d : target_) batched.push_back(d);
    return std::move(input).reshape(std::move(batched));
  }
  std::string name() const override { return "FixedReshape"; }

 private:
  std::size_t target_size() const {
    std::size_t total = 1;
    for (std::size_t d : target_) total *= d;
    return total;
  }

  Shape target_;
  Shape input_shape_;
};

}  // namespace magic::nn

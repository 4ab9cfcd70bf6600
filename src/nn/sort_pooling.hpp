#pragma once
// SortPooling layer (§III-A3 of the paper; Zhang et al., AAAI'18).
//
// Sorts the vertex feature descriptors Z^{1:h} by the last channel in
// decreasing order, breaking ties with progressively earlier channels
// (the "most refined WL colors" live in the deepest layer's output), then
// truncates or zero-pads to exactly k rows so every graph yields a
// (k x total_channels) tensor.

#include <vector>

#include "nn/module.hpp"

namespace magic::nn {

/// SortPooling with a fixed k. Input (n x C); output (k x C).
class SortPooling : public Module {
 public:
  explicit SortPooling(std::size_t k);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "SortPooling"; }

  std::size_t k() const noexcept { return k_; }

  /// Packed-batch pooling: `packed` is a (total_vertices x C) concatenation
  /// of N graphs' vertex descriptors and `offsets` the (N+1) segment bounds.
  /// Each segment is sorted with the same comparator as forward() and
  /// truncated/zero-padded to k rows, yielding (N x k x C). Inference-only
  /// and const: leaves the forward()/backward() caches untouched.
  Tensor forward_packed(const Tensor& packed,
                        const std::vector<std::size_t>& offsets) const;

  /// Row order chosen by the last forward: position p in the output came
  /// from input row order()[p] (only the first min(n, k) entries are used).
  const std::vector<std::size_t>& order() const noexcept { return order_; }

 private:
  std::size_t k_;
  std::vector<std::size_t> order_;
  Shape input_shape_;
};

}  // namespace magic::nn

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

/// SortPooling with a fixed k over a packed batch: the input is the
/// (total_vertices x C) concatenation of N graphs' vertex descriptors, the
/// graphs' rows delimited by the N + 1 segment `offsets`; the output is
/// (N x k x C). No parameters.
class SortPooling {
 public:
  explicit SortPooling(std::size_t k);

  /// Sorts each segment and truncates or zero-pads it to k rows. Records
  /// the offsets and the kept rows' order.
  Tensor forward(const Tensor& packed, const std::vector<std::size_t>& offsets,
                 Tape* tape) const;
  /// (N x k x C) -> (total_vertices x C): each kept row's gradient goes back
  /// to the row it came from, dropped rows get zero.
  Tensor backward(Tensor grad_output, Tape& tape) const;

  std::size_t k() const noexcept { return k_; }

 private:
  std::size_t k_;
};

}  // namespace magic::nn

#include "nn/sort_pooling.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "nn/shape_contract.hpp"

namespace magic::nn {

SortPooling::SortPooling(std::size_t k) : k_(k) {
  if (k == 0) throw std::invalid_argument("SortPooling: k must be positive");
}

Tensor SortPooling::forward(const Tensor& input) {
  MAGIC_SHAPE_CONTRACT("SortPooling::forward", input, shape::any("n"),
                       shape::any("C"));
  if (input.rank() != 2) throw std::invalid_argument("SortPooling: rank-2 input");
  const std::size_t n = input.dim(0), c = input.dim(1);
  input_shape_ = input.shape();
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0u);
  // Decreasing by the last channel; ties broken by the previous channel,
  // continuing leftward until all ties are broken (§III-A3). A final
  // comparison on the original index keeps the sort total and deterministic.
  std::stable_sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    for (std::size_t col = c; col-- > 0;) {
      const double va = input[a * c + col];
      const double vb = input[b * c + col];
      if (va != vb) return va > vb;
    }
    return a < b;
  });
  Tensor out({k_, c});
  const std::size_t keep = std::min(n, k_);
  for (std::size_t p = 0; p < keep; ++p) {
    const std::size_t src = order_[p];
    for (std::size_t j = 0; j < c; ++j) out[p * c + j] = input[src * c + j];
  }
  // Rows beyond n stay zero (padding for small graphs).
  return out;
}

Tensor SortPooling::forward_packed(const Tensor& packed,
                                   const std::vector<std::size_t>& offsets) const {
  if (packed.rank() != 2) {
    throw std::invalid_argument("SortPooling::forward_packed: rank-2 input");
  }
  if (offsets.size() < 2 || offsets.front() != 0 ||
      offsets.back() != packed.dim(0)) {
    throw std::invalid_argument(
        "SortPooling::forward_packed: offsets must run 0..total_vertices");
  }
  const std::size_t batch = offsets.size() - 1;
  const std::size_t c = packed.dim(1);
  Tensor out = Tensor::zeros({batch, k_, c});
  std::vector<std::size_t> local;
  for (std::size_t g = 0; g < batch; ++g) {
    const std::size_t base = offsets[g];
    if (offsets[g + 1] < base) {
      throw std::invalid_argument("SortPooling::forward_packed: offsets must be non-decreasing");
    }
    const std::size_t n = offsets[g + 1] - base;
    local.resize(n);
    std::iota(local.begin(), local.end(), 0u);
    const std::size_t keep = std::min(n, k_);
    // Same comparator as forward(), applied within the segment. The index
    // fallback makes it a strict total order, so sorting just the leading
    // `keep` positions (all that pooling reads) reproduces the fully
    // stable-sorted prefix exactly.
    std::partial_sort(local.begin(),
                      local.begin() + static_cast<std::ptrdiff_t>(keep),
                      local.end(), [&](std::size_t a, std::size_t b) {
      for (std::size_t col = c; col-- > 0;) {
        const double va = packed[(base + a) * c + col];
        const double vb = packed[(base + b) * c + col];
        if (va != vb) return va > vb;
      }
      return a < b;
    });
    double* gout = out.data() + g * k_ * c;
    for (std::size_t p = 0; p < keep; ++p) {
      const double* src = packed.data() + (base + local[p]) * c;
      for (std::size_t j = 0; j < c; ++j) gout[p * c + j] = src[j];
    }
    // Rows beyond n stay zero (padding for small graphs).
  }
  return out;
}

Tensor SortPooling::backward(const Tensor& grad_output) {
  const std::size_t n = input_shape_.at(0), c = input_shape_.at(1);
  if (grad_output.rank() != 2 || grad_output.dim(0) != k_ || grad_output.dim(1) != c) {
    throw std::invalid_argument("SortPooling::backward: grad shape mismatch");
  }
  Tensor grad_in = Tensor::zeros(input_shape_);
  const std::size_t keep = std::min(n, k_);
  for (std::size_t p = 0; p < keep; ++p) {
    const std::size_t src = order_[p];
    for (std::size_t j = 0; j < c; ++j) {
      grad_in[src * c + j] = grad_output[p * c + j];
    }
  }
  return grad_in;
}

}  // namespace magic::nn

#include "nn/sort_pooling.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "nn/shape_contract.hpp"

namespace magic::nn {

SortPooling::SortPooling(std::size_t k) : k_(k) {
  if (k == 0) throw std::invalid_argument("SortPooling: k must be positive");
}

Tensor SortPooling::forward(const Tensor& packed,
                            const std::vector<std::size_t>& offsets,
                            Tape* tape) const {
  MAGIC_SHAPE_CONTRACT("SortPooling::forward", packed, shape::any("n"),
                       shape::any("C"));
  if (packed.rank() != 2) throw std::invalid_argument("SortPooling: rank-2 input");
  if (offsets.size() < 2 || offsets.front() != 0 ||
      offsets.back() != packed.dim(0)) {
    throw std::invalid_argument(
        "SortPooling::forward: offsets must run 0..total_vertices");
  }
  const std::size_t batch = offsets.size() - 1;
  const std::size_t c = packed.dim(1);
  Tensor out = Tensor::zeros({batch, k_, c});
  std::vector<std::size_t> kept;  // per graph, the source rows of its output
  std::vector<std::size_t> local;
  for (std::size_t g = 0; g < batch; ++g) {
    const std::size_t base = offsets[g];
    if (offsets[g + 1] < base) {
      throw std::invalid_argument("SortPooling::forward: offsets must be non-decreasing");
    }
    const std::size_t n = offsets[g + 1] - base;
    local.resize(n);
    std::iota(local.begin(), local.end(), 0u);
    const std::size_t keep = std::min(n, k_);
    // Decreasing by the last channel; ties broken by the previous channel,
    // continuing leftward until all ties are broken (§III-A3). The final
    // comparison on the row index makes the order strict and total, so
    // sorting only the `keep` positions pooling reads gives the same prefix
    // a full stable sort would.
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
      std::copy(src, src + c, gout + p * c);
    }
    // Rows beyond n stay zero (padding for small graphs).
    if (tape != nullptr) {
      kept.insert(kept.end(), local.begin(),
                  local.begin() + static_cast<std::ptrdiff_t>(keep));
    }
  }
  if (tape != nullptr) {
    tape->push(offsets);
    tape->push(std::move(kept));
  }
  return out;
}

Tensor SortPooling::backward(Tensor grad_output, Tape& tape) const {
  const std::vector<std::size_t> kept = tape.pop_indices();
  const std::vector<std::size_t> offsets = tape.pop_indices();
  const std::size_t batch = offsets.size() - 1;
  if (grad_output.rank() != 3 || grad_output.dim(0) != batch ||
      grad_output.dim(1) != k_) {
    throw std::invalid_argument("SortPooling::backward: grad shape mismatch");
  }
  const std::size_t c = grad_output.dim(2);
  Tensor grad_in = Tensor::zeros({offsets.back(), c});
  std::size_t next = 0;
  for (std::size_t g = 0; g < batch; ++g) {
    const std::size_t keep = std::min(offsets[g + 1] - offsets[g], k_);
    const double* gout = grad_output.data() + g * k_ * c;
    for (std::size_t p = 0; p < keep; ++p) {
      const std::size_t src = offsets[g] + kept[next++];
      std::copy(gout + p * c, gout + (p + 1) * c, grad_in.data() + src * c);
    }
  }
  return grad_in;
}

}  // namespace magic::nn

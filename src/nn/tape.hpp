#pragma once
// nn::Tape: the caller-owned record of one forward pass.
//
// Every module is a const function of its weights. A forward that is handed
// a tape appends what its backward needs (inputs, pre-activations, argmax
// positions, dropout masks, the propagation operator); the matching
// backward pops those records newest first, which is exactly the reverse
// order backpropagation visits the modules in. A forward without a tape is
// inference and records nothing. Since every per-call value lives on the
// caller's tape, any number of threads may run forwards and backwards
// through one set of weights at once, each with its own tape.
//
// The tape also carries the dropout stream. A seeded tape means training
// semantics: Dropout draws its mask from the seed (Sequential derives one
// seed per child). An unseeded tape means eval semantics: Dropout is the
// identity, so explain() backpropagates through exactly the function
// classify() evaluates.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "tensor/sparse.hpp"
#include "tensor/tensor.hpp"

namespace magic::nn {

class Tape {
 public:
  /// Eval semantics: Dropout records the identity.
  Tape() = default;
  /// Training semantics: Dropout masks are drawn from `seed`.
  explicit Tape(std::uint64_t seed) : seed_(seed) {}

  /// The dropout stream seed; empty on an eval-semantics tape.
  const std::optional<std::uint64_t>& seed() const noexcept { return seed_; }
  /// Replaces the stream seed (Sequential hands each child its own).
  void set_seed(std::uint64_t seed) noexcept { seed_ = seed; }

  void push(tensor::Tensor record) { tensors_.push_back(std::move(record)); }
  void push(std::vector<std::size_t> record) { indices_.push_back(std::move(record)); }
  void push(tensor::SparseMatrix record) { operators_.push_back(std::move(record)); }

  /// The newest record of each kind, removed from the tape. Each throws
  /// std::logic_error when no such record is left: a backward whose forward
  /// ran without this tape.
  tensor::Tensor pop_tensor();
  std::vector<std::size_t> pop_indices();
  tensor::SparseMatrix pop_operator();

  /// True when every record has been consumed.
  bool empty() const noexcept {
    return tensors_.empty() && indices_.empty() && operators_.empty();
  }

 private:
  std::optional<std::uint64_t> seed_;
  std::vector<tensor::Tensor> tensors_;
  std::vector<std::vector<std::size_t>> indices_;
  std::vector<tensor::SparseMatrix> operators_;
};

}  // namespace magic::nn

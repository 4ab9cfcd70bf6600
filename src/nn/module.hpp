#pragma once
// Neural-network module interface.
//
// magic::nn uses explicit per-module forward/backward over a caller-owned
// nn::Tape (not tape autograd): a module holds only its parameters and its
// construction-time configuration, and has exactly two calls, both const.
// forward() maps a batch whose leading dimension N indexes independent
// samples; given a tape it appends what its backward needs. backward() pops
// those records, adds the parameter gradients into a caller-owned
// Gradients buffer and returns the gradient w.r.t. the forward's input.
// Gradients accumulate in that buffer across calls until the caller hands
// it to the optimizer. Every module's backward is validated against
// central-difference numerical gradients in tests/nn/.

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nn/tape.hpp"
#include "tensor/tensor.hpp"

namespace magic::nn {

using tensor::Shape;
using tensor::Tensor;

/// A learnable tensor. Its gradient lives in a caller-owned Gradients
/// buffer, never on the parameter, so the weights stay read-only while any
/// number of backward passes run on them.
struct Parameter {
  std::string name;
  Tensor value;

  Parameter(std::string n, Tensor v) : name(std::move(n)), value(std::move(v)) {}
};

/// Parameter gradients of backward passes: one tensor per parameters()
/// entry, in that order and shaped like it. backward() adds into it.
using Gradients = std::span<Tensor>;

/// Base class for layers with a single dense input and output.
///
/// A module mapping one sample of shape S to shape T maps (N x S) to
/// (N x T). The calls take their tensor by value so a caller that no longer
/// needs it can move it in and the module can reuse its storage (in-place
/// activations, reshapes, records moved onto the tape).
class Module {
 public:
  virtual ~Module() = default;

  /// Opens with a shape contract. With a tape, records what backward needs;
  /// without one, it is pure inference.
  virtual Tensor forward(Tensor input, Tape* tape) const = 0;

  /// Pops this module's records from `tape`, adds d(loss)/d(parameters)
  /// into `grads` and returns d(loss)/d(input). `grad_output` is shaped
  /// like the matching forward's output.
  virtual Tensor backward(Tensor grad_output, Tape& tape, Gradients grads) const = 0;

  /// Learnable parameters (empty by default).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Short layer name for diagnostics.
  virtual std::string name() const = 0;
};

/// A zeroed gradient buffer for `params` (Parameter* or const Parameter*).
template <typename Params>
std::vector<Tensor> zero_gradients(const Params& params) {
  std::vector<Tensor> grads;
  grads.reserve(params.size());
  for (const Parameter* p : params) grads.push_back(Tensor::zeros(p->value.shape()));
  return grads;
}

/// Throws std::invalid_argument unless `grads` holds `count` tensors.
void check_gradients(const char* who, Gradients grads, std::size_t count);

/// Throws std::invalid_argument unless `t` has rank `rank` and a non-empty
/// leading batch dimension. The unchecked-build backstop of the shape
/// contracts: kernels index by these extents.
void check_batch(const char* who, const Tensor& t, std::size_t rank);

}  // namespace magic::nn

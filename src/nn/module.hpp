#pragma once
// Neural-network module interface.
//
// magic::nn uses explicit per-module forward/backward (not tape autograd):
// each module caches what it needs from its last forward() and its
// backward() returns the gradient w.r.t. that input while accumulating
// parameter gradients into Parameter::grad. Batches are processed one
// sample at a time (CFGs have varying sizes), so gradients accumulate
// across calls until the optimizer consumes and zeroes them. Every
// module's backward is validated against central-difference numerical
// gradients in tests/nn/.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace magic::nn {

using tensor::Shape;
using tensor::Tensor;

/// A learnable tensor with its accumulated gradient.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(Tensor::zeros(value.shape())) {}

  void zero_grad() { grad.fill(0.0); }
};

/// Base class for layers with a single dense input and output.
///
/// Contract: backward(grad_out) must be called after forward(input) with
/// grad_out shaped like that forward's output; it returns d(loss)/d(input)
/// and *adds* parameter gradients into Parameter::grad.
class Module {
 public:
  virtual ~Module() = default;

  virtual Tensor forward(const Tensor& input) = 0;
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Inference-only batched forward: the leading dimension of `input`
  /// indexes independent samples and the remaining dimensions are exactly
  /// one forward() input, so a module mapping shape S -> T maps
  /// (N x S) -> (N x T). Const and modeless: it always has eval semantics
  /// (dropout is the identity, nothing is cached), whatever set_training /
  /// set_grad_enabled say, so any number of threads may run it on one
  /// instance while no thread mutates the parameters. There is no
  /// backward_batch. Overrides run the whole batch as one fused op (Linear
  /// becomes a single (N x in) GEMM) and must match forward() per sample to
  /// within floating-point associativity of the shared kernels. The default
  /// throws std::logic_error: only the modules of DgcnnModel's heads batch.
  virtual Tensor forward_batch(const Tensor& input) const;

  /// forward_batch for a batch tensor the caller no longer needs: modules
  /// whose batched op is a pure reshape or elementwise map override this to
  /// reuse `input`'s storage (move it, or mutate in place) instead of
  /// allocating a fresh output. Results are bit-identical to
  /// forward_batch(input); the default simply delegates to it. Sequential
  /// feeds its owned intermediates through this overload, which is where
  /// fused inference saves most of its memory traffic.
  virtual Tensor forward_batch_owned(Tensor&& input) const {
    return forward_batch(input);
  }

  /// Learnable parameters (empty by default).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Toggles training-only behaviour (e.g. dropout).
  virtual void set_training(bool training) { training_ = training; }
  bool training() const noexcept { return training_; }

  /// Toggles caching of the activations backward() needs. When disabled,
  /// forward() skips the input/activation copies and a later backward()
  /// throws std::logic_error. DgcnnModel ties this to its training mode;
  /// explain() re-enables it around an eval-mode backward. forward_batch
  /// never caches, whatever this says.
  virtual void set_grad_enabled(bool enabled) { grad_enabled_ = enabled; }
  bool grad_enabled() const noexcept { return grad_enabled_; }

  /// Re-seeds any owned RNG stream (dropout masks). The deterministic
  /// parallel trainer derives one seed per (epoch, sample position) so that
  /// stochastic masks are a function of the sample, not of which worker
  /// thread happened to process it. Default: no owned randomness, no-op.
  virtual void reseed_rng(std::uint64_t seed) { static_cast<void>(seed); }

  /// Short layer name for diagnostics.
  virtual std::string name() const = 0;

  void zero_grad() {
    for (Parameter* p : parameters()) p->zero_grad();
  }

 protected:
  bool training_ = true;
  bool grad_enabled_ = true;
};

/// Shape of one sample within a batched tensor (all dims after the first).
/// Throws std::invalid_argument when `input` has no non-empty leading
/// batch dimension.
Shape batch_item_shape(const Tensor& input, const char* who);

}  // namespace magic::nn

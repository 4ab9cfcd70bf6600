#pragma once
// Inverted dropout. The paper tunes "Dropout Rate" in {0.1, 0.5} (Table II).

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace magic::nn {

/// Inverted dropout, elementwise over any shape. On a seeded tape each
/// element is zeroed with probability `rate` and survivors are scaled by
/// 1/(1-rate), the mask drawn from the tape's seed; without a tape or on an
/// unseeded one it is the identity.
class Dropout : public Module {
 public:
  Dropout(double rate, util::Rng& rng);

  /// Records the mask (a rank-0 tensor when the forward was the identity).
  Tensor forward(Tensor input, Tape* tape) const override;
  Tensor backward(Tensor grad_output, Tape& tape, Gradients grads) const override;
  std::string name() const override { return "Dropout"; }

  double rate() const noexcept { return rate_; }

 private:
  double rate_;
};

}  // namespace magic::nn

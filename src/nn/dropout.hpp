#pragma once
// Inverted dropout. The paper tunes "Dropout Rate" in {0.1, 0.5} (Table II).

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace magic::nn {

/// Inverted dropout: during training each element is zeroed with probability
/// `rate` and survivors are scaled by 1/(1-rate); evaluation is identity.
class Dropout : public Module {
 public:
  /// Derives an independent owned stream from `rng` (the module may outlive
  /// the constructor argument).
  Dropout(double rate, util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  /// Batched inference is always eval mode: the identity, no mask drawn.
  Tensor forward_batch(const Tensor& input) const override;
  /// Owned input: the identity passes the storage straight through.
  Tensor forward_batch_owned(Tensor&& input) const override;
  /// Replaces the owned mask stream; the parallel trainer reseeds per
  /// (epoch, sample) so masks are independent of worker assignment.
  void reseed_rng(std::uint64_t seed) override;
  std::string name() const override { return "Dropout"; }

  double rate() const noexcept { return rate_; }

 private:
  double rate_;
  util::Rng rng_;
  Tensor mask_;  // scale factors applied in the last training forward
  bool mask_valid_ = false;
};

}  // namespace magic::nn

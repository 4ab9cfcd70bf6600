#pragma once
// LogSoftmax and negative log-likelihood loss (Eq. 5 of the paper).
//
// The model outputs log-probabilities over malware families; training
// minimizes the mean negative logarithmic loss, exactly the criterion the
// paper reports ("mean negative logarithmic loss", §IV-B and Table IV).

#include "nn/module.hpp"

namespace magic::nn {

/// Numerically stable log-softmax over the last axis of a rank-1 tensor.
class LogSoftmax : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  /// Row-wise log-softmax over a (batch x classes) tensor; each row matches
  /// the rank-1 forward exactly (same max/exp-sum evaluation order).
  Tensor forward_batch(const Tensor& input) const override;
  /// Owned input: normalizes each row in place (same evaluation order).
  Tensor forward_batch_owned(Tensor&& input) const override;
  std::string name() const override { return "LogSoftmax"; }

 private:
  Tensor cached_output_;  // log-probabilities
  bool cache_valid_ = false;
};

/// NLL of a single observation given log-probabilities.
///
/// forward(log_probs, target) returns -log p_target; backward() returns the
/// gradient w.r.t. log_probs. Combined with LogSoftmax this is the standard
/// cross-entropy whose gradient w.r.t. logits is softmax(x) - onehot(y).
class NllLoss {
 public:
  double forward(const Tensor& log_probs, std::size_t target);
  Tensor backward() const;

 private:
  std::size_t size_ = 0;
  std::size_t target_ = 0;
};

/// Softmax probabilities from log-probabilities.
Tensor exp_probs(const Tensor& log_probs);

}  // namespace magic::nn

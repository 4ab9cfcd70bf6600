#pragma once
// LogSoftmax and negative log-likelihood loss (Eq. 5 of the paper).
//
// The model outputs log-probabilities over malware families; training
// minimizes the mean negative logarithmic loss, exactly the criterion the
// paper reports ("mean negative logarithmic loss", §IV-B and Table IV).

#include "nn/module.hpp"

namespace magic::nn {

/// Numerically stable log-softmax over each row of a (N x classes) batch.
class LogSoftmax : public Module {
 public:
  /// Records the output (the log-probabilities).
  Tensor forward(Tensor input, Tape* tape) const override;
  Tensor backward(Tensor grad_output, Tape& tape, Gradients grads) const override;
  std::string name() const override { return "LogSoftmax"; }
};

/// NLL of a single observation given its rank-1 log-probabilities.
///
/// forward(log_probs, target) returns -log p_target; backward(log_probs,
/// target) the gradient w.r.t. log_probs. Combined with LogSoftmax this is
/// the standard cross-entropy whose gradient w.r.t. logits is
/// softmax(x) - onehot(y).
class NllLoss {
 public:
  double forward(const Tensor& log_probs, std::size_t target) const;
  Tensor backward(const Tensor& log_probs, std::size_t target) const;
};

/// Softmax probabilities from log-probabilities.
Tensor exp_probs(const Tensor& log_probs);

}  // namespace magic::nn

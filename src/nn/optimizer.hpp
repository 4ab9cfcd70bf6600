#pragma once
// Adam (Kingma & Ba [33]) plus the reduce-on-plateau learning-rate policy
// the paper uses in §V-B ("once the validation loss increases for two
// continuous epochs, we decrease the learning rate by a factor of ten").

#include <span>
#include <vector>

#include "nn/module.hpp"

namespace magic::nn {

/// Adam with bias correction over a fixed parameter list. L2
/// regularization ("Weight L2 Regularization Factor" in Table II) is
/// applied as gradient augmentation: g += weight_decay * value.
class Adam {
 public:
  Adam(std::vector<Parameter*> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8, double weight_decay = 0.0);

  /// One update of every parameter from `grads`: one tensor per
  /// parameter, in the constructor's order and shaped like it.
  void step(std::span<const Tensor> grads);

  double lr() const noexcept { return lr_; }
  void set_lr(double lr) noexcept { lr_ = lr; }

 private:
  std::vector<Parameter*> params_;
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  double weight_decay_;
  std::size_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

/// Learning-rate policy: after `patience` consecutive epochs of increasing
/// validation loss, multiplies the lr by `factor` (paper: patience=2,
/// factor=0.1).
class ReduceLrOnPlateau {
 public:
  ReduceLrOnPlateau(Adam& opt, std::size_t patience = 2, double factor = 0.1,
                    double min_lr = 1e-7);

  /// Reports one epoch's validation loss; returns true if the lr was reduced.
  bool observe(double validation_loss);

 private:
  Adam* opt_;
  std::size_t patience_;
  double factor_;
  double min_lr_;
  double last_loss_ = 0.0;
  bool has_last_ = false;
  std::size_t consecutive_increases_ = 0;
};

}  // namespace magic::nn

#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

namespace magic::nn {

Adam::Adam(std::vector<Parameter*> params, double lr, double beta1, double beta2,
           double eps, double weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.push_back(Tensor::zeros(p->value.shape()));
    v_.push_back(Tensor::zeros(p->value.shape()));
  }
}

void Adam::step(std::span<const Tensor> grads) {
  if (grads.size() != params_.size()) {
    throw std::invalid_argument("Adam::step: expected one gradient per parameter");
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    const Tensor& grad = grads[i];
    if (!grad.same_shape(p.value)) {
      throw std::invalid_argument("Adam::step: gradient shape differs from " + p.name);
    }
    for (std::size_t j = 0; j < p.value.size(); ++j) {
      const double g = grad[j] + weight_decay_ * p.value[j];
      m_[i][j] = beta1_ * m_[i][j] + (1.0 - beta1_) * g;
      v_[i][j] = beta2_ * v_[i][j] + (1.0 - beta2_) * g * g;
      const double mhat = m_[i][j] / bc1;
      const double vhat = v_[i][j] / bc2;
      p.value[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

ReduceLrOnPlateau::ReduceLrOnPlateau(Adam& opt, std::size_t patience,
                                     double factor, double min_lr)
    : opt_(&opt), patience_(patience), factor_(factor), min_lr_(min_lr) {}

bool ReduceLrOnPlateau::observe(double validation_loss) {
  bool reduced = false;
  if (has_last_ && validation_loss > last_loss_) {
    if (++consecutive_increases_ >= patience_) {
      const double new_lr = opt_->lr() * factor_;
      if (new_lr >= min_lr_) {
        opt_->set_lr(new_lr);
        reduced = true;
      }
      consecutive_increases_ = 0;
    }
  } else {
    consecutive_increases_ = 0;
  }
  last_loss_ = validation_loss;
  has_last_ = true;
  return reduced;
}

}  // namespace magic::nn

#include "nn/conv1d.hpp"

#include "nn/init.hpp"
#include "nn/shape_contract.hpp"

namespace magic::nn {

Conv1D::Conv1D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      weight_("conv1d.weight",
              xavier_uniform({out_channels, in_channels, kernel},
                             in_channels * kernel, out_channels * kernel, rng)),
      bias_("conv1d.bias", Tensor::zeros({out_channels})) {
  if (kernel == 0 || stride == 0) {
    throw std::invalid_argument("Conv1D: kernel and stride must be positive");
  }
}

std::size_t Conv1D::out_length(std::size_t in_length) const {
  if (in_length < kernel_) {
    throw std::invalid_argument("Conv1D: input shorter than kernel");
  }
  return (in_length - kernel_) / stride_ + 1;
}

Tensor Conv1D::forward(Tensor input, Tape* tape) const {
  MAGIC_SHAPE_CONTRACT("Conv1D::forward", input, shape::any("N"),
                       shape::eq(in_channels_), shape::at_least("L", kernel_));
  check_batch("Conv1D::forward", input, 3);
  if (input.dim(1) != in_channels_) {
    throw std::invalid_argument("Conv1D::forward: expected (N x " +
                                std::to_string(in_channels_) + " x L), got " +
                                input.describe());
  }
  const std::size_t batch = input.dim(0);
  const std::size_t L = input.dim(2);
  const std::size_t Lo = out_length(L);
  Tensor out({batch, out_channels_, Lo});
  for (std::size_t s = 0; s < batch; ++s) {
    convolve_into(input.data() + s * in_channels_ * L,
                  out.data() + s * out_channels_ * Lo, L, Lo);
  }
  if (tape != nullptr) tape->push(std::move(input));
  return out;
}

void Conv1D::convolve_into(const double* in, double* out, std::size_t L,
                           std::size_t Lo) const {
  for (std::size_t oc = 0; oc < out_channels_; ++oc) {
    for (std::size_t t = 0; t < Lo; ++t) {
      double acc = bias_.value[oc];
      const std::size_t base = t * stride_;
      for (std::size_t ic = 0; ic < in_channels_; ++ic) {
        for (std::size_t k = 0; k < kernel_; ++k) {
          acc += weight_.value[(oc * in_channels_ + ic) * kernel_ + k] *
                 in[ic * L + base + k];
        }
      }
      out[oc * Lo + t] = acc;
    }
  }
}

Tensor Conv1D::backward(Tensor grad_output, Tape& tape, Gradients grads) const {
  check_gradients("Conv1D::backward", grads, 2);
  const Tensor input = tape.pop_tensor();
  const std::size_t batch = input.dim(0);
  const std::size_t L = input.dim(2);
  const std::size_t Lo = out_length(L);
  if (grad_output.rank() != 3 || grad_output.dim(0) != batch ||
      grad_output.dim(1) != out_channels_ || grad_output.dim(2) != Lo) {
    throw std::invalid_argument("Conv1D::backward: grad shape mismatch");
  }
  Tensor grad_in = Tensor::zeros(input.shape());
  Tensor& weight_grad = grads[0];
  Tensor& bias_grad = grads[1];
  for (std::size_t s = 0; s < batch; ++s) {
    const double* x = input.data() + s * in_channels_ * L;
    const double* go = grad_output.data() + s * out_channels_ * Lo;
    double* gi = grad_in.data() + s * in_channels_ * L;
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      for (std::size_t t = 0; t < Lo; ++t) {
        const double g = go[oc * Lo + t];
        if (g == 0.0) continue;
        bias_grad[oc] += g;
        const std::size_t base = t * stride_;
        for (std::size_t ic = 0; ic < in_channels_; ++ic) {
          for (std::size_t k = 0; k < kernel_; ++k) {
            const std::size_t widx = (oc * in_channels_ + ic) * kernel_ + k;
            weight_grad[widx] += g * x[ic * L + base + k];
            gi[ic * L + base + k] += g * weight_.value[widx];
          }
        }
      }
    }
  }
  return grad_in;
}

std::vector<Parameter*> Conv1D::parameters() { return {&weight_, &bias_}; }

}  // namespace magic::nn

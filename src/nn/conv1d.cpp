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

Tensor Conv1D::forward(const Tensor& input) {
  MAGIC_SHAPE_CONTRACT("Conv1D::forward", input, shape::eq(in_channels_),
                       shape::at_least("L", kernel_));
  if (input.rank() != 2 || input.dim(0) != in_channels_) {
    throw std::invalid_argument("Conv1D::forward: expected (" +
                                std::to_string(in_channels_) + " x L), got " +
                                input.describe());
  }
  cache_valid_ = grad_enabled();
  if (cache_valid_) cached_input_ = input;
  const std::size_t L = input.dim(1);
  const std::size_t Lo = out_length(L);
  Tensor out({out_channels_, Lo});
  convolve_into(input.data(), out.data(), L, Lo);
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

Tensor Conv1D::forward_batch(const Tensor& input) const {
  (void)batch_item_shape(input, "Conv1D::forward_batch");
  if (input.rank() != 3 || input.dim(1) != in_channels_) {
    throw std::invalid_argument("Conv1D::forward_batch: expected (batch x " +
                                std::to_string(in_channels_) + " x L), got " +
                                input.describe());
  }
  const std::size_t batch = input.dim(0);
  const std::size_t L = input.dim(2);
  const std::size_t Lo = out_length(L);
  // im2col: one row per (sample, output position), laid out C_in-major /
  // K-minor to match the (C_out x C_in x K) weight rows. The whole batch
  // then runs as a single register-blocked GEMM against W^T instead of
  // batch * C_out re-streams of each image.
  const std::size_t K = in_channels_ * kernel_;
  Tensor cols({batch * Lo, K});
  double* col = cols.data();
  for (std::size_t s = 0; s < batch; ++s) {
    const double* in = input.data() + s * in_channels_ * L;
    for (std::size_t t = 0; t < Lo; ++t) {
      double* row = col + (s * Lo + t) * K;
      const std::size_t base = t * stride_;
      for (std::size_t ic = 0; ic < in_channels_; ++ic) {
        const double* src = in + ic * L + base;
        for (std::size_t k = 0; k < kernel_; ++k) row[ic * kernel_ + k] = src[k];
      }
    }
  }
  const Tensor gemm = tensor::matmul_nt(cols, weight_.value.reshape({out_channels_, K}));
  // Scatter (batch*Lo x C_out) back to (batch x C_out x Lo), adding bias.
  Tensor out({batch, out_channels_, Lo});
  const double* gm = gemm.data();
  for (std::size_t s = 0; s < batch; ++s) {
    double* po = out.data() + s * out_channels_ * Lo;
    const double* gs = gm + s * Lo * out_channels_;
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      const double b = bias_.value[oc];
      for (std::size_t t = 0; t < Lo; ++t) {
        po[oc * Lo + t] = gs[t * out_channels_ + oc] + b;
      }
    }
  }
  return out;
}

Tensor Conv1D::backward(const Tensor& grad_output) {
  if (!cache_valid_) {
    throw std::logic_error("Conv1D::backward: no cached forward (grad caching disabled)");
  }
  const std::size_t L = cached_input_.dim(1);
  const std::size_t Lo = out_length(L);
  if (grad_output.rank() != 2 || grad_output.dim(0) != out_channels_ ||
      grad_output.dim(1) != Lo) {
    throw std::invalid_argument("Conv1D::backward: grad shape mismatch");
  }
  Tensor grad_in = Tensor::zeros(cached_input_.shape());
  for (std::size_t oc = 0; oc < out_channels_; ++oc) {
    for (std::size_t t = 0; t < Lo; ++t) {
      const double g = grad_output[oc * Lo + t];
      if (g == 0.0) continue;
      bias_.grad[oc] += g;
      const std::size_t base = t * stride_;
      for (std::size_t ic = 0; ic < in_channels_; ++ic) {
        for (std::size_t k = 0; k < kernel_; ++k) {
          const std::size_t widx = (oc * in_channels_ + ic) * kernel_ + k;
          weight_.grad[widx] += g * cached_input_[ic * L + base + k];
          grad_in[ic * L + base + k] += g * weight_.value[widx];
        }
      }
    }
  }
  return grad_in;
}

std::vector<Parameter*> Conv1D::parameters() { return {&weight_, &bias_}; }

}  // namespace magic::nn

#include "nn/conv2d.hpp"

#include <algorithm>

#include "nn/init.hpp"
#include "nn/shape_contract.hpp"

namespace magic::nn {
namespace {

// Valid output range [lo, hi) for one kernel offset k with padding p over
// an input extent `in` and output extent `out`: iy = oy + k - p must lie in
// [0, in).
inline void valid_range(std::size_t k, std::size_t pad, std::size_t in,
                        std::size_t out, std::size_t& lo, std::size_t& hi) noexcept {
  const std::ptrdiff_t lo_s = static_cast<std::ptrdiff_t>(pad) - static_cast<std::ptrdiff_t>(k);
  lo = lo_s > 0 ? static_cast<std::size_t>(lo_s) : 0;
  const std::ptrdiff_t hi_s = static_cast<std::ptrdiff_t>(in + pad) - static_cast<std::ptrdiff_t>(k);
  hi = hi_s < 0 ? 0 : std::min<std::size_t>(out, static_cast<std::size_t>(hi_s));
}

}  // namespace

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel_h, std::size_t kernel_w, std::size_t padding,
               util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kh_(kernel_h),
      kw_(kernel_w),
      pad_(padding),
      weight_("conv2d.weight",
              xavier_uniform({out_channels, in_channels, kernel_h, kernel_w},
                             in_channels * kernel_h * kernel_w,
                             out_channels * kernel_h * kernel_w, rng)),
      bias_("conv2d.bias", Tensor::zeros({out_channels})) {
  if (kernel_h == 0 || kernel_w == 0) {
    throw std::invalid_argument("Conv2D: kernel must be positive");
  }
}

Tensor Conv2D::forward(Tensor input, Tape* tape) const {
  MAGIC_SHAPE_CONTRACT("Conv2D::forward", input, shape::any("N"),
                       shape::eq(in_channels_),
                       shape::at_least("H", kh_ > 2 * pad_ ? kh_ - 2 * pad_ : 1),
                       shape::at_least("W", kw_ > 2 * pad_ ? kw_ - 2 * pad_ : 1));
  check_batch("Conv2D::forward", input, 4);
  if (input.dim(1) != in_channels_) {
    throw std::invalid_argument("Conv2D::forward: expected (N x " +
                                std::to_string(in_channels_) +
                                " x H x W), got " + input.describe());
  }
  const std::size_t batch = input.dim(0);
  const std::size_t H = input.dim(2), W = input.dim(3);
  if (H + 2 * pad_ < kh_ || W + 2 * pad_ < kw_) {
    throw std::invalid_argument("Conv2D: input too small for kernel");
  }
  const std::size_t Ho = H + 2 * pad_ - kh_ + 1;
  const std::size_t Wo = W + 2 * pad_ - kw_ + 1;
  Tensor out({batch, out_channels_, Ho, Wo});
  for (std::size_t s = 0; s < batch; ++s) {
    convolve_into(input.data() + s * in_channels_ * H * W,
                  out.data() + s * out_channels_ * Ho * Wo, H, W);
  }
  if (tape != nullptr) tape->push(std::move(input));
  return out;
}

void Conv2D::convolve_into(const double* pin, double* pout, std::size_t H,
                           std::size_t W) const {
  const std::size_t Ho = H + 2 * pad_ - kh_ + 1;
  const std::size_t Wo = W + 2 * pad_ - kw_ + 1;
  // Kernel-offset decomposition: for each (ky, kx) the contribution is a
  // shifted elementwise product, so the inner loop is a contiguous axpy.
  for (std::size_t oc = 0; oc < out_channels_; ++oc) {
    double* ochan = pout + oc * Ho * Wo;
    const double b = bias_.value[oc];
    for (std::size_t i = 0; i < Ho * Wo; ++i) ochan[i] = b;
    for (std::size_t ic = 0; ic < in_channels_; ++ic) {
      const double* ichan = pin + ic * H * W;
      for (std::size_t ky = 0; ky < kh_; ++ky) {
        std::size_t oy_lo, oy_hi;
        valid_range(ky, pad_, H, Ho, oy_lo, oy_hi);
        for (std::size_t kx = 0; kx < kw_; ++kx) {
          std::size_t ox_lo, ox_hi;
          valid_range(kx, pad_, W, Wo, ox_lo, ox_hi);
          if (ox_hi <= ox_lo) continue;
          const double w = weight_.value[((oc * in_channels_ + ic) * kh_ + ky) * kw_ + kx];
          if (w == 0.0) continue;
          for (std::size_t oy = oy_lo; oy < oy_hi; ++oy) {
            const std::size_t iy = oy + ky - pad_;
            const double* irow = ichan + iy * W + (ox_lo + kx - pad_);
            double* orow = ochan + oy * Wo + ox_lo;
            const std::size_t span = ox_hi - ox_lo;
            for (std::size_t j = 0; j < span; ++j) orow[j] += w * irow[j];
          }
        }
      }
    }
  }
}

Tensor Conv2D::backward(Tensor grad_output, Tape& tape, Gradients grads) const {
  check_gradients("Conv2D::backward", grads, 2);
  const Tensor input = tape.pop_tensor();
  const std::size_t batch = input.dim(0);
  const std::size_t H = input.dim(2), W = input.dim(3);
  const std::size_t Ho = H + 2 * pad_ - kh_ + 1;
  const std::size_t Wo = W + 2 * pad_ - kw_ + 1;
  if (grad_output.rank() != 4 || grad_output.dim(0) != batch ||
      grad_output.dim(1) != out_channels_ || grad_output.dim(2) != Ho ||
      grad_output.dim(3) != Wo) {
    throw std::invalid_argument("Conv2D::backward: grad shape mismatch");
  }
  Tensor grad_in = Tensor::zeros(input.shape());
  Tensor& weight_grad = grads[0];
  Tensor& bias_grad = grads[1];
  for (std::size_t s = 0; s < batch; ++s) {
    const double* pin = input.data() + s * in_channels_ * H * W;
    const double* pgo = grad_output.data() + s * out_channels_ * Ho * Wo;
    double* pgi = grad_in.data() + s * in_channels_ * H * W;
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      const double* gchan = pgo + oc * Ho * Wo;
      double bsum = 0.0;
      for (std::size_t i = 0; i < Ho * Wo; ++i) bsum += gchan[i];
      bias_grad[oc] += bsum;
      for (std::size_t ic = 0; ic < in_channels_; ++ic) {
        const double* ichan = pin + ic * H * W;
        double* gichan = pgi + ic * H * W;
        for (std::size_t ky = 0; ky < kh_; ++ky) {
          std::size_t oy_lo, oy_hi;
          valid_range(ky, pad_, H, Ho, oy_lo, oy_hi);
          for (std::size_t kx = 0; kx < kw_; ++kx) {
            std::size_t ox_lo, ox_hi;
            valid_range(kx, pad_, W, Wo, ox_lo, ox_hi);
            if (ox_hi <= ox_lo || oy_hi <= oy_lo) continue;
            const std::size_t widx = ((oc * in_channels_ + ic) * kh_ + ky) * kw_ + kx;
            const double w = weight_.value[widx];
            double wgrad = 0.0;
            const std::size_t span = ox_hi - ox_lo;
            for (std::size_t oy = oy_lo; oy < oy_hi; ++oy) {
              const std::size_t iy = oy + ky - pad_;
              const double* irow = ichan + iy * W + (ox_lo + kx - pad_);
              double* girow = gichan + iy * W + (ox_lo + kx - pad_);
              const double* grow = gchan + oy * Wo + ox_lo;
              for (std::size_t j = 0; j < span; ++j) {
                wgrad += grow[j] * irow[j];
                girow[j] += w * grow[j];
              }
            }
            weight_grad[widx] += wgrad;
          }
        }
      }
    }
  }
  return grad_in;
}

std::vector<Parameter*> Conv2D::parameters() { return {&weight_, &bias_}; }

}  // namespace magic::nn

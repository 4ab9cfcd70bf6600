#include "nn/adaptive_conv_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "nn/init.hpp"
#include "nn/shape_contract.hpp"

namespace magic::nn {
namespace {

constexpr std::size_t kTaps = 9;  // 3 x 3 kernel

struct Window {
  std::size_t lo;
  std::size_t hi;
};

// AdaptiveMaxPool2D's windows over an extent `in`: [floor(i*in/g),
// ceil((i+1)*in/g)), clamped non-empty when in < g.
std::vector<Window> adaptive_windows(std::size_t in, std::size_t g) {
  std::vector<Window> w(g);
  for (std::size_t i = 0; i < g; ++i) {
    std::size_t lo = (i * in) / g;
    std::size_t hi = ((i + 1) * in + g - 1) / g;
    if (lo >= in) lo = in - 1;
    if (hi <= lo) hi = lo + 1;
    w[i] = {lo, hi};
  }
  return w;
}

// ReLU as the kernels compute it (NaN maps to 0).
double relu(double v) noexcept { return v > 0.0 ? v : 0.0; }

}  // namespace

AdaptiveConvPool::AdaptiveConvPool(std::size_t channels, std::size_t grid,
                                   util::Rng& rng)
    : channels_(channels),
      grid_(grid),
      weight_("conv2d.weight",
              xavier_uniform({channels, 1, 3, 3}, kTaps, channels * kTaps, rng)),
      bias_("conv2d.bias", Tensor::zeros({channels})) {
  if (channels == 0 || grid == 0) {
    throw std::invalid_argument("AdaptiveConvPool: channels and grid must be positive");
  }
}

Tensor AdaptiveConvPool::forward(Tensor packed,
                                 const std::vector<std::size_t>& offsets,
                                 Tape* tape) const {
  MAGIC_SHAPE_CONTRACT("AdaptiveConvPool::forward", packed,
                       shape::at_least("n", 1), shape::at_least("C", 1));
  if (packed.rank() != 2 || packed.size() == 0) {
    throw std::invalid_argument("AdaptiveConvPool::forward: expected (n x C), got " +
                                packed.describe());
  }
  if (offsets.size() < 2 || offsets.front() != 0 ||
      offsets.back() != packed.dim(0)) {
    throw std::invalid_argument(
        "AdaptiveConvPool::forward: offsets must run 0..total_vertices");
  }
  const std::size_t batch = offsets.size() - 1;
  const std::size_t c = packed.dim(1);
  const std::size_t per_graph = channels_ * grid_ * grid_;
  Tensor out({batch, channels_, grid_, grid_});
  std::vector<std::size_t> argmax(tape != nullptr ? out.size() : 0);
  Tensor preact(tape != nullptr ? out.shape() : Shape{0});
  for (std::size_t g = 0; g < batch; ++g) {
    if (offsets[g + 1] <= offsets[g]) {
      throw std::invalid_argument("AdaptiveConvPool::forward: empty graph segment");
    }
    pool(packed.data() + offsets[g] * c, offsets[g + 1] - offsets[g], c,
         out.data() + g * per_graph,
         tape != nullptr ? argmax.data() + g * per_graph : nullptr,
         tape != nullptr ? preact.data() + g * per_graph : nullptr);
  }
  if (tape != nullptr) {
    tape->push(std::move(packed));
    tape->push(std::move(preact));
    tape->push(offsets);
    tape->push(std::move(argmax));
  }
  return out;
}

void AdaptiveConvPool::pool(const double* rows, std::size_t n, std::size_t c,
                            double* out, std::size_t* argmax,
                            double* preact) const {
  const std::size_t g = grid_;
  const std::vector<Window> wy = adaptive_windows(n, g);
  const std::vector<Window> wx = adaptive_windows(c, g);
  std::vector<double> row(c);
  const double* w = weight_.value.data();
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t o = 0; o < channels_; ++o) {
      // Conv2D::convolve_into restricted to output row y: the bias, then
      // each in-range kernel tap as an axpy over the columns it reaches, so
      // every value is the same sum in the same order.
      std::fill(row.begin(), row.end(), bias_.value[o]);
      for (std::size_t ky = 0; ky < 3; ++ky) {
        if (y + ky < 1 || y + ky > n) continue;  // input row y + ky - 1 is outside
        const double* in = rows + (y + ky - 1) * c;
        for (std::size_t kx = 0; kx < 3; ++kx) {
          const double wk = w[o * kTaps + ky * 3 + kx];
          if (wk == 0.0) continue;
          // Output columns whose input column x + kx - 1 lies in [0, c).
          const std::size_t lo = kx == 0 ? 1 : 0;
          const std::size_t hi = kx == 2 ? c - 1 : c;
          for (std::size_t x = lo; x < hi; ++x) row[x] += wk * in[x + kx - 1];
        }
      }
      // Fold the row into every window covering it, scanning the ReLU
      // output as AdaptiveMaxPool2D does: a window's first row seeds it
      // with its first element, and only a strictly larger value replaces
      // the max, so the first maximum in raster order wins.
      for (std::size_t oy = 0; oy < g; ++oy) {
        if (y < wy[oy].lo || y >= wy[oy].hi) continue;
        const bool first_row = y == wy[oy].lo;
        for (std::size_t ox = 0; ox < g; ++ox) {
          const std::size_t slot = (o * g + oy) * g + ox;
          const std::size_t lo = wx[ox].lo;
          double best = first_row ? relu(row[lo]) : out[slot];
          std::size_t at = first_row ? lo : c;  // c: no new maximum in this row
          for (std::size_t x = lo; x < wx[ox].hi; ++x) {
            if (relu(row[x]) > best) {
              best = relu(row[x]);
              at = x;
            }
          }
          if (at == c) continue;
          out[slot] = best;
          if (argmax != nullptr) {
            argmax[slot] = y * c + at;
            preact[slot] = row[at];
          }
        }
      }
    }
  }
}

Tensor AdaptiveConvPool::backward(Tensor grad_output, Tape& tape,
                                  Gradients grads) const {
  check_gradients("AdaptiveConvPool::backward", grads, 2);
  const std::vector<std::size_t> argmax = tape.pop_indices();
  const std::vector<std::size_t> offsets = tape.pop_indices();
  const Tensor preact = tape.pop_tensor();
  const Tensor input = tape.pop_tensor();
  const std::size_t batch = offsets.size() - 1;
  if (grad_output.rank() != 4 || grad_output.dim(0) != batch ||
      grad_output.dim(1) != channels_ || grad_output.dim(2) != grid_ ||
      grad_output.dim(3) != grid_) {
    throw std::invalid_argument("AdaptiveConvPool::backward: grad shape mismatch");
  }
  const std::size_t c = input.dim(1);
  const std::size_t per_graph = channels_ * grid_ * grid_;
  Tensor grad_in = Tensor::zeros(input.shape());
  for (std::size_t g = 0; g < batch; ++g) {
    const std::size_t slot = g * per_graph;
    pool_backward(input.data() + offsets[g] * c, offsets[g + 1] - offsets[g], c,
                  grad_output.data() + slot, argmax.data() + slot,
                  preact.data() + slot, grad_in.data() + offsets[g] * c, grads);
  }
  return grad_in;
}

void AdaptiveConvPool::pool_backward(const double* x, std::size_t n, std::size_t c,
                                     const double* grad_output,
                                     const std::size_t* argmax, const double* preact,
                                     double* gi, Gradients grads) const {
  const std::size_t gg = grid_ * grid_;
  double* weight_grad = grads[0].data();
  double* bias_grad = grads[1].data();
  // One entry per window, then one per distinct argmax: the positions of
  // the conv output whose gradient can be nonzero.
  struct Tap {
    std::size_t at;
    double grad;
    double pre;
  };
  std::vector<Tap> taps(gg);
  for (std::size_t o = 0; o < channels_; ++o) {
    for (std::size_t k = 0; k < gg; ++k) {
      const std::size_t slot = o * gg + k;
      taps[k] = {argmax[slot], grad_output[slot], preact[slot]};
    }
    // Raster order; the stable sort keeps windows sharing an argmax in
    // window order, and their gradients sum from 0 in that order, as
    // AdaptiveMaxPool2D::backward adds them. ReLU then drops every argmax
    // whose pre-activation is not positive.
    std::stable_sort(taps.begin(), taps.end(),
                     [](const Tap& a, const Tap& b) { return a.at < b.at; });
    std::size_t live = 0;
    for (std::size_t k = 0; k < gg;) {
      Tap merged{taps[k].at, 0.0, taps[k].pre};
      for (; k < gg && taps[k].at == merged.at; ++k) merged.grad += taps[k].grad;
      if (!(merged.pre <= 0.0)) taps[live++] = merged;
    }

    // Conv2D::backward restricted to those positions. Every other position
    // carries a zero gradient, whose terms leave the sums unchanged; the
    // remaining terms arrive in the dense loop's order.
    double bsum = 0.0;
    for (std::size_t t = 0; t < live; ++t) bsum += taps[t].grad;
    bias_grad[o] += bsum;
    for (std::size_t ky = 0; ky < 3; ++ky) {
      for (std::size_t kx = 0; kx < 3; ++kx) {
        const std::size_t widx = o * kTaps + ky * 3 + kx;
        const double w = weight_.value[widx];
        double wgrad = 0.0;
        for (std::size_t t = 0; t < live; ++t) {
          const std::size_t oy = taps[t].at / c, ox = taps[t].at % c;
          // Input (oy + ky - 1, ox + kx - 1) must lie inside the image.
          if (oy + ky < 1 || oy + ky > n || ox + kx < 1 || ox + kx > c) continue;
          const std::size_t in = (oy + ky - 1) * c + (ox + kx - 1);
          wgrad += taps[t].grad * x[in];
          gi[in] += w * taps[t].grad;
        }
        weight_grad[widx] += wgrad;
      }
    }
  }
}

std::vector<Parameter*> AdaptiveConvPool::parameters() { return {&weight_, &bias_}; }

}  // namespace magic::nn

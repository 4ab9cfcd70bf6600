#include "nn/adaptive_max_pool.hpp"

#include <stdexcept>

#include "nn/shape_contract.hpp"

namespace magic::nn {
namespace {

// Window start/end for adaptive pooling: [floor(i*in/out), ceil((i+1)*in/out)).
std::size_t win_start(std::size_t i, std::size_t in, std::size_t out) noexcept {
  return (i * in) / out;
}
std::size_t win_end(std::size_t i, std::size_t in, std::size_t out) noexcept {
  return ((i + 1) * in + out - 1) / out;
}

}  // namespace

AdaptiveMaxPool2D::AdaptiveMaxPool2D(std::size_t out_h, std::size_t out_w)
    : oh_(out_h), ow_(out_w) {
  if (out_h == 0 || out_w == 0) {
    throw std::invalid_argument("AdaptiveMaxPool2D: output dims must be positive");
  }
}

Tensor AdaptiveMaxPool2D::forward(Tensor input, Tape* tape) const {
  MAGIC_SHAPE_CONTRACT("AdaptiveMaxPool2D::forward", input, shape::any("N"),
                       shape::any("C"), shape::at_least("H", 1),
                       shape::at_least("W", 1));
  check_batch("AdaptiveMaxPool2D::forward", input, 4);
  const std::size_t planes = input.dim(0) * input.dim(1);
  const std::size_t H = input.dim(2), W = input.dim(3);
  if (H == 0 || W == 0) {
    throw std::invalid_argument("AdaptiveMaxPool2D: empty spatial dims");
  }
  Tensor out({input.dim(0), input.dim(1), oh_, ow_});
  std::vector<std::size_t> argmax(tape != nullptr ? out.size() : 0);
  for (std::size_t c = 0; c < planes; ++c) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      // When the output grid is larger than the input, windows overlap/repeat
      // (start index clamped so each window is non-empty).
      std::size_t y0 = win_start(oy, H, oh_), y1 = win_end(oy, H, oh_);
      if (y0 >= H) y0 = H - 1;
      if (y1 <= y0) y1 = y0 + 1;
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        std::size_t x0 = win_start(ox, W, ow_), x1 = win_end(ox, W, ow_);
        if (x0 >= W) x0 = W - 1;
        if (x1 <= x0) x1 = x0 + 1;
        std::size_t best = (c * H + y0) * W + x0;
        for (std::size_t y = y0; y < y1; ++y) {
          for (std::size_t x = x0; x < x1; ++x) {
            const std::size_t idx = (c * H + y) * W + x;
            if (input[idx] > input[best]) best = idx;
          }
        }
        const std::size_t oidx = (c * oh_ + oy) * ow_ + ox;
        out[oidx] = input[best];
        if (tape != nullptr) argmax[oidx] = best;
      }
    }
  }
  if (tape != nullptr) {
    tape->push(input.shape());
    tape->push(std::move(argmax));
  }
  return out;
}

Tensor AdaptiveMaxPool2D::backward(Tensor grad_output, Tape& tape,
                                   Gradients grads) const {
  check_gradients("AdaptiveMaxPool2D::backward", grads, 0);
  const std::vector<std::size_t> argmax = tape.pop_indices();
  const Shape input_shape = tape.pop_indices();
  if (grad_output.size() != argmax.size()) {
    throw std::invalid_argument("AdaptiveMaxPool2D::backward: grad shape mismatch");
  }
  Tensor grad_in = Tensor::zeros(input_shape);
  for (std::size_t i = 0; i < argmax.size(); ++i) {
    grad_in[argmax[i]] += grad_output[i];
  }
  return grad_in;
}

}  // namespace magic::nn

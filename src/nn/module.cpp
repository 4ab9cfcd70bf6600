#include "nn/module.hpp"

#include <stdexcept>
#include <string>

namespace magic::nn {

void check_gradients(const char* who, Gradients grads, std::size_t count) {
  if (grads.size() != count) {
    throw std::invalid_argument(std::string(who) + ": expected " +
                                std::to_string(count) + " gradient tensors, got " +
                                std::to_string(grads.size()));
  }
}

void check_batch(const char* who, const Tensor& t, std::size_t rank) {
  if (t.rank() != rank || t.dim(0) == 0) {
    throw std::invalid_argument(std::string(who) + ": expected a rank-" +
                                std::to_string(rank) +
                                " batch with N >= 1, got " + t.describe());
  }
}

}  // namespace magic::nn

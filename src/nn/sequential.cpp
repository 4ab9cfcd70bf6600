#include "nn/sequential.hpp"

#include "nn/shape_contract.hpp"

namespace magic::nn {

Tensor Sequential::forward(const Tensor& input) {
  MAGIC_SHAPE_CONTRACT_ANY("Sequential::forward", input);  // children check
  Tensor x = input;
  for (auto& m : modules_) x = m->forward(x);
  return x;
}

Tensor Sequential::forward_batch(const Tensor& input) const {
  if (modules_.empty()) return input;
  // The first child reads the caller's tensor; every intermediate is owned
  // by this loop, so reshape/elementwise children recycle its storage
  // instead of copying (see Module::forward_batch_owned).
  Tensor x = modules_.front()->forward_batch(input);
  for (std::size_t i = 1; i < modules_.size(); ++i) {
    x = modules_[i]->forward_batch_owned(std::move(x));
  }
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& m : modules_) {
    for (Parameter* p : m->parameters()) params.push_back(p);
  }
  return params;
}

void Sequential::set_training(bool training) {
  Module::set_training(training);
  for (auto& m : modules_) m->set_training(training);
}

void Sequential::set_grad_enabled(bool enabled) {
  Module::set_grad_enabled(enabled);
  for (auto& m : modules_) m->set_grad_enabled(enabled);
}

void Sequential::reseed_rng(std::uint64_t seed) {
  // splitmix64 finalizer mixes the child index into the seed so each module
  // gets an uncorrelated stream.
  std::size_t index = 0;
  for (auto& m : modules_) {
    std::uint64_t s = seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(++index);
    s ^= s >> 30;
    s *= 0xBF58476D1CE4E5B9ULL;
    s ^= s >> 27;
    s *= 0x94D049BB133111EBULL;
    s ^= s >> 31;
    m->reseed_rng(s);
  }
}

}  // namespace magic::nn

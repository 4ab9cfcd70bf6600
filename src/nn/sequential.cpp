#include "nn/sequential.hpp"

#include "nn/shape_contract.hpp"

namespace magic::nn {

void Sequential::push_back(std::unique_ptr<Module> m) {
  const std::size_t count = m->parameters().size();
  children_.push_back({std::move(m), count});
}

std::uint64_t Sequential::child_seed(std::uint64_t seed, std::size_t index) noexcept {
  std::uint64_t s = seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(index);
  s ^= s >> 30;
  s *= 0xBF58476D1CE4E5B9ULL;
  s ^= s >> 27;
  s *= 0x94D049BB133111EBULL;
  s ^= s >> 31;
  return s;
}

Tensor Sequential::forward(Tensor input, Tape* tape) const {
  MAGIC_SHAPE_CONTRACT_ANY("Sequential::forward", input);  // children check
  const std::optional<std::uint64_t> seed =
      tape != nullptr ? tape->seed() : std::nullopt;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (seed) tape->set_seed(child_seed(*seed, i + 1));
    input = children_[i].module->forward(std::move(input), tape);
  }
  if (seed) tape->set_seed(*seed);
  return input;
}

Tensor Sequential::backward(Tensor grad_output, Tape& tape, Gradients grads) const {
  std::size_t end = 0;
  for (const Child& child : children_) end += child.parameter_count;
  check_gradients("Sequential::backward", grads, end);
  for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
    end -= it->parameter_count;
    grad_output = it->module->backward(std::move(grad_output), tape,
                                       grads.subspan(end, it->parameter_count));
  }
  return grad_output;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (Child& child : children_) {
    for (Parameter* p : child.module->parameters()) params.push_back(p);
  }
  return params;
}

}  // namespace magic::nn

#pragma once
// Ordered container of modules executed front-to-back (and reversed on
// backward). Used for the classifier heads that follow the graph stages.

#include <cstdint>
#include <memory>

#include "nn/module.hpp"

namespace magic::nn {

/// Owning chain of modules.
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a module and returns a reference to it (builder style).
  template <typename M, typename... Args>
  M& emplace(Args&&... args) {
    auto mod = std::make_unique<M>(std::forward<Args>(args)...);
    M& ref = *mod;
    push_back(std::move(mod));
    return ref;
  }

  void push_back(std::unique_ptr<Module> m);

  /// Chains the children's forwards. On a seeded tape child i runs on its
  /// own stream, child_seed(seed, i + 1), so sibling stochastic layers get
  /// uncorrelated masks from one seed.
  Tensor forward(Tensor input, Tape* tape) const override;
  Tensor backward(Tensor grad_output, Tape& tape, Gradients grads) const override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "Sequential"; }

  std::size_t size() const noexcept { return children_.size(); }
  Module& at(std::size_t i) { return *children_.at(i).module; }

  /// The stream seed child `index` (1-based) runs on (splitmix64 finalizer
  /// over the index-mixed seed).
  static std::uint64_t child_seed(std::uint64_t seed, std::size_t index) noexcept;

 private:
  struct Child {
    std::unique_ptr<Module> module;
    std::size_t parameter_count;  // its slice of the Gradients buffer
  };
  std::vector<Child> children_;
};

}  // namespace magic::nn

#pragma once
// Ordered container of modules executed front-to-back (and reversed on
// backward). Used for the classifier heads that follow the graph stages.

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
    modules_.push_back(std::move(mod));
    return ref;
  }

  void push_back(std::unique_ptr<Module> m) { modules_.push_back(std::move(m)); }

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  /// Chains the children's forward_batch; the batch stays fused wherever a
  /// child provides a native batched kernel.
  Tensor forward_batch(const Tensor& input) const override;
  std::vector<Parameter*> parameters() override;
  void set_training(bool training) override;
  void set_grad_enabled(bool enabled) override;
  /// Derives a distinct child seed per module index, so sibling stochastic
  /// layers get uncorrelated streams from one seed.
  void reseed_rng(std::uint64_t seed) override;
  std::string name() const override { return "Sequential"; }

  std::size_t size() const noexcept { return modules_.size(); }
  Module& at(std::size_t i) { return *modules_.at(i); }

 private:
  std::vector<std::unique_ptr<Module>> modules_;
};

}  // namespace magic::nn

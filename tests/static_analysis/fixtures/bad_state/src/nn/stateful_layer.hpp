#pragma once
// magic_lint fixture: a layer that keeps its last input in a data member
// for its backward: per-call state the caller's tape should carry. The
// no-module-state rule must flag `cached_input_`. The const configuration
// member, the local inside the inline forward and the member of the
// scratch struct without a forward must not count.

namespace fixture {

struct Tensor {
  int rows = 0;
};

struct Scratch {
  Tensor buffer;
};

class StatefulLayer {
 public:
  Tensor forward(Tensor input) {
    Tensor local = input;
    cached_input_ = local;
    return local;
  }
  Tensor backward(Tensor grad) const { return grad; }

 private:
  const Tensor shape_hint_{};
  Tensor cached_input_;
};

}  // namespace fixture

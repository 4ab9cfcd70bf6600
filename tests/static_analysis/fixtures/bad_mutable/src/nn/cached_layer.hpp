#pragma once
// magic_lint fixture: a layer whose const forward writes scratch into a
// `mutable` member — per-call state hidden behind const, a data race once
// two threads score on one instance. The no-mutable-state rule must flag
// the member (the lambda's `mutable` below must NOT count).

namespace fixture {

struct Tensor {
  int rows = 0;
};
struct Tape {};

class CachedLayer {
 public:
  Tensor forward(Tensor input, Tape* /*tape*/) const {
    scratch_ = input;
    auto count = [n = 0]() mutable { return ++n; };
    scratch_.rows += count();
    return scratch_;
  }

 private:
  mutable Tensor scratch_;
};

}  // namespace fixture

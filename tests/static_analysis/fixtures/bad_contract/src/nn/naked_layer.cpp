// magic_lint fixture: a module forward with no shape contract. The
// forward-contract rule must flag this file (it matches the definition, so
// the rejection is the missing contract, not a rule that matched nothing).

namespace fixture {

struct Tensor {
  int rows = 0;
};
struct Tape {};

struct NakedLayer {
  Tensor forward(Tensor input, Tape* tape) const;
};

Tensor NakedLayer::forward(Tensor input, Tape* /*tape*/) const {
  Tensor out;
  out.rows = input.rows;
  return out;
}

}  // namespace fixture

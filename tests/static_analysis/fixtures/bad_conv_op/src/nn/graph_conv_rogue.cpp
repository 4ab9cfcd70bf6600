// magic_lint fixture: a graph-conv operator whose void-returning forward,
// which writes its rows through a raw pointer, has no shape contract.
// forward-contract cannot see it (that rule matches only `Tensor
// X::forward`); the conv-op-contract rule must flag this file.

namespace fixture {

struct Tensor {
  int rows = 0;
};
struct SparseMatrix {};
struct InferenceWorkspace {};
struct Tape {};

struct RogueConv {
  void forward(const SparseMatrix& prop, const Tensor& z,
               InferenceWorkspace& workspace, double* out,
               unsigned long out_stride, Tensor* next_input, Tape* tape) const;
};

void RogueConv::forward(const SparseMatrix& /*prop*/, const Tensor& z,
                        InferenceWorkspace& /*workspace*/, double* out,
                        unsigned long out_stride, Tensor* next_input,
                        Tape* /*tape*/) const {
  for (int r = 0; r < z.rows; ++r) out[r * out_stride] = 0.0;
  if (next_input != nullptr) next_input->rows = z.rows;
}

}  // namespace fixture

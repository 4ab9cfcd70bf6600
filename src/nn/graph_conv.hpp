#pragma once
// Graph-convolution operator zoo.
//
// The paper's Eq. 1 convolution
//
//   Z_{t+1} = f( D^-1 * A_hat * Z_t * W_t )
//
// is one member of a family of `f(P Z W)`-shaped operators over the same
// precomputed sparse propagation operator P = D^-1 * A_hat
// (tensor::SparseMatrix::propagation_operator). The per-layer math lives
// behind the GraphConvOp interface so the stack, the trainer, the packed
// batch engine and the fused inference path are operator-generic:
//
//   PaperGraphConv  Eq. 1 exactly: Y = f(P Z W). Bit-identical to the
//                   pre-zoo GraphConvLayer (same kernels in the same
//                   order), pinned by the golden tests.
//   SageConv        GraphSAGE-style mean aggregator: Y = f([Z | P Z] W),
//                   i.e. the concatenation of the self features and the
//                   mean-neighbor features through one fused weight.
//   TagConv         K-hop topology-adaptive convolution:
//                   Y = f([Z | P Z | ... | P^K Z] W) — the concat-weight
//                   form of the usual sum over powers sum_k P^k Z W_k
//                   (W stacks the per-hop blocks row-wise).
//
// Every operator owns exactly one weight tensor, shares the SpMM/GEMM SIMD
// kernels, and has two const entry points: forward, which activates
// straight into a column slice of the concatenated Z^{1:h} and records on
// a caller's nn::Tape what backward needs, and backward. Stacking h layers
// aggregates multi-scale substructure; the concatenation
// Z^{1:h} = [Z_1, ..., Z_h] feeds the pooling stage. A packed batch of
// graphs runs through the same calls: its propagation operator is block
// diagonal.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/module.hpp"
#include "tensor/sparse.hpp"
#include "util/rng.hpp"

namespace magic::nn {

using tensor::SparseMatrix;

/// Which per-layer convolution the stack runs (DgcnnConfig::graph_conv_op).
enum class GraphConvOperator { Paper, Sage, Tag };

/// Wire/checkpoint name: "paper", "sage" or "tag".
const char* graph_conv_operator_name(GraphConvOperator kind) noexcept;

/// Inverse of graph_conv_operator_name; throws std::runtime_error on an
/// unknown name (checkpoint loaders and CLI flags want a loud failure).
GraphConvOperator parse_graph_conv_operator(const std::string& name);

/// Operator choice plus its per-operator knobs.
struct GraphConvOpOptions {
  GraphConvOperator kind = GraphConvOperator::Paper;
  /// TagConv only: number of propagation hops K (>= 1; hop 0 is Z itself).
  std::size_t tag_hops = 2;
};

/// Caller-owned scratch of GraphConvStack::forward. Every buffer is sized
/// on first use and reused, so a caller that runs many batches through one
/// workspace allocates only when a batch outgrows it. One workspace serves
/// one call at a time; concurrent callers each own one, which is what lets
/// any number of threads run on one set of weights.
struct InferenceWorkspace {
  Tensor f;    // per-layer GEMM output in flight
  Tensor z;    // contiguous copy of the previous layer's output
  Tensor h;    // Sage/Tag operand [Z | P Z | ...]
  Tensor hop;  // Tag: contiguous previous hop while building h
};

/// One graph-convolution layer behind a uniform interface.
///
/// Unlike plain Module, both calls take the propagation operator P of the
/// (packed) graph; the caller keeps it alive from forward to backward.
/// Contract for implementations (DESIGN.md "Graph-convolution operators"):
///  * forward opens with a shape contract (magic_lint rule
///    conv-op-contract) and rejects a P whose side differs from the vertex
///    count;
///  * output width is exactly out_channels() — the stack's concat layout
///    and DgcnnConfig::total_graph_channels() rely on it;
///  * parameters() order is deterministic (fixed-order gradient reduction
///    in ParallelTrainer) and every parameter name is operator-specific so
///    checkpoints cannot silently load across operators.
class GraphConvOp {
 public:
  virtual ~GraphConvOp() = default;

  virtual GraphConvOperator kind() const noexcept = 0;

  /// Y = f(op(P, Z) W), written row by row into `out` (row stride
  /// `out_stride`, rows zero-initialized by the caller) — typically a
  /// column slice of the stack's concatenated Z^{1:h}, so there is no
  /// per-layer output tensor and no final concat copy. When `next_input`
  /// is non-null the activated values are mirrored into it contiguously
  /// for the next layer (it may alias `z`; `z` is fully consumed first).
  /// Per-call buffers come from `workspace`. With a tape, records the
  /// layer's operand (Z, or H for Sage/Tag) and pre-activations.
  virtual void forward(const SparseMatrix& prop, const Tensor& z,
                       InferenceWorkspace& workspace, double* out,
                       std::size_t out_stride, Tensor* next_input,
                       Tape* tape) const = 0;

  /// Pops this layer's records, adds dW into grads[0] and returns dZ.
  virtual Tensor backward(const SparseMatrix& prop, Tensor grad_output,
                          Tape& tape, Gradients grads) const = 0;

  /// Every zoo operator has exactly one weight; its name and shape are
  /// operator-specific (see the concrete classes).
  Parameter& weight() noexcept { return weight_; }
  const Parameter& weight() const noexcept { return weight_; }
  std::vector<Parameter*> parameters() { return {&weight_}; }

  std::size_t in_channels() const noexcept { return in_; }
  std::size_t out_channels() const noexcept { return out_; }

 protected:
  GraphConvOp(std::size_t in_channels, std::size_t out_channels,
              Activation activation, Parameter weight)
      : in_(in_channels),
        out_(out_channels),
        activation_(activation),
        weight_(std::move(weight)) {}

  std::size_t in_;
  std::size_t out_;
  Activation activation_;
  Parameter weight_;
};

/// Eq. 1 of the paper: Y = f(P Z W), weight "graph_conv.weight" (in x out).
/// The kernel order (GEMM Z W, then SpMM P F, then the activation) is the
/// pre-zoo GraphConvLayer's exactly — golden tests pin it bitwise.
class PaperGraphConv final : public GraphConvOp {
 public:
  PaperGraphConv(std::size_t in_channels, std::size_t out_channels,
                 Activation activation, util::Rng& rng);

  GraphConvOperator kind() const noexcept override {
    return GraphConvOperator::Paper;
  }
  void forward(const SparseMatrix& prop, const Tensor& z,
               InferenceWorkspace& workspace, double* out, std::size_t out_stride,
               Tensor* next_input, Tape* tape) const override;
  Tensor backward(const SparseMatrix& prop, Tensor grad_output, Tape& tape,
                  Gradients grads) const override;
};

/// GraphSAGE-style mean aggregator: Y = f(H W) with H = [Z | P Z]
/// (self features next to mean-neighbor features; P's row-normalization is
/// the mean, including the self loop of A_hat). Weight "sage_conv.weight"
/// (2*in x out) fuses the self- and neighbor-transforms into one GEMM.
class SageConv final : public GraphConvOp {
 public:
  SageConv(std::size_t in_channels, std::size_t out_channels,
           Activation activation, util::Rng& rng);

  GraphConvOperator kind() const noexcept override {
    return GraphConvOperator::Sage;
  }
  void forward(const SparseMatrix& prop, const Tensor& z,
               InferenceWorkspace& workspace, double* out, std::size_t out_stride,
               Tensor* next_input, Tape* tape) const override;
  Tensor backward(const SparseMatrix& prop, Tensor grad_output, Tape& tape,
                  Gradients grads) const override;
};

/// K-hop topology-adaptive convolution: Y = f(H W) with
/// H = [Z | P Z | ... | P^K Z]; the hops are built iteratively with
/// SparseMatrix::multiply_into, each written straight into its column
/// block of H. Weight "tag_conv.weight" ((K+1)*in x out) stacks the
/// per-hop weight blocks, so H W = sum_k (P^k Z) W_k.
class TagConv final : public GraphConvOp {
 public:
  /// Throws std::invalid_argument when hops < 1.
  TagConv(std::size_t in_channels, std::size_t out_channels, std::size_t hops,
          Activation activation, util::Rng& rng);

  GraphConvOperator kind() const noexcept override {
    return GraphConvOperator::Tag;
  }
  std::size_t hops() const noexcept { return hops_; }
  void forward(const SparseMatrix& prop, const Tensor& z,
               InferenceWorkspace& workspace, double* out, std::size_t out_stride,
               Tensor* next_input, Tape* tape) const override;
  Tensor backward(const SparseMatrix& prop, Tensor grad_output, Tape& tape,
                  Gradients grads) const override;

 private:
  std::size_t hops_;
};

/// Builds the operator `options` names. Throws std::invalid_argument on
/// invalid per-operator knobs (e.g. tag_hops == 0).
std::unique_ptr<GraphConvOp> make_graph_conv_op(const GraphConvOpOptions& options,
                                                std::size_t in_channels,
                                                std::size_t out_channels,
                                                Activation activation,
                                                util::Rng& rng);

/// Everything the stack needs to build its layers, in one place.
/// DgcnnConfig::graph_conv_stack_config() is the single producer — config,
/// model and classifier no longer thread channels/activation separately.
struct GraphConvStackConfig {
  /// Input width of layer 1 (the ACFG attribute count).
  std::size_t in_channels = 11;
  /// {c_1, ..., c_h}: output width of each layer.
  std::vector<std::size_t> channels = {32, 32, 32, 32};
  Activation activation = Activation::ReLU;
  GraphConvOpOptions op;
};

/// Stack of h graph-convolution layers producing Z^{1:h}.
class GraphConvStack {
 public:
  explicit GraphConvStack(const GraphConvStackConfig& config, util::Rng& rng);

  /// The column-concatenated Z^{1:h} of shape (n x total_channels()). Each
  /// layer activates straight into its column slice of the result; per-call
  /// scratch comes from `workspace`. With a tape, every layer records what
  /// its backward needs.
  Tensor forward(const SparseMatrix& prop, const Tensor& x,
                 InferenceWorkspace& workspace, Tape* tape) const;

  /// Takes d(loss)/d(Z^{1:h}), adds each layer's dW into `grads` (one per
  /// layer) and returns d(loss)/d(X). `prop` is the forward's operator.
  Tensor backward(const SparseMatrix& prop, Tensor grad_concat, Tape& tape,
                  Gradients grads) const;

  std::vector<Parameter*> parameters();

  std::size_t depth() const noexcept { return layers_.size(); }
  std::size_t total_channels() const noexcept { return total_channels_; }
  /// Output width of layer t (0-based).
  std::size_t layer_channels(std::size_t t) const {
    return layers_.at(t)->out_channels();
  }
  /// The operator every layer runs (uniform across the stack).
  GraphConvOperator op_kind() const noexcept { return op_options_.kind; }
  const GraphConvOpOptions& op_options() const noexcept { return op_options_; }

 private:
  GraphConvOpOptions op_options_;
  std::vector<std::unique_ptr<GraphConvOp>> layers_;
  std::size_t total_channels_ = 0;
};

}  // namespace magic::nn

#include "nn/graph_conv.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/init.hpp"
#include "nn/shape_contract.hpp"
#include "util/check.hpp"

namespace magic::nn {
namespace {

/// Shared geometry check: P must be (n x n) for an n-vertex input. Checked
/// builds upgrade the failure to a CheckError with the full geometry;
/// release builds fall through to the plain invalid_argument.
void check_propagation(const char* what, const SparseMatrix& prop,
                       const Tensor& z) {
  if (prop.rows() != z.dim(0) || prop.cols() != z.dim(0)) {
    MAGIC_CHECK(false, what << ": propagation operator is " << prop.rows()
                            << 'x' << prop.cols() << " but input has "
                            << z.dim(0) << " vertices");
    throw std::invalid_argument(std::string(what) + ": operator size mismatch");
  }
}

/// Columns [col0, col0 + width) of a row-major (n x stride) tensor as a
/// contiguous (n x width) tensor (backward-time block extraction).
Tensor copy_block(const Tensor& src, std::size_t col0, std::size_t width) {
  const std::size_t n = src.dim(0);
  const std::size_t stride = src.dim(1);
  Tensor out({n, width});
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = src.data() + i * stride + col0;
    std::copy(row, row + width, out.data() + i * width);
  }
  return out;
}

/// The Sage/Tag epilogue: activates the (n x out) pre-activations `f` row
/// by row into `out` (row stride `out_stride`) and, when non-null, into
/// `next_input`. With a tape, first records the operand `h` and the
/// pre-activations.
void activate_rows(Activation act, Tensor& f, double* out, std::size_t out_stride,
                   Tensor* next_input, Tape* tape, const Tensor& h) {
  const std::size_t n = f.dim(0), width = f.dim(1);
  if (tape != nullptr) {
    tape->push(h);
    tape->push(f);
  }
  if (next_input != nullptr) next_input->resize({n, width});
  for (std::size_t r = 0; r < n; ++r) {
    double* row = f.data() + r * width;
    apply_activation(act, row, width);
    std::copy(row, row + width, out + r * out_stride);
    if (next_input != nullptr) std::copy(row, row + width, next_input->data() + r * width);
  }
}

}  // namespace

const char* graph_conv_operator_name(GraphConvOperator kind) noexcept {
  switch (kind) {
    case GraphConvOperator::Paper: return "paper";
    case GraphConvOperator::Sage: return "sage";
    case GraphConvOperator::Tag: return "tag";
  }
  return "paper";
}

GraphConvOperator parse_graph_conv_operator(const std::string& name) {
  if (name == "paper") return GraphConvOperator::Paper;
  if (name == "sage") return GraphConvOperator::Sage;
  if (name == "tag") return GraphConvOperator::Tag;
  throw std::runtime_error("unknown graph-conv operator '" + name +
                           "' (expected paper, sage or tag)");
}

// ---- PaperGraphConv (Eq. 1; the pre-zoo GraphConvLayer verbatim) ----------

PaperGraphConv::PaperGraphConv(std::size_t in_channels, std::size_t out_channels,
                               Activation activation, util::Rng& rng)
    : GraphConvOp(in_channels, out_channels, activation,
                  Parameter("graph_conv.weight",
                            xavier_uniform({in_channels, out_channels},
                                           in_channels, out_channels, rng))) {}

void PaperGraphConv::forward(const SparseMatrix& prop, const Tensor& z,
                             InferenceWorkspace& workspace, double* out,
                             std::size_t out_stride, Tensor* next_input,
                             Tape* tape) const {
  // Single authoritative input check, live in checked AND release builds:
  // ShapeContractError derives from std::invalid_argument, so release-mode
  // callers catching invalid input keep working.
  check_shape_contract("PaperGraphConv::forward", z,
                       {shape::any("n"), shape::eq(in_)});
  check_propagation("PaperGraphConv::forward", prop, z);
  const std::size_t n = z.dim(0);
  // F = Z W, then S = P F (sparse), then Y = f(S).
  Tensor& f = workspace.f;
  tensor::matmul_into(f, z, weight_.value);  // consumes z fully
  if (tape != nullptr) tape->push(z);
  // The resize may reallocate; safe even when next_input aliases z because
  // z has been read for the last time above.
  if (next_input != nullptr) next_input->resize({n, out_});
  Tensor preact(tape != nullptr ? Shape{n, out_} : Shape{0});
  double* pre = tape != nullptr ? preact.data() : nullptr;
  double* mirror = next_input != nullptr ? next_input->data() : nullptr;
  const std::size_t width = out_;
  const Activation act = activation_;
  prop.multiply_into(f, out, out_stride,
                     [pre, mirror, width, act](std::size_t r, double* row) {
                       if (pre != nullptr) std::copy(row, row + width, pre + r * width);
                       apply_activation(act, row, width);
                       if (mirror != nullptr) {
                         std::copy(row, row + width, mirror + r * width);
                       }
                     });
  if (tape != nullptr) tape->push(std::move(preact));
}

Tensor PaperGraphConv::backward(const SparseMatrix& prop, Tensor grad_output,
                                Tape& tape, Gradients grads) const {
  check_gradients("PaperGraphConv::backward", grads, 1);
  const Tensor preact = tape.pop_tensor();
  const Tensor z = tape.pop_tensor();
  if (!grad_output.same_shape(preact)) {
    throw std::invalid_argument("PaperGraphConv::backward: grad shape mismatch");
  }
  check_propagation("PaperGraphConv::backward", prop, z);
  // dS = dY * f'(S)
  Tensor& ds = grad_output;
  apply_activation_grad(activation_, ds.data(), preact.data(), ds.size());
  // dF = P^T dS ; dW += Z^T dF ; dZ = dF W^T, with the transpose-free
  // kernels.
  const Tensor df = prop.multiply_transposed(ds);
  grads[0] += tensor::matmul_tn(z, df);
  return tensor::matmul_nt(df, weight_.value);
}

// ---- SageConv (mean aggregator: Y = f([Z | P Z] W)) -----------------------

namespace {

/// Fills `h` (n x 2*in) with [Z | P Z]: the left block is a straight copy,
/// the right block one SpMM into the column slice. `h` must arrive zeroed
/// (multiply_into accumulates).
void build_sage_concat(const SparseMatrix& prop, const Tensor& z,
                       std::size_t in, Tensor& h) {
  const std::size_t n = z.dim(0);
  const std::size_t width = 2 * in;
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = z.data() + i * in;
    std::copy(row, row + in, h.data() + i * width);
  }
  prop.multiply_into(z, h.data() + in, width);
}

}  // namespace

SageConv::SageConv(std::size_t in_channels, std::size_t out_channels,
                   Activation activation, util::Rng& rng)
    : GraphConvOp(in_channels, out_channels, activation,
                  Parameter("sage_conv.weight",
                            xavier_uniform({2 * in_channels, out_channels},
                                           2 * in_channels, out_channels, rng))) {}

void SageConv::forward(const SparseMatrix& prop, const Tensor& z,
                       InferenceWorkspace& workspace, double* out,
                       std::size_t out_stride, Tensor* next_input,
                       Tape* tape) const {
  check_shape_contract("SageConv::forward", z,
                       {shape::any("n"), shape::eq(in_)});
  check_propagation("SageConv::forward", prop, z);
  const std::size_t n = z.dim(0);
  Tensor& h = workspace.h;
  h.resize({n, 2 * in_});
  h.fill(0.0);
  build_sage_concat(prop, z, in_, h);
  // z is fully consumed; next_input may now alias it.
  tensor::matmul_into(workspace.f, h, weight_.value);
  activate_rows(activation_, workspace.f, out, out_stride, next_input, tape, h);
}

Tensor SageConv::backward(const SparseMatrix& prop, Tensor grad_output, Tape& tape,
                          Gradients grads) const {
  check_gradients("SageConv::backward", grads, 1);
  const Tensor preact = tape.pop_tensor();
  const Tensor h = tape.pop_tensor();
  if (!grad_output.same_shape(preact)) {
    throw std::invalid_argument("SageConv::backward: grad shape mismatch");
  }
  check_propagation("SageConv::backward", prop, h);
  // dS = dY * f'(S); dW += H^T dS; dH = dS W^T.
  Tensor& ds = grad_output;
  apply_activation_grad(activation_, ds.data(), preact.data(), ds.size());
  grads[0] += tensor::matmul_tn(h, ds);
  const Tensor dh = tensor::matmul_nt(ds, weight_.value);
  // dZ = dH_left + P^T dH_right (the self path plus the aggregated path).
  Tensor dz = copy_block(dh, 0, in_);
  dz += prop.multiply_transposed(copy_block(dh, in_, in_));
  return dz;
}

// ---- TagConv (K-hop: Y = f([Z | P Z | ... | P^K Z] W)) --------------------

namespace {

/// Fills `h` (n x (hops+1)*in) with [Z | P Z | ... | P^K Z]. Hop k is one
/// SpMM of the previous hop straight into its column block of `h`
/// (multiply_into), with the finished rows mirrored into `hop_scratch` so
/// the next hop has a contiguous operand. `h` must arrive zeroed.
void build_tag_concat(const SparseMatrix& prop, const Tensor& z, std::size_t in,
                      std::size_t hops, Tensor& h, Tensor& hop_scratch,
                      Tensor& prev_scratch) {
  const std::size_t n = z.dim(0);
  const std::size_t width = (hops + 1) * in;
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = z.data() + i * in;
    std::copy(row, row + in, h.data() + i * width);
  }
  const Tensor* prev = &z;
  for (std::size_t k = 1; k <= hops; ++k) {
    hop_scratch.resize({n, in});
    double* mirror = hop_scratch.data();
    prop.multiply_into(*prev, h.data() + k * in, width,
                       [mirror, in](std::size_t r, double* row) {
                         std::copy(row, row + in, mirror + r * in);
                       });
    std::swap(hop_scratch, prev_scratch);
    prev = &prev_scratch;
  }
}

}  // namespace

TagConv::TagConv(std::size_t in_channels, std::size_t out_channels,
                 std::size_t hops, Activation activation, util::Rng& rng)
    : GraphConvOp(in_channels, out_channels, activation,
                  Parameter("tag_conv.weight",
                            xavier_uniform({(hops + 1) * in_channels, out_channels},
                                           (hops + 1) * in_channels, out_channels,
                                           rng))),
      hops_(hops) {
  if (hops_ < 1) {
    throw std::invalid_argument("TagConv: tag_hops must be >= 1");
  }
}

void TagConv::forward(const SparseMatrix& prop, const Tensor& z,
                      InferenceWorkspace& workspace, double* out,
                      std::size_t out_stride, Tensor* next_input, Tape* tape) const {
  check_shape_contract("TagConv::forward", z,
                       {shape::any("n"), shape::eq(in_)});
  check_propagation("TagConv::forward", prop, z);
  const std::size_t n = z.dim(0);
  Tensor& h = workspace.h;
  h.resize({n, (hops_ + 1) * in_});
  h.fill(0.0);
  Tensor prev;
  build_tag_concat(prop, z, in_, hops_, h, workspace.hop, prev);
  // z is fully consumed; next_input may now alias it.
  tensor::matmul_into(workspace.f, h, weight_.value);
  activate_rows(activation_, workspace.f, out, out_stride, next_input, tape, h);
}

Tensor TagConv::backward(const SparseMatrix& prop, Tensor grad_output, Tape& tape,
                         Gradients grads) const {
  check_gradients("TagConv::backward", grads, 1);
  const Tensor preact = tape.pop_tensor();
  const Tensor h = tape.pop_tensor();
  if (!grad_output.same_shape(preact)) {
    throw std::invalid_argument("TagConv::backward: grad shape mismatch");
  }
  check_propagation("TagConv::backward", prop, h);
  // dS = dY * f'(S); dW += H^T dS; dH = dS W^T.
  Tensor& ds = grad_output;
  apply_activation_grad(activation_, ds.data(), preact.data(), ds.size());
  grads[0] += tensor::matmul_tn(h, ds);
  const Tensor dh = tensor::matmul_nt(ds, weight_.value);
  // dZ = sum_k (P^T)^k dH_k, evaluated with Horner's scheme innermost-out:
  // acc = dH_K; acc = dH_k + P^T acc for k = K-1 .. 0.
  Tensor acc = copy_block(dh, hops_ * in_, in_);
  for (std::size_t k = hops_; k-- > 0;) {
    Tensor lifted = prop.multiply_transposed(acc);
    acc = copy_block(dh, k * in_, in_);
    acc += lifted;
  }
  return acc;
}

// ---- Factory --------------------------------------------------------------

std::unique_ptr<GraphConvOp> make_graph_conv_op(const GraphConvOpOptions& options,
                                                std::size_t in_channels,
                                                std::size_t out_channels,
                                                Activation activation,
                                                util::Rng& rng) {
  switch (options.kind) {
    case GraphConvOperator::Paper:
      return std::make_unique<PaperGraphConv>(in_channels, out_channels,
                                              activation, rng);
    case GraphConvOperator::Sage:
      return std::make_unique<SageConv>(in_channels, out_channels, activation,
                                        rng);
    case GraphConvOperator::Tag:
      return std::make_unique<TagConv>(in_channels, out_channels,
                                       options.tag_hops, activation, rng);
  }
  throw std::invalid_argument("make_graph_conv_op: unknown operator");
}

// ---- GraphConvStack -------------------------------------------------------

GraphConvStack::GraphConvStack(const GraphConvStackConfig& config, util::Rng& rng)
    : op_options_(config.op) {
  if (config.channels.empty()) {
    throw std::invalid_argument("GraphConvStack: at least one layer required");
  }
  std::size_t prev = config.in_channels;
  layers_.reserve(config.channels.size());
  for (std::size_t c : config.channels) {
    if (c == 0) throw std::invalid_argument("GraphConvStack: zero-width layer");
    layers_.push_back(
        make_graph_conv_op(config.op, prev, c, config.activation, rng));
    prev = c;
    total_channels_ += c;
  }
}

Tensor GraphConvStack::forward(const SparseMatrix& prop, const Tensor& x,
                               InferenceWorkspace& workspace, Tape* tape) const {
  MAGIC_SHAPE_CONTRACT("GraphConvStack::forward", x, shape::any("n"),
                       shape::eq(layers_.front()->in_channels()));
  Tensor concat({x.dim(0), total_channels_});  // zero-init = spmm accumulator
  const Tensor* zin = &x;
  std::size_t offset = 0;
  for (std::size_t t = 0; t < layers_.size(); ++t) {
    const GraphConvOp& layer = *layers_[t];
    const bool last = t + 1 == layers_.size();
    layer.forward(prop, *zin, workspace, concat.data() + offset, total_channels_,
                  last ? nullptr : &workspace.z, tape);
    offset += layer.out_channels();
    zin = &workspace.z;
  }
  return concat;
}

Tensor GraphConvStack::backward(const SparseMatrix& prop, Tensor grad_concat,
                                Tape& tape, Gradients grads) const {
  check_gradients("GraphConvStack::backward", grads, layers_.size());
  if (grad_concat.rank() != 2 || grad_concat.dim(0) != prop.rows() ||
      grad_concat.dim(1) != total_channels_) {
    throw std::invalid_argument("GraphConvStack::backward: grad shape mismatch");
  }
  // Each Z_t receives gradient both from the concat and from layer t+1.
  std::size_t offset = total_channels_;
  Tensor g;
  for (std::size_t t = layers_.size(); t-- > 0;) {
    const std::size_t c = layers_[t]->out_channels();
    offset -= c;
    Tensor slice = copy_block(grad_concat, offset, c);
    if (t + 1 < layers_.size()) slice += g;
    g = layers_[t]->backward(prop, std::move(slice), tape, grads.subspan(t, 1));
  }
  return g;  // gradient w.r.t. the original attribute matrix X
}

std::vector<Parameter*> GraphConvStack::parameters() {
  std::vector<Parameter*> params;
  params.reserve(layers_.size());
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

}  // namespace magic::nn

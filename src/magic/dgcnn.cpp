#include "magic/dgcnn.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "nn/reshape.hpp"
#include "nn/shape_contract.hpp"

namespace magic::core {

std::size_t DgcnnConfig::total_graph_channels() const {
  std::size_t total = 0;
  for (std::size_t c : graph_conv_channels) total += c;
  return total;
}

nn::GraphConvStackConfig DgcnnConfig::graph_conv_stack_config() const {
  nn::GraphConvStackConfig sc;
  sc.in_channels = input_channels;
  sc.channels = graph_conv_channels;
  sc.activation = graph_conv_activation;
  sc.op.kind = graph_conv_op;
  sc.op.tag_hops = tag_hops;
  return sc;
}

std::size_t DgcnnConfig::adaptive_grid() const {
  // Ratio -> grid side. Floor of 3: a 2x2 grid retains too little of the
  // Z^{1:h} map for multi-family classification (the paper leaves the exact
  // mapping unspecified).
  const auto g = static_cast<std::size_t>(std::llround(10.0 * pooling_ratio));
  return g < 3 ? 3 : g;
}

std::string DgcnnConfig::describe() const {
  std::ostringstream oss;
  oss << (pooling == PoolingType::AdaptivePooling ? "AMP" : "SortPool");
  oss << " ratio=" << pooling_ratio;
  oss << " gc=(";
  for (std::size_t i = 0; i < graph_conv_channels.size(); ++i) {
    if (i) oss << ',';
    oss << graph_conv_channels[i];
  }
  oss << ")";
  oss << " op=" << nn::graph_conv_operator_name(graph_conv_op);
  if (graph_conv_op == nn::GraphConvOperator::Tag) oss << ':' << tag_hops;
  if (pooling == PoolingType::SortPooling) {
    if (remaining == RemainingLayer::Conv1D) {
      oss << " conv1d(k=" << conv1d_kernel << ")";
    } else {
      oss << " wv";
    }
  } else {
    oss << " c2d=" << conv2d_channels;
  }
  oss << " do=" << dropout_rate;
  return oss.str();
}

DgcnnModel::DgcnnModel(DgcnnConfig cfg, util::Rng& rng, std::size_t sort_k_hint)
    : cfg_(cfg), stack_(cfg.graph_conv_stack_config(), rng) {
  if (cfg_.num_classes < 2) {
    throw std::invalid_argument("DgcnnModel: at least two classes required");
  }
  const std::size_t C = cfg_.total_graph_channels();
  std::size_t flat_dim = 0;

  if (cfg_.pooling == PoolingType::SortPooling) {
    sort_k_ = cfg_.sort_k != 0 ? cfg_.sort_k : sort_k_hint;
    if (sort_k_ < 4) sort_k_ = 4;
    sort_pool_ = std::make_unique<nn::SortPooling>(sort_k_);

    if (cfg_.remaining == RemainingLayer::Conv1D) {
      // Original DGCNN head: Conv1D over the flattened (k x C) descriptor
      // with kernel = stride = C (one vertex per step), max-pool, then a
      // small-kernel Conv1D (§III-A4).
      head_.emplace<nn::FixedReshape>(tensor::Shape{1, sort_k_ * C});
      head_.emplace<nn::Conv1D>(1, cfg_.conv1d_channels_first, C, C, rng);
      head_.emplace<nn::ReLU>();
      const std::size_t l1 = sort_k_;
      const std::size_t l2 = (l1 - 2) / 2 + 1;
      head_.emplace<nn::MaxPool1D>(2, 2);
      const std::size_t k2 = std::min(cfg_.conv1d_kernel, l2);
      head_.emplace<nn::Conv1D>(cfg_.conv1d_channels_first,
                                cfg_.conv1d_channels_second, k2, 1, rng);
      head_.emplace<nn::ReLU>();
      const std::size_t l3 = l2 - k2 + 1;
      flat_dim = cfg_.conv1d_channels_second * l3;
      head_.emplace<nn::Flatten>();
    } else {
      // The paper's WeightedVertices extension (Eq. 3-4): a learned
      // weighted sum of the k kept vertex embeddings.
      head_.emplace<nn::WeightedVertices>(sort_k_, nn::Activation::ReLU, rng);
      flat_dim = C;
    }
  } else {
    // AdaptiveMaxPooling path (§III-C): Conv2D over Z^{1:h} viewed as a
    // one-channel image, adaptive max pool to a fixed grid, then a
    // VGG-inspired Conv2D stack.
    const std::size_t g = cfg_.adaptive_grid();
    const std::size_t f = cfg_.conv2d_channels;
    conv_pool_ = std::make_unique<nn::AdaptiveConvPool>(f, g, rng);
    head_.emplace<nn::Conv2D>(f, 2 * f, 3, 3, 1, rng);
    head_.emplace<nn::ReLU>();
    head_.emplace<nn::Conv2D>(2 * f, 2 * f, 3, 3, 1, rng);
    head_.emplace<nn::ReLU>();
    flat_dim = 2 * f * g * g;
    head_.emplace<nn::Flatten>();
  }

  head_.emplace<nn::Linear>(flat_dim, cfg_.hidden_dim, rng);
  head_.emplace<nn::ReLU>();
  head_.emplace<nn::Dropout>(cfg_.dropout_rate, rng);
  head_.emplace<nn::Linear>(cfg_.hidden_dim, cfg_.num_classes, rng);
  head_.emplace<nn::LogSoftmax>();
}

nn::Tensor DgcnnModel::forward(const GraphBatch& batch,
                               nn::InferenceWorkspace& workspace,
                               nn::Tape* tape) const {
  // The packed attribute matrix must be (total x input_channels); the
  // contract names the model on mismatch, the plain throw below keeps it a
  // hard error in unchecked builds too.
  MAGIC_SHAPE_CONTRACT("DgcnnModel::forward", batch.attributes(),
                       nn::shape::at_least("n", 1),
                       nn::shape::eq(cfg_.input_channels));
  if (batch.num_channels() != cfg_.input_channels) {
    throw std::invalid_argument("DgcnnModel::forward: channel mismatch");
  }
  // Packed preprocessing: log1p is elementwise, so scaling the concatenated
  // attribute matrix equals scaling each graph.
  nn::Tensor x = batch.attributes();
  if (cfg_.log1p_attributes) {
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::log1p(x[i]);
  }
  // One block-diagonal spmm per graph-conv layer covers all N graphs.
  tensor::SparseMatrix prop = batch.propagation_operator(cfg_.normalize_propagation);
  nn::Tensor z = stack_.forward(prop, x, workspace, tape);
  // Per-graph pooling to fixed-size maps, then one head pass over the batch.
  nn::Tensor pooled = sort_pool_ ? sort_pool_->forward(z, batch.offsets(), tape)
                                 : conv_pool_->forward(std::move(z), batch.offsets(), tape);
  nn::Tensor log_probs = head_.forward(std::move(pooled), tape);
  // Backward needs P again: the tape owns it from here on.
  if (tape != nullptr) tape->push(std::move(prop));
  return log_probs;
}

nn::Tensor DgcnnModel::backward(const nn::Tensor& grad_log_probs, nn::Tape& tape,
                                nn::Gradients grads) const {
  if (grad_log_probs.rank() != 2 || grad_log_probs.dim(0) != 1 ||
      grad_log_probs.dim(1) != cfg_.num_classes) {
    throw std::invalid_argument(
        "DgcnnModel::backward: expected the (1 x classes) gradient of a "
        "one-graph batch, got " + grad_log_probs.describe());
  }
  const std::size_t depth = stack_.depth();
  const std::size_t pool_params = conv_pool_ ? 2 : 0;
  if (grads.size() < depth + pool_params) {
    throw std::invalid_argument("DgcnnModel::backward: gradient buffer too small");
  }
  const tensor::SparseMatrix prop = tape.pop_operator();
  nn::Tensor g = head_.backward(grad_log_probs, tape, grads.subspan(depth + pool_params));
  g = sort_pool_ ? sort_pool_->backward(std::move(g), tape)
                 : conv_pool_->backward(std::move(g), tape, grads.subspan(depth, 2));
  return stack_.backward(prop, std::move(g), tape, grads.first(depth));
}

std::vector<nn::Parameter*> DgcnnModel::parameters() {
  std::vector<nn::Parameter*> params = stack_.parameters();
  if (conv_pool_) {
    for (auto* p : conv_pool_->parameters()) params.push_back(p);
  }
  for (auto* p : head_.parameters()) params.push_back(p);
  return params;
}

std::vector<const nn::Parameter*> DgcnnModel::parameters() const {
  // parameters() only collects pointers; this hands the same list out
  // read-only.
  const std::vector<nn::Parameter*> params =
      const_cast<DgcnnModel*>(this)->parameters();
  return {params.begin(), params.end()};
}

std::size_t DgcnnModel::parameter_count() const {
  std::size_t total = 0;
  for (auto* p : parameters()) total += p->value.size();
  return total;
}

}  // namespace magic::core

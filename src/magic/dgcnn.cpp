#include "magic/dgcnn.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "nn/reshape.hpp"
#include "nn/shape_contract.hpp"
#include "util/check.hpp"

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

nn::Tensor DgcnnModel::preprocess(const acfg::Acfg& sample) const {
  nn::Tensor x = sample.attributes;
  if (cfg_.log1p_attributes) {
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::log1p(x[i]);
  }
  return x;
}

namespace {

/// RAII clear for the concurrent-forward guard flag (exception safe).
struct ForwardGuardClear {
  std::atomic<bool>* flag;
  ~ForwardGuardClear() { flag->store(false, std::memory_order_release); }
};

}  // namespace

nn::Tensor DgcnnModel::forward(const acfg::Acfg& sample) {
#ifdef MAGIC_CHECKED_BUILD
  // One instance, one thread: forward() caches activations in the layers.
  // If the flag was already set another thread owns it, so throw *without*
  // installing the clearing guard.
  const bool already_running = in_forward_.exchange(true, std::memory_order_acq_rel);
  MAGIC_CHECK(!already_running,
              "DgcnnModel::forward: concurrent forward on one model instance; "
              "score concurrently through predict_batch");
  ForwardGuardClear forward_guard{&in_forward_};
#endif
  if (sample.num_vertices() == 0) {
    throw std::invalid_argument("DgcnnModel::forward: empty graph");
  }
  // The attribute matrix must be (n x input_channels) with one row per
  // vertex; the contract names the layer on mismatch, the plain throws
  // below keep invalid input hard errors in unchecked builds too.
  MAGIC_SHAPE_CONTRACT("DgcnnModel::forward", sample.attributes,
                       nn::shape::eq(sample.num_vertices()),
                       nn::shape::eq(cfg_.input_channels));
  if (sample.num_channels() != cfg_.input_channels) {
    throw std::invalid_argument("DgcnnModel::forward: channel mismatch");
  }
  last_prop_ = std::make_unique<tensor::SparseMatrix>(
      cfg_.normalize_propagation
          ? sample.propagation_operator()
          : tensor::SparseMatrix::augmented_adjacency(sample.out_edges));
  const nn::Tensor x = preprocess(sample);
  const nn::Tensor z = stack_.forward(*last_prop_, x);
  if (cfg_.pooling == PoolingType::SortPooling) {
    return head_.forward(sort_pool_->forward(z));
  }
  return head_.forward(conv_pool_->forward(z));
}

nn::Tensor DgcnnModel::predict_batch(const GraphBatch& batch,
                                     nn::InferenceWorkspace& workspace) const {
  if (batch.num_channels() != cfg_.input_channels) {
    throw std::invalid_argument("DgcnnModel::predict_batch: channel mismatch");
  }
  // Packed preprocessing: log1p is elementwise, so scaling the concatenated
  // attribute matrix equals scaling each graph.
  nn::Tensor x = batch.attributes();
  if (cfg_.log1p_attributes) {
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::log1p(x[i]);
  }
  // One block-diagonal spmm per graph-conv layer covers all N graphs.
  const tensor::SparseMatrix prop =
      batch.propagation_operator(cfg_.normalize_propagation);
  const nn::Tensor z = stack_.forward_inference(prop, x, workspace);

  // The pooling stages sit behind unique_ptrs, which do not propagate
  // const; going through const references keeps this path compiler-checked.
  if (cfg_.pooling == PoolingType::SortPooling) {
    // Per-segment pooling into (N x k x C), then one fused head pass.
    const nn::SortPooling& sort_pool = *sort_pool_;
    return head_.forward_batch(sort_pool.forward_packed(z, batch.offsets()));
  }
  // AdaptivePooling path: the pre-pool stage reads each graph's rows of the
  // packed Z in place (their heights differ); the pooled (f x g x g) maps
  // are fixed-size and batch from there on.
  const nn::AdaptiveConvPool& conv_pool = *conv_pool_;
  const std::size_t c = z.dim(1);
  const std::size_t f = conv_pool.channels();
  const std::size_t g = conv_pool.grid();
  nn::Tensor pooled({batch.size(), f, g, g});
  for (std::size_t i = 0; i < batch.size(); ++i) {
    conv_pool.forward_into(z.data() + batch.offset(i) * c, batch.vertices(i), c,
                           pooled.data() + i * f * g * g);
  }
  return head_.forward_batch(pooled);
}

void DgcnnModel::backward(const nn::Tensor& grad_log_probs) {
  nn::Tensor g = head_.backward(grad_log_probs);
  if (cfg_.pooling == PoolingType::SortPooling) {
    g = sort_pool_->backward(g);
  } else {
    g = conv_pool_->backward(g);
  }
  last_input_grad_ = stack_.backward(g);
}

std::vector<nn::Parameter*> DgcnnModel::parameters() {
  std::vector<nn::Parameter*> params = stack_.parameters();
  if (conv_pool_) {
    for (auto* p : conv_pool_->parameters()) params.push_back(p);
  }
  for (auto* p : head_.parameters()) params.push_back(p);
  return params;
}

void DgcnnModel::set_training(bool training) {
  head_.set_training(training);
  set_grad_enabled(training);
}

void DgcnnModel::set_grad_enabled(bool enabled) {
  stack_.set_grad_enabled(enabled);
  if (sort_pool_) sort_pool_->set_grad_enabled(enabled);
  if (conv_pool_) conv_pool_->set_grad_enabled(enabled);
  head_.set_grad_enabled(enabled);
}

void DgcnnModel::reseed_rng(std::uint64_t seed) { head_.reseed_rng(seed); }

std::size_t DgcnnModel::parameter_count() {
  std::size_t total = 0;
  for (auto* p : parameters()) total += p->value.size();
  return total;
}

}  // namespace magic::core

#pragma once
// The extended DGCNN of the paper (§III): graph convolution stack ->
// {SortPooling -> Conv1D | SortPooling -> WeightedVertices |
//  Conv2D -> AdaptiveMaxPooling -> VGG-style Conv2D stack} -> MLP ->
// LogSoftmax.
//
// The model is a const function of its weights with one forward and one
// backward. forward() scores a packed block-diagonal batch of N graphs in
// one pass (see magic/graph_batch.hpp), keeping its per-call scratch in a
// caller-owned nn::InferenceWorkspace; given an nn::Tape it also records
// what backward() needs, so training runs the very forward inference runs.
// Training processes one graph at a time (CFGs vary in size); batching is
// gradient accumulation across consecutive backward calls, which is
// mathematically identical to minibatch SGD for a sum loss.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "acfg/acfg.hpp"
#include "magic/graph_batch.hpp"
#include "nn/activations.hpp"
#include "nn/adaptive_conv_pool.hpp"
#include "nn/conv1d.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "nn/graph_conv.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/max_pool1d.hpp"
#include "nn/sequential.hpp"
#include "nn/sort_pooling.hpp"
#include "nn/weighted_vertices.hpp"
#include "util/rng.hpp"

namespace magic::core {

/// Pooling stage choice (Table II "Pooling Type").
enum class PoolingType { SortPooling, AdaptivePooling };

/// Layer following SortPooling (Table II "Remaining Layer").
enum class RemainingLayer { Conv1D, WeightedVertices };

/// Full hyper-parameter set of one DGCNN variant (Table II rows).
struct DgcnnConfig {
  std::size_t input_channels = 11;   // Table I attribute count
  std::size_t num_classes = 2;

  std::vector<std::size_t> graph_conv_channels = {32, 32, 32, 32};
  nn::Activation graph_conv_activation = nn::Activation::ReLU;
  /// Which member of the convolution zoo every stack layer runs
  /// (nn::GraphConvOperator::{Paper, Sage, Tag}; checkpoint token "op").
  nn::GraphConvOperator graph_conv_op = nn::GraphConvOperator::Paper;
  /// TagConv only: number of propagation hops K (>= 1; checkpoint token
  /// "tag_hops"). Ignored by the other operators.
  std::size_t tag_hops = 2;

  PoolingType pooling = PoolingType::AdaptivePooling;
  /// SortPooling: fraction controlling k (k = the vertex count at the
  /// (1 - ratio) percentile of training-set graph sizes, floor 4).
  /// AdaptivePooling: controls the output grid (max(2, round(10 * ratio))).
  double pooling_ratio = 0.64;
  /// Explicit k override; 0 = derive from ratio at build time.
  std::size_t sort_k = 0;

  RemainingLayer remaining = RemainingLayer::Conv1D;  // SortPooling only
  std::size_t conv1d_channels_first = 16;             // Table II pair (16, 32)
  std::size_t conv1d_channels_second = 32;
  std::size_t conv1d_kernel = 5;                      // {5, 7}

  std::size_t conv2d_channels = 16;  // AdaptivePooling only; {16, 32}

  std::size_t hidden_dim = 128;
  double dropout_rate = 0.1;  // {0.1, 0.5}

  /// log1p-scale raw attributes before the first layer; keeps deep ReLU
  /// stacks numerically tame on large basic blocks. Ablated in
  /// bench_ablation.
  bool log1p_attributes = true;

  /// Use D^-1 (A + I) as in Eq. 1; false uses the unnormalized A + I
  /// (degree-normalization ablation, bench_ablation).
  bool normalize_propagation = true;

  /// Total feature channels after the graph convolution stack. Every zoo
  /// operator emits exactly its configured layer width (wider operators
  /// widen the weight, not the output), so this is the channel sum for all
  /// of them.
  std::size_t total_graph_channels() const;
  /// The stack-construction view of this config (operator, channels,
  /// activation in one struct) — the single source for DgcnnModel and any
  /// direct GraphConvStack builder.
  nn::GraphConvStackConfig graph_conv_stack_config() const;
  /// Adaptive pooling grid side derived from pooling_ratio.
  std::size_t adaptive_grid() const;
  /// Short description like "AMP g6 gc=(128,64,32,32) do=0.1".
  std::string describe() const;
};

/// The assembled network.
class DgcnnModel {
 public:
  /// `sort_k_hint`: the k to use when cfg.sort_k == 0 (callers derive it
  /// from the training distribution; MagicClassifier does this for you).
  DgcnnModel(DgcnnConfig cfg, util::Rng& rng, std::size_t sort_k_hint = 16);

  /// Log-probabilities for every graph in `batch`, shape (N x num_classes).
  ///
  /// Reads only the weights: every per-call buffer lives in `workspace`
  /// and, with a tape, every record backward() needs (the propagation
  /// operator included) on `tape`. Any number of threads may call this at
  /// once, each with its own workspace and tape, while no thread mutates
  /// the parameters. A seeded tape trains (dropout masks from its seed); an
  /// unseeded tape or none evaluates.
  nn::Tensor forward(const GraphBatch& batch, nn::InferenceWorkspace& workspace,
                     nn::Tape* tape = nullptr) const;

  /// Backward through a tape recorded over a one-graph batch, from
  /// d(loss)/d(log_probs) (1 x num_classes): adds the parameter gradients
  /// into `grads` (parameters() order) and returns d(loss)/d(attributes)
  /// in the preprocessed (post-log1p) space, shape (n x channels), the
  /// basis of per-block saliency (MagicClassifier::explain). A tape
  /// recorded over more than one graph throws std::invalid_argument.
  nn::Tensor backward(const nn::Tensor& grad_log_probs, nn::Tape& tape,
                      nn::Gradients grads) const;

  /// Every learnable tensor, in checkpoint order.
  std::vector<nn::Parameter*> parameters();
  std::vector<const nn::Parameter*> parameters() const;

  const DgcnnConfig& config() const noexcept { return cfg_; }
  std::size_t sort_k() const noexcept { return sort_k_; }

  /// Total scalar parameter count.
  std::size_t parameter_count() const;

 private:
  DgcnnConfig cfg_;
  std::size_t sort_k_ = 0;
  nn::GraphConvStack stack_;

  // SortPooling path.
  std::unique_ptr<nn::SortPooling> sort_pool_;
  // AdaptivePooling path: the fused pre-pool Conv2D -> ReLU -> pooling.
  std::unique_ptr<nn::AdaptiveConvPool> conv_pool_;

  // Everything after pooling, expressed over reshaped tensors.
  nn::Sequential head_;
};

}  // namespace magic::core

#pragma once
// The extended DGCNN of the paper (§III): graph convolution stack ->
// {SortPooling -> Conv1D | SortPooling -> WeightedVertices |
//  Conv2D -> AdaptiveMaxPooling -> VGG-style Conv2D stack} -> MLP ->
// LogSoftmax.
//
// Training processes one graph at a time (CFGs vary in size); batching is
// gradient accumulation across consecutive forward/backward calls, which is
// mathematically identical to minibatch SGD for a sum loss. Inference is
// predict_batch(): a const, packed block-diagonal forward that scores N
// graphs in one pass (see magic/graph_batch.hpp) and keeps its per-call
// scratch in a caller-owned nn::InferenceWorkspace.

#include <atomic>
#include <memory>
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

  /// Log-probabilities over families for one graph: the training-time
  /// path.
  ///
  /// NOT const and NOT thread-safe: activations are cached in the layers
  /// for backward(), so one model instance must be driven by at most one
  /// thread at a time. Checked builds enforce the contract: a concurrent
  /// entry throws util::CheckError. Concurrent scoring uses predict_batch.
  nn::Tensor forward(const acfg::Acfg& sample);

  /// Packed-batch inference: log-probabilities for every graph in `batch`,
  /// shape (N x num_classes), row i matching eval-mode forward(graphs[i])
  /// to within floating-point reassociation (bitwise for a pack of one on
  /// the AdaptivePooling path).
  ///
  /// Const and modeless: eval semantics whatever set_training says, reads
  /// only the weights, and leaves forward()'s caches untouched, so it may
  /// run between a training forward() and its backward(). Every per-call
  /// buffer lives in `workspace`; any number of threads may call this at
  /// once, each with its own workspace, while no thread mutates the model.
  nn::Tensor predict_batch(const GraphBatch& batch,
                           nn::InferenceWorkspace& workspace) const;

  /// True while a forward() is in flight (the checked-mode concurrency
  /// guard's flag; test/diagnostic hook).
  bool forward_in_flight() const noexcept {
    return in_forward_.load(std::memory_order_acquire);
  }

  /// Backward from d(loss)/d(log_probs); accumulates parameter grads.
  void backward(const nn::Tensor& grad_log_probs);

  /// d(loss)/d(attribute matrix) from the last backward(), in the
  /// preprocessed (post-log1p) attribute space. Shape (n x channels).
  /// Basis of per-block saliency attribution (MagicClassifier::explain).
  const nn::Tensor& input_gradient() const noexcept { return last_input_grad_; }

  std::vector<nn::Parameter*> parameters();
  /// Also toggles grad caching: eval mode (false) skips the backward caches
  /// in every layer, so forward is allocation-lighter and a subsequent
  /// backward throws std::logic_error. Callers needing eval-mode gradients
  /// (saliency) re-enable via set_grad_enabled(true) after set_training.
  void set_training(bool training);
  /// Toggles backward caching independently of train/eval statistics mode.
  void set_grad_enabled(bool enabled);
  /// Reseeds every stochastic module (Dropout) so the mask stream depends
  /// only on the seed, not on how many samples this instance processed.
  /// The parallel trainer derives the seed from (run seed, epoch, sample).
  void reseed_rng(std::uint64_t seed);

  const DgcnnConfig& config() const noexcept { return cfg_; }
  std::size_t sort_k() const noexcept { return sort_k_; }

  /// Total scalar parameter count.
  std::size_t parameter_count();

 private:
  nn::Tensor preprocess(const acfg::Acfg& sample) const;

  DgcnnConfig cfg_;
  std::size_t sort_k_ = 0;
  nn::GraphConvStack stack_;

  // SortPooling path.
  std::unique_ptr<nn::SortPooling> sort_pool_;
  // AdaptivePooling path: the fused pre-pool Conv2D -> ReLU -> pooling.
  std::unique_ptr<nn::AdaptiveConvPool> conv_pool_;

  // Everything after pooling, expressed over reshaped tensors.
  nn::Sequential head_;

  // The propagation operator must outlive backward.
  std::unique_ptr<tensor::SparseMatrix> last_prop_;
  nn::Tensor last_input_grad_;

  // Checked-mode guard against concurrent forward() calls on one instance.
  std::atomic<bool> in_forward_{false};
};

}  // namespace magic::core

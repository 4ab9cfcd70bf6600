#pragma once
// Training loop for DgcnnModel: Adam on the mean negative log loss (Eq. 5),
// minibatch gradient accumulation, and the paper's learning-rate schedule
// (reduce by 10x after two consecutive epochs of increasing validation
// loss, §V-B).

#include <vector>

#include "data/dataset.hpp"
#include "magic/dgcnn.hpp"
#include "ml/metrics.hpp"

namespace magic::core {

struct TrainOptions {
  std::size_t epochs = 100;
  std::size_t batch_size = 10;   // Table II: {10, 40}
  double learning_rate = 1e-3;
  double weight_decay = 1e-4;    // Table II: {1e-4, 5e-4}
  std::size_t lr_patience = 2;   // consecutive val-loss increases before decay
  double lr_factor = 0.1;
  std::uint64_t seed = 7;
  bool verbose = false;
  /// Snapshot parameters at the best validation epoch and restore them
  /// after the last epoch (paper §V-B scores models at their minimum
  /// validation loss). No effect when the validation set is empty.
  bool restore_best = true;
  /// Family-balanced oversampling: each epoch draws |train| samples with
  /// replacement; the family is drawn with weight count^(1 - strength).
  /// Counters the heavy class imbalance of both corpora (Fig. 7/8) when the
  /// scaled-down minority families would otherwise contribute only a
  /// handful of gradient steps per epoch.
  bool balance_families = false;
  /// 0 = natural frequency, 0.5 = sqrt compromise, 1 = fully uniform.
  double balance_strength = 1.0;
  /// Worker threads for the data-parallel engine (0 = hardware
  /// concurrency). Per-sample gradients are reduced in fixed sample-index
  /// order, so the trained parameters and history are bitwise identical for
  /// every thread count, including 1 (see DESIGN.md "Training performance").
  std::size_t threads = 1;
};

/// Per-epoch record of one training run.
struct EpochStats {
  double train_loss = 0.0;
  double validation_loss = 0.0;
  double validation_accuracy = 0.0;
};

/// Outcome of a full training run.
struct TrainResult {
  std::vector<EpochStats> history;
  double best_validation_loss = 0.0;
  std::size_t best_epoch = 0;
};

/// Evaluation of a model over an index subset.
struct EvalResult {
  double mean_log_loss = 0.0;
  ml::ConfusionMatrix confusion;
  std::vector<std::vector<double>> probabilities;  // per evaluated sample
  std::vector<std::size_t> labels;
};

/// Trains `model` on dataset[train_indices], validating after each epoch on
/// dataset[val_indices] (validation may be empty: lr schedule then follows
/// the training loss).
TrainResult train_model(DgcnnModel& model, const data::Dataset& dataset,
                        const std::vector<std::size_t>& train_indices,
                        const std::vector<std::size_t>& val_indices,
                        const TrainOptions& options);

/// Log loss and confusion over dataset[indices]: one const forward per
/// graph, spread over `threads` lanes (0 = hardware concurrency). Rows are
/// stored by sample position, so the result does not depend on `threads`.
EvalResult evaluate_model(const DgcnnModel& model, const data::Dataset& dataset,
                          const std::vector<std::size_t>& indices,
                          std::size_t threads = 1);

}  // namespace magic::core

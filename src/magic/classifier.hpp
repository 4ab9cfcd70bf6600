#pragma once
// MagicClassifier: the public end-to-end API of the system.
//
// Mirrors the deployment story of §VII: train on a labelled ACFG corpus,
// then classify unknown programs given either their ACFG or their raw
// disassembly listing (the CFG/ACFG extraction happens inside). Models can
// be saved and loaded, so a cloud-trained model can ship to clients.
//
// Inference surface: classify(span, PredictOptions) is the single entry
// point. It is const and thread-safe: every call packs its graphs into
// block-diagonal batches and scores them through the one shared model with
// DgcnnModel::forward, keeping all per-call scratch in workspaces it owns.
// predict / predict_listing are classify() of one graph; explain() and
// evaluate() are const too.

#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "acfg/acfg.hpp"
#include "data/dataset.hpp"
#include "magic/dgcnn.hpp"
#include "magic/graph_batch.hpp"
#include "magic/trainer.hpp"
#include "nn/graph_conv.hpp"

namespace magic::core {

/// Options for MagicClassifier::classify().
struct PredictOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency(). At most one
  /// worker per pack is started. Results do not depend on this value.
  std::size_t threads = 1;
  /// Graphs are grouped greedily into packs until the next graph would
  /// push the pack past this many total vertices (a single oversized graph
  /// still forms its own pack). Bounds peak memory of the packed
  /// activations. Must be >= 1.
  std::size_t max_pack_vertices = 4096;
};

/// One prediction: the winning family plus the full distribution.
struct Prediction {
  std::size_t family_index = 0;
  std::string family_name;
  std::vector<double> probabilities;
};

/// Gradient-based attribution of one prediction: which basic blocks (and
/// which Table I attribute channels) pushed the model toward its verdict.
struct Explanation {
  Prediction prediction;
  /// Per-vertex saliency: L2 norm of d(log p_predicted)/d(attributes_v).
  /// Larger = this block mattered more. Sums normalized to 1.
  std::vector<double> vertex_saliency;
  /// Per-channel saliency aggregated over vertices (normalized to 1).
  std::vector<double> channel_saliency;
};

/// Trainable + queryable malware family classifier.
class MagicClassifier {
 public:
  /// Configures but does not yet build the model (the SortPooling k depends
  /// on the training distribution and is derived in fit()).
  MagicClassifier(DgcnnConfig config, TrainOptions train_options = {},
                  std::uint64_t seed = 42);

  /// Move-only (the model is a unique resource).
  MagicClassifier(MagicClassifier&&) noexcept = default;
  MagicClassifier& operator=(MagicClassifier&&) noexcept = default;

  /// Trains on the whole dataset (with an internal stratified holdout for
  /// the lr-on-plateau schedule when `holdout_fraction` > 0).
  TrainResult fit(const data::Dataset& dataset, double holdout_fraction = 0.1);

  /// Trains with explicit train/validation index sets (cross-validation).
  TrainResult fit_indices(const data::Dataset& dataset,
                          const std::vector<std::size_t>& train_indices,
                          const std::vector<std::size_t>& val_indices);

  /// ---- Prediction surface ----------------------------------------------
  ///
  /// Every call below is const and reads only the weights, so any number
  /// of threads may score at once on one classifier, as long as no thread
  /// fits it meanwhile.

  /// Classifies `samples` in input order: the one inference path. Requires
  /// a fitted or loaded model.
  std::vector<Prediction> classify(std::span<const acfg::Acfg> samples,
                                   const PredictOptions& options = {}) const;

  /// Classifies one ACFG: classify() of a single sample.
  Prediction predict(const acfg::Acfg& sample) const;

  /// Full pipeline: assembly listing -> CFG -> ACFG -> prediction.
  Prediction predict_listing(std::string_view listing) const;

  /// Scores one pre-packed batch in a single fused forward, with its
  /// scratch in the caller's `workspace` (one per concurrent caller);
  /// returns one Prediction per packed graph. classify() and the serving
  /// layer's workers score through this.
  std::vector<Prediction> predict_packed(const GraphBatch& batch,
                                         nn::InferenceWorkspace& workspace) const;

  /// Classifies and attributes the verdict to basic blocks / attribute
  /// channels via input gradients (saliency). Analyst triage tooling: "which
  /// blocks made this look like Kelihos?". Backpropagates through its own
  /// eval-semantics tape and gradient buffer, so it reads only the weights
  /// and any number of threads may explain and classify at once.
  Explanation explain(const acfg::Acfg& sample) const;

  /// Evaluates on dataset[indices].
  EvalResult evaluate(const data::Dataset& dataset,
                      const std::vector<std::size_t>& indices) const;

  bool fitted() const noexcept { return model_ != nullptr; }
  const DgcnnConfig& config() const noexcept { return config_; }
  const std::vector<std::string>& family_names() const noexcept { return family_names_; }

  /// ---- Persistence -------------------------------------------------------
  ///
  /// One canonical surface: save(stream) / load(stream) define the text
  /// format ("MAGIC-MODEL v2": config, derived k, family names, every
  /// parameter tensor; see model_io.cpp). The path overloads open the file
  /// and delegate to the stream pair; save -> load -> predict is
  /// bit-reproducible.
  void save(std::ostream& os) const;
  void save(const std::string& path) const;
  static MagicClassifier load(std::istream& is);
  static MagicClassifier load(const std::string& path);

  /// Access for serialization/tests.
  DgcnnModel* model() noexcept { return model_.get(); }
  const DgcnnModel* model() const noexcept { return model_.get(); }

 private:
  friend MagicClassifier load_classifier(std::istream& is);

  /// Derives the SortPooling k from the training-set size distribution:
  /// the vertex count at the (1 - ratio) percentile, so that roughly
  /// ratio-fraction of training graphs fill all k slots.
  static std::size_t derive_sort_k(const data::Dataset& dataset,
                                   const std::vector<std::size_t>& train_indices,
                                   double ratio);

  /// Builds a Prediction from one row of class probabilities.
  Prediction make_prediction(const double* probs, std::size_t classes) const;

  DgcnnConfig config_;
  TrainOptions train_options_;
  std::uint64_t seed_;
  std::unique_ptr<DgcnnModel> model_;
  std::vector<std::string> family_names_;
};

}  // namespace magic::core

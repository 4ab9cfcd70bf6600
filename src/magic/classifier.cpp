#include "magic/classifier.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "acfg/extractor.hpp"
#include "util/thread_pool.hpp"

namespace magic::core {

MagicClassifier::MagicClassifier(DgcnnConfig config, TrainOptions train_options,
                                 std::uint64_t seed)
    : config_(config), train_options_(train_options), seed_(seed) {}

std::size_t MagicClassifier::derive_sort_k(const data::Dataset& dataset,
                                           const std::vector<std::size_t>& train_indices,
                                           double ratio) {
  data::Dataset train = dataset.subset(train_indices);
  const std::size_t k = train.vertex_count_percentile((1.0 - ratio) * 100.0);
  return k < 4 ? 4 : k;
}

TrainResult MagicClassifier::fit(const data::Dataset& dataset,
                                 double holdout_fraction) {
  std::vector<std::size_t> train_idx, val_idx;
  if (holdout_fraction > 0.0 && dataset.size() >= 20) {
    util::Rng rng(seed_ ^ 0xA5A5A5A5ULL);
    data::FoldSplit split =
        data::stratified_holdout(dataset, 1.0 - holdout_fraction, rng);
    train_idx = std::move(split.train);
    val_idx = std::move(split.validation);
  } else {
    train_idx.resize(dataset.size());
    for (std::size_t i = 0; i < dataset.size(); ++i) train_idx[i] = i;
  }
  return fit_indices(dataset, train_idx, val_idx);
}

TrainResult MagicClassifier::fit_indices(const data::Dataset& dataset,
                                         const std::vector<std::size_t>& train_indices,
                                         const std::vector<std::size_t>& val_indices) {
  family_names_ = dataset.family_names;
  config_.num_classes = dataset.num_families();
  util::Rng rng(seed_);
  const std::size_t k =
      derive_sort_k(dataset, train_indices, config_.pooling_ratio);
  model_ = std::make_unique<DgcnnModel>(config_, rng, k);
  return train_model(*model_, dataset, train_indices, val_indices, train_options_);
}

Prediction MagicClassifier::make_prediction(const double* probs,
                                            std::size_t classes) const {
  Prediction pred;
  // First maximum wins on ties, exactly like tensor::argmax.
  for (std::size_t j = 1; j < classes; ++j) {
    if (probs[j] > probs[pred.family_index]) pred.family_index = j;
  }
  pred.family_name = pred.family_index < family_names_.size()
                         ? family_names_[pred.family_index]
                         : std::to_string(pred.family_index);
  pred.probabilities.assign(probs, probs + classes);
  return pred;
}

std::vector<Prediction> MagicClassifier::predict_packed(
    const GraphBatch& batch, nn::InferenceWorkspace& workspace) const {
  if (!fitted()) throw std::logic_error("MagicClassifier::predict_packed: not fitted");
  // unique_ptr does not propagate const: score through a const reference
  // so the compiler checks that inference never mutates the model.
  const DgcnnModel& model = *model_;
  const nn::Tensor log_probs = model.forward(batch, workspace);  // (N x classes)
  const std::size_t classes = log_probs.dim(1);
  std::vector<Prediction> preds;
  preds.reserve(batch.size());
  std::vector<double> probs(classes);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const double* row = log_probs.data() + i * classes;
    for (std::size_t j = 0; j < classes; ++j) probs[j] = std::exp(row[j]);
    preds.push_back(make_prediction(probs.data(), classes));
  }
  return preds;
}

std::vector<Prediction> MagicClassifier::classify(
    std::span<const acfg::Acfg> samples, const PredictOptions& options) const {
  if (!fitted()) throw std::logic_error("MagicClassifier::classify: not fitted");
  if (options.max_pack_vertices == 0) {
    throw std::invalid_argument(
        "MagicClassifier::classify: max_pack_vertices must be >= 1");
  }
  std::vector<Prediction> results(samples.size());
  if (samples.empty()) return results;

  // Greedy vertex-budget packs: contiguous [begin, end) ranges of samples.
  std::vector<std::pair<std::size_t, std::size_t>> packs;
  std::size_t begin = 0, budget = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::size_t n = samples[i].num_vertices();
    if (i > begin && budget + n > options.max_pack_vertices) {
      packs.emplace_back(begin, i);
      begin = i;
      budget = 0;
    }
    budget += n;
  }
  packs.emplace_back(begin, samples.size());

  auto score = [&](std::size_t p, nn::InferenceWorkspace& workspace) {
    const auto [first, end] = packs[p];
    const GraphBatch batch = GraphBatch::pack(samples.subspan(first, end - first));
    std::vector<Prediction> preds = predict_packed(batch, workspace);
    for (std::size_t j = 0; j < preds.size(); ++j) {
      results[first + j] = std::move(preds[j]);
    }
  };

  std::size_t threads =
      options.threads != 0
          ? options.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  threads = std::min(threads, packs.size());
  if (threads <= 1) {
    nn::InferenceWorkspace workspace;  // reused across this call's packs
    for (std::size_t p = 0; p < packs.size(); ++p) score(p, workspace);
    return results;
  }
  util::ThreadPool pool(threads);
  pool.parallel_for(packs.size(), [&](std::size_t p) {
    nn::InferenceWorkspace workspace;
    score(p, workspace);
  });
  return results;
}

Prediction MagicClassifier::predict(const acfg::Acfg& sample) const {
  return classify(std::span(&sample, 1)).front();
}

Prediction MagicClassifier::predict_listing(std::string_view listing) const {
  return predict(acfg::extract_acfg_from_listing(listing));
}

Explanation MagicClassifier::explain(const acfg::Acfg& sample) const {
  if (!fitted()) throw std::logic_error("MagicClassifier::explain: not fitted");
  const DgcnnModel& model = *model_;
  nn::InferenceWorkspace workspace;
  nn::Tape tape;  // unseeded: eval semantics, dropout is the identity
  const nn::Tensor log_probs =
      model.forward(GraphBatch::pack(std::span(&sample, 1)), workspace, &tape);
  const std::size_t winner = tensor::argmax(log_probs);
  // d(log p_winner)/d(inputs): seed the backward with a one-hot gradient.
  nn::Tensor seed = nn::Tensor::zeros(log_probs.shape());
  seed[winner] = 1.0;
  std::vector<nn::Tensor> grads = nn::zero_gradients(model.parameters());
  const nn::Tensor input_grad = model.backward(seed, tape, grads);

  Explanation out;
  out.prediction.family_index = winner;
  out.prediction.family_name = winner < family_names_.size()
                                   ? family_names_[winner]
                                   : std::to_string(winner);
  const nn::Tensor probs = nn::exp_probs(log_probs);
  out.prediction.probabilities.assign(probs.data(), probs.data() + probs.size());

  const std::size_t n = input_grad.dim(0);
  const std::size_t c = input_grad.dim(1);
  out.vertex_saliency.assign(n, 0.0);
  out.channel_saliency.assign(c, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < c; ++j) {
      const double g = input_grad[i * c + j];
      row += g * g;
      out.channel_saliency[j] += std::abs(g);
    }
    out.vertex_saliency[i] = std::sqrt(row);
  }
  auto normalize = [](std::vector<double>& v) {
    double total = 0.0;
    for (double x : v) total += x;
    if (total > 0.0) {
      for (double& x : v) x /= total;
    }
  };
  normalize(out.vertex_saliency);
  normalize(out.channel_saliency);
  return out;
}

EvalResult MagicClassifier::evaluate(const data::Dataset& dataset,
                                     const std::vector<std::size_t>& indices) const {
  if (!fitted()) throw std::logic_error("MagicClassifier::evaluate: not fitted");
  return evaluate_model(*model_, dataset, indices);
}

void MagicClassifier::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("MagicClassifier: cannot open " + path);
  save(out);
  if (!out) throw std::runtime_error("MagicClassifier: write failed for " + path);
}

MagicClassifier MagicClassifier::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("MagicClassifier: cannot open " + path);
  return load(in);
}

}  // namespace magic::core

#pragma once
// Fixtures for DGCNN/core tests: small synthetic ACFG datasets that are
// clearly separable, so training tests stay fast and deterministic.

#include <cstddef>
#include <span>
#include <vector>

#include "acfg/attributes.hpp"
#include "data/dataset.hpp"
#include "magic/classifier.hpp"
#include "nn/loss.hpp"
#include "util/rng.hpp"

namespace magic::core::testing {

/// One ACFG with `n` vertices: `chain` = path graph, otherwise a star from
/// vertex 0. The dominant attribute channel differs per label so even a
/// tiny model separates the classes.
inline acfg::Acfg make_graph(int label, std::size_t n, bool chain, util::Rng& rng) {
  acfg::Acfg a;
  a.label = label;
  a.out_edges.assign(n, {});
  if (chain) {
    for (std::size_t i = 0; i + 1 < n; ++i) a.out_edges[i].push_back(i + 1);
  } else {
    for (std::size_t i = 1; i < n; ++i) a.out_edges[0].push_back(i);
  }
  a.attributes = tensor::Tensor({n, static_cast<std::size_t>(acfg::kNumChannels)});
  for (std::size_t i = 0; i < n; ++i) {
    auto attr = [&](std::size_t c) -> double& {
      return a.attributes[i * acfg::kNumChannels + c];
    };
    attr(acfg::kTotalInsts) = 5.0 + rng.uniform(0, 2);
    attr(acfg::kVertexInsts) = attr(acfg::kTotalInsts);
    attr(acfg::kOffspring) = static_cast<double>(a.out_edges[i].size());
    if (label == 0) {
      attr(acfg::kArithmeticInsts) = 4.0 + rng.uniform(0, 1);
      attr(acfg::kMovInsts) = 0.5;
    } else {
      attr(acfg::kArithmeticInsts) = 0.5;
      attr(acfg::kMovInsts) = 4.0 + rng.uniform(0, 1);
    }
    attr(acfg::kNumericConstants) = rng.uniform(0, 3);
  }
  return a;
}

/// `per_class` chain-graphs of label 0 and star-graphs of label 1, with
/// vertex counts in [4, 10].
inline data::Dataset separable_dataset(std::size_t per_class, std::uint64_t seed) {
  data::Dataset d;
  d.family_names = {"arith_chain", "mov_star"};
  util::Rng rng(seed);
  for (std::size_t i = 0; i < per_class; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(4, 10));
    d.samples.push_back(make_graph(0, n, true, rng));
    const auto m = static_cast<std::size_t>(rng.uniform_int(4, 10));
    d.samples.push_back(make_graph(1, m, false, rng));
  }
  return d;
}

/// Log-probabilities (1 x classes) of one graph: DgcnnModel::forward over
/// a one-graph pack, recording on `tape` when it is non-null.
inline nn::Tensor forward_one(const DgcnnModel& model, const acfg::Acfg& graph,
                              nn::Tape* tape = nullptr) {
  nn::InferenceWorkspace workspace;
  return model.forward(GraphBatch::pack(std::span(&graph, 1)), workspace, tape);
}

/// The reference the packed-inference suites compare against: one graph
/// per forward, the way the trainer runs it.
inline std::vector<Prediction> eval_forward_predictions(
    const MagicClassifier& clf, std::span<const acfg::Acfg> graphs) {
  const DgcnnModel& model = *clf.model();
  std::vector<Prediction> out;
  out.reserve(graphs.size());
  for (const acfg::Acfg& g : graphs) {
    const nn::Tensor probs = nn::exp_probs(forward_one(model, g));
    Prediction p;
    p.family_index = tensor::argmax(probs);
    p.family_name = clf.family_names().at(p.family_index);
    p.probabilities.assign(probs.data(), probs.data() + probs.size());
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace magic::core::testing

// §V-E execution overhead: ACFG construction time per sample, classifier
// training time per instance, and prediction time per instance.
//
// Paper (Intel i7-6850K + GTX 1080 Ti): ~5.8 s/sample ACFG construction for
// MSKCFG binaries (graphs with thousands of blocks), 29.69 +/- 4.90 ms
// training per instance, 11.33 +/- 1.35 ms prediction per instance — and
// the conclusion that MAGIC "is actionable for online malware
// classification". Our synthetic samples are far smaller, so absolute
// numbers are smaller too; the claim under test is per-instance cost being
// in the online-usable range (milliseconds, not seconds).

#include <benchmark/benchmark.h>

#include <span>

#include "acfg/extractor.hpp"
#include "bench_util.hpp"
#include "data/corpus.hpp"
#include "data/program_generator.hpp"
#include "magic/trainer.hpp"
#include "ml/features.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace {

using namespace magic;

const std::vector<std::string>& sample_listings() {
  static const std::vector<std::string> listings = [] {
    std::vector<std::string> out;
    data::ProgramGenerator gen(data::mskcfg_family_specs()[2], util::Rng(1));
    for (int i = 0; i < 16; ++i) out.push_back(gen.generate_listing());
    return out;
  }();
  return listings;
}

const data::Dataset& small_dataset() {
  static const data::Dataset d = [] {
    util::ThreadPool pool(1);
    return data::mskcfg_like_corpus(0.002, 7, pool);
  }();
  return d;
}

core::DgcnnModel make_model(const data::Dataset& d) {
  core::DgcnnConfig cfg = bench::best_mskcfg_config();
  cfg.num_classes = d.num_families();
  util::Rng rng(3);
  return core::DgcnnModel(cfg, rng, 16);
}

/// ACFG construction: parse + tag + Algorithm 2 + Table I extraction.
void BM_AcfgConstruction(benchmark::State& state) {
  const auto& listings = sample_listings();
  std::size_t i = 0;
  std::size_t vertices = 0;
  for (auto _ : state) {
    acfg::Acfg a = acfg::extract_acfg_from_listing(listings[i++ % listings.size()]);
    vertices += a.num_vertices();
    benchmark::DoNotOptimize(a);
  }
  state.counters["blocks/graph"] =
      static_cast<double>(vertices) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_AcfgConstruction)->Unit(benchmark::kMillisecond);

/// Training: one forward + backward + (amortized) Adam step per instance,
/// mirroring the paper's "classifier training time per instance".
void BM_TrainingPerInstance(benchmark::State& state) {
  const data::Dataset& d = small_dataset();
  core::DgcnnModel model = make_model(d);
  nn::Adam adam(model.parameters(), 1e-3);
  std::vector<nn::Tensor> grads = nn::zero_gradients(model.parameters());
  nn::InferenceWorkspace workspace;
  const nn::NllLoss loss;
  std::size_t i = 0;
  for (auto _ : state) {
    const acfg::Acfg& sample = d.samples[i++ % d.size()];
    const auto label = static_cast<std::size_t>(sample.label);
    nn::Tape tape(i);  // seeded: training semantics, dropout active
    const nn::Tensor log_probs =
        model.forward(core::GraphBatch::pack(std::span(&sample, 1)), workspace, &tape);
    const nn::Tensor row = log_probs.reshape({log_probs.dim(1)});
    loss.forward(row, label);
    model.backward(loss.backward(row, label).reshape(log_probs.shape()), tape, grads);
    if (i % 10 == 0) {  // batch size 10 as in the best MSKCFG model
      adam.step(grads);
      for (nn::Tensor& g : grads) g.fill(0.0);
    }
  }
}
BENCHMARK(BM_TrainingPerInstance)->Unit(benchmark::kMillisecond);

/// Prediction: one inference forward (no tape) per instance.
void BM_PredictionPerInstance(benchmark::State& state) {
  const data::Dataset& d = small_dataset();
  const core::DgcnnModel model = make_model(d);
  nn::InferenceWorkspace workspace;
  std::size_t i = 0;
  for (auto _ : state) {
    const acfg::Acfg& sample = d.samples[i++ % d.size()];
    benchmark::DoNotOptimize(
        model.forward(core::GraphBatch::pack(std::span(&sample, 1)), workspace));
  }
}
BENCHMARK(BM_PredictionPerInstance)->Unit(benchmark::kMillisecond);

/// Aggregate-feature extraction (baseline pipelines).
void BM_AggregateFeatures(benchmark::State& state) {
  const data::Dataset& d = small_dataset();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::aggregate_features(d.samples[i++ % d.size()]));
  }
}
BENCHMARK(BM_AggregateFeatures)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== Section V-E: execution overhead ===\n"
            << "paper: ACFG build ~5.8 s/sample (graphs with thousands of\n"
            << "blocks), training 29.69 ms/instance, prediction 11.33\n"
            << "ms/instance. Synthetic graphs here are ~100x smaller, so\n"
            << "absolute times scale down accordingly.\n\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

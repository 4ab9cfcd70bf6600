#include "magic/parallel_trainer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace magic::core {

namespace {

// Compile-away gate for the phase-timing instrumentation: with MAGIC_OBS
// off every `if constexpr (kObsCompiled)` block vanishes and the trainer is
// byte-for-byte the uninstrumented engine.
#ifdef MAGIC_OBS_BUILD
constexpr bool kObsCompiled = true;
#else
constexpr bool kObsCompiled = false;
#endif

}  // namespace

std::uint64_t per_sample_seed(std::uint64_t seed, std::uint64_t epoch,
                              std::uint64_t position) noexcept {
  // splitmix64 finalizer over a fixed-weight combination: the stream a
  // sample consumes is a pure function of (run seed, epoch, position).
  std::uint64_t s = seed + 0x9E3779B97F4A7C15ULL * (epoch + 1) +
                    0xBF58476D1CE4E5B9ULL * (position + 1);
  s ^= s >> 30;
  s *= 0xBF58476D1CE4E5B9ULL;
  s ^= s >> 27;
  s *= 0x94D049BB133111EBULL;
  s ^= s >> 31;
  return s;
}

namespace {

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// Scores dataset[indices] one graph per forward, position p on lane
/// p % lanes with that lane's workspace (one lane per workspace; `pool`
/// non-null when there is more than one). Rows are stored by position and
/// the confusion is rebuilt serially, so the result does not depend on the
/// lane count.
EvalResult evaluate_lanes(const DgcnnModel& model, const data::Dataset& dataset,
                          const std::vector<std::size_t>& indices,
                          std::vector<nn::InferenceWorkspace>& workspaces,
                          util::ThreadPool* pool) {
  EvalResult result{0.0, ml::ConfusionMatrix(dataset.num_families()), {}, {}};
  const std::size_t n = indices.size();
  result.probabilities.assign(n, {});
  result.labels.assign(n, 0);
  const std::size_t lanes = std::min(workspaces.size(), std::max<std::size_t>(1, n));
  auto score_lane = [&](std::size_t lane) {
    for (std::size_t pos = lane; pos < n; pos += lanes) {
      const acfg::Acfg& sample = dataset.samples[indices[pos]];
      const nn::Tensor p = nn::exp_probs(
          model.forward(GraphBatch::pack(std::span(&sample, 1)), workspaces[lane]));
      result.probabilities[pos].assign(p.data(), p.data() + p.size());
      result.labels[pos] = static_cast<std::size_t>(sample.label);
    }
  };
  if (lanes <= 1 || pool == nullptr) {
    score_lane(0);
  } else {
    pool->parallel_for(lanes, score_lane);
  }
  for (std::size_t pos = 0; pos < n; ++pos) {
    const auto& row = result.probabilities[pos];
    // First maximum wins, exactly like tensor::argmax.
    std::size_t winner = 0;
    for (std::size_t j = 1; j < row.size(); ++j) {
      if (row[j] > row[winner]) winner = j;
    }
    result.confusion.add(result.labels[pos], winner);
  }
  result.mean_log_loss = ml::mean_log_loss(result.probabilities, result.labels);
  return result;
}

}  // namespace

ParallelTrainer::ParallelTrainer(DgcnnModel& model, const data::Dataset& dataset,
                                 const TrainOptions& options)
    : model_(model),
      params_(model.parameters()),
      dataset_(dataset),
      options_(options),
      threads_(resolve_threads(options.threads)),
      workspaces_(threads_) {
  if (threads_ > 1) {
    // parallel_for's caller participates, so threads_ - 1 workers give
    // exactly threads_ concurrent lanes.
    pool_ = std::make_unique<util::ThreadPool>(threads_ - 1);
  }
}

void ParallelTrainer::run_slot(std::size_t lane, std::size_t slot,
                               const std::vector<std::size_t>& order,
                               std::size_t begin, std::size_t epoch) {
  const std::size_t position = begin + slot;
  const acfg::Acfg& sample = dataset_.samples[order[position]];
  const auto label = static_cast<std::size_t>(sample.label);
  std::vector<nn::Tensor>& grads = slot_grads_[slot];
  for (nn::Tensor& g : grads) g.fill(0.0);

  // The dropout stream is a function of (seed, epoch, position) only, so
  // masks are independent of the lane that drew them.
  nn::Tape tape(per_sample_seed(options_.seed, epoch, position));
  // Per-slot accumulators, no shared state: lanes never contend on the
  // timing path, and the clock is only read while obs is enabled.
  std::optional<util::Timer> timer;
  if (timing_) timer.emplace();
  const GraphBatch batch = GraphBatch::pack(std::span(&sample, 1));
  const nn::Tensor log_probs = model_.forward(batch, workspaces_[lane], &tape);
  if (timer) slot_forward_ms_[slot] = timer->millis();
  const nn::Tensor row = log_probs.reshape({log_probs.dim(1)});
  const nn::NllLoss loss;
  slot_loss_[slot] = loss.forward(row, label);
  if (timer) timer->reset();
  model_.backward(loss.backward(row, label).reshape(log_probs.shape()), tape, grads);
  if (timer) slot_backward_ms_[slot] = timer->millis();
}

void ParallelTrainer::run_chunk(const std::vector<std::size_t>& order,
                                std::size_t begin, std::size_t end,
                                std::size_t epoch) {
  const std::size_t chunk = end - begin;
  const std::size_t lanes = std::min(threads_, chunk);
  if (lanes <= 1 || !pool_) {
    for (std::size_t slot = 0; slot < chunk; ++slot) {
      run_slot(0, slot, order, begin, epoch);
    }
    return;
  }
  pool_->parallel_for(lanes, [&](std::size_t r) {
    for (std::size_t slot = r; slot < chunk; slot += lanes) {
      run_slot(r, slot, order, begin, epoch);
    }
  });
}

TrainResult ParallelTrainer::train(const std::vector<std::size_t>& train_indices,
                                   const std::vector<std::size_t>& val_indices) {
  if (train_indices.empty()) {
    throw std::invalid_argument("train_model: empty training set");
  }
  util::Rng rng(options_.seed);
  nn::Adam optimizer(params_, options_.learning_rate, 0.9, 0.999, 1e-8,
                     options_.weight_decay);
  nn::ReduceLrOnPlateau scheduler(optimizer, options_.lr_patience,
                                  options_.lr_factor);

  // Per-slot gradient buffers sized to the largest minibatch, and the
  // buffer they reduce into; allocated once here, zeroed and reused for the
  // rest of the run.
  const std::size_t max_chunk =
      options_.batch_size == 0 ? train_indices.size()
                               : std::min(options_.batch_size, train_indices.size());
  slot_grads_.assign(max_chunk, nn::zero_gradients(params_));
  std::vector<nn::Tensor> reduced = nn::zero_gradients(params_);
  slot_loss_.assign(max_chunk, 0.0);
  if constexpr (kObsCompiled) {
    timing_ = obs::enabled();
    if (timing_) {
      slot_forward_ms_.assign(max_chunk, 0.0);
      slot_backward_ms_.assign(max_chunk, 0.0);
    }
  }

  TrainResult result;
  result.best_validation_loss = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> order = train_indices;
  std::vector<nn::Tensor> best_snapshot;
  const bool snapshotting = options_.restore_best && !val_indices.empty();

  // Index pools per family for balanced oversampling (weight
  // count^(1 - strength); see TrainOptions). Drawn from the master rng so
  // the epoch order is thread-count independent.
  std::vector<std::vector<std::size_t>> by_family;
  std::vector<double> family_draw_weights;
  if (options_.balance_families) {
    by_family.assign(dataset_.num_families(), {});
    for (std::size_t idx : train_indices) {
      const int label = dataset_.samples[idx].label;
      if (label >= 0 && static_cast<std::size_t>(label) < by_family.size()) {
        by_family[static_cast<std::size_t>(label)].push_back(idx);
      }
    }
    by_family.erase(std::remove_if(by_family.begin(), by_family.end(),
                                   [](const auto& v) { return v.empty(); }),
                    by_family.end());
    const double exponent = 1.0 - std::clamp(options_.balance_strength, 0.0, 1.0);
    for (const auto& pool : by_family) {
      family_draw_weights.push_back(
          std::pow(static_cast<double>(pool.size()), exponent));
    }
  }

  for (std::size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    if (options_.balance_families && !by_family.empty()) {
      for (auto& idx : order) {
        const auto& pool = by_family[rng.weighted_index(family_draw_weights)];
        idx = pool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
      }
    } else {
      rng.shuffle(order);
    }

    double epoch_loss = 0.0;
    double forward_ms = 0.0, backward_ms = 0.0, reduce_ms = 0.0,
           optimizer_ms = 0.0;
    util::Timer epoch_timer;  // read only while timing_
    for (std::size_t begin = 0; begin < order.size(); begin += max_chunk) {
      const std::size_t end = std::min(begin + max_chunk, order.size());
      run_chunk(order, begin, end, epoch);
      if constexpr (kObsCompiled) {
        if (timing_) {
          for (std::size_t slot = 0; slot < end - begin; ++slot) {
            forward_ms += slot_forward_ms_[slot];
            backward_ms += slot_backward_ms_[slot];
          }
        }
      }
      util::Timer phase_timer;
      // Deterministic reduction: slot order == sample-index order, for
      // every thread count.
      for (std::size_t slot = 0; slot < end - begin; ++slot) {
        epoch_loss += slot_loss_[slot];
        for (std::size_t i = 0; i < reduced.size(); ++i) {
          reduced[i] += slot_grads_[slot][i];
        }
      }
      if constexpr (kObsCompiled) {
        if (timing_) reduce_ms += phase_timer.millis();
      }
      phase_timer.reset();
      optimizer.step(reduced);
      for (nn::Tensor& g : reduced) g.fill(0.0);
      if constexpr (kObsCompiled) {
        if (timing_) optimizer_ms += phase_timer.millis();
      }
    }
    if constexpr (kObsCompiled) {
      if (timing_) {
        // Per-epoch phase breakdown + throughput, visible in any
        // snapshot_json() sink (--metrics-out, magicd stats).
        const double wall_ms = epoch_timer.millis();
        obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
        registry.histogram("train.epoch.forward_ms").record(forward_ms);
        registry.histogram("train.epoch.backward_ms").record(backward_ms);
        registry.histogram("train.epoch.reduce_ms").record(reduce_ms);
        registry.histogram("train.epoch.optimizer_ms").record(optimizer_ms);
        registry.histogram("train.epoch.wall_ms").record(wall_ms);
        if (wall_ms > 0.0) {
          registry.gauge("train.samples_per_sec")
              .set(static_cast<double>(order.size()) / (wall_ms / 1e3));
        }
        registry.counter("train.epochs").add();
        registry.counter("train.samples").add(order.size());
      }
    }

    EpochStats stats;
    stats.train_loss = epoch_loss / static_cast<double>(order.size());
    if (!val_indices.empty()) {
      util::Timer validation_timer;
      const EvalResult eval =
          evaluate_lanes(model_, dataset_, val_indices, workspaces_, pool_.get());
      if constexpr (kObsCompiled) {
        if (timing_) {
          obs::MetricsRegistry::global()
              .histogram("train.epoch.validation_ms")
              .record(validation_timer.millis());
        }
      }
      stats.validation_loss = eval.mean_log_loss;
      stats.validation_accuracy = eval.confusion.accuracy();
    } else {
      stats.validation_loss = stats.train_loss;
      stats.validation_accuracy = 0.0;
    }
    if (stats.validation_loss < result.best_validation_loss) {
      result.best_validation_loss = stats.validation_loss;
      result.best_epoch = epoch;
      if (snapshotting) {
        best_snapshot.clear();
        for (nn::Parameter* p : params_) best_snapshot.push_back(p->value);
      }
    }
    scheduler.observe(stats.validation_loss);
    if (options_.verbose) {
      MAGIC_LOG_INFO("epoch " << epoch << " train=" << stats.train_loss
                              << " val=" << stats.validation_loss
                              << " acc=" << stats.validation_accuracy
                              << " lr=" << optimizer.lr() << " threads="
                              << threads_);
    }
    result.history.push_back(stats);
  }
  if (snapshotting && !best_snapshot.empty()) {
    for (std::size_t i = 0; i < params_.size(); ++i) {
      params_[i]->value = best_snapshot[i];
    }
  }
  return result;
}

EvalResult evaluate_model(const DgcnnModel& model, const data::Dataset& dataset,
                          const std::vector<std::size_t>& indices,
                          std::size_t threads) {
  const std::size_t lanes =
      std::min(resolve_threads(threads), std::max<std::size_t>(1, indices.size()));
  std::vector<nn::InferenceWorkspace> workspaces(lanes);
  std::unique_ptr<util::ThreadPool> pool;
  if (lanes > 1) pool = std::make_unique<util::ThreadPool>(lanes - 1);
  return evaluate_lanes(model, dataset, indices, workspaces, pool.get());
}

}  // namespace magic::core

#pragma once
// Data-parallel minibatch training engine (DESIGN.md "Training performance").
//
// Each minibatch fans per-graph forward/backward across lanes on a
// util::ThreadPool. Every lane reads the one model through a const
// reference and records its sample on its own nn::Tape; per-sample
// gradients land in preallocated per-slot buffers and are reduced in fixed
// sample-index order before Adam steps the weights. Floating-point addition
// is not associative, so determinism comes from making EVERY thread count
// (including 1) use the same reduction structure: the trained parameters
// and TrainResult.history are bitwise identical for any
// TrainOptions::threads value.
//
// Dropout masks come from a tape seeded per (run seed, epoch, sample
// position), so the mask a sample sees never depends on which lane
// processed it or on how many samples that lane handled before.
//
// Deliberately free of -Wthread-safety annotations: this engine holds no
// mutex. Lanes only read the weights, write disjoint per-slot buffers
// (slot index = sample position in the chunk) and their own workspace, and
// the reduction and the Adam step run after the parallel_for barrier, so
// its race freedom is a data-partitioning argument the capability analysis
// cannot express. TSan stress coverage stands in where the static proof
// cannot reach (tests/magic/parallel_trainer_test.cpp under check.sh tsan).

#include <cstdint>
#include <memory>
#include <vector>

#include "magic/trainer.hpp"
#include "util/thread_pool.hpp"

namespace magic::core {

/// Mixes (seed, epoch, position) into one per-sample stream seed
/// (splitmix64 finalizer; exposed for tests).
std::uint64_t per_sample_seed(std::uint64_t seed, std::uint64_t epoch,
                              std::uint64_t position) noexcept;

/// The engine behind train_model. One instance owns the per-slot gradient
/// buffers, the per-lane workspaces and the worker pool; buffers are
/// allocated once up front so the per-step loop reuses them.
class ParallelTrainer {
 public:
  /// Adam steps `model`'s parameters; the lanes read it as a const model.
  ParallelTrainer(DgcnnModel& model, const data::Dataset& dataset,
                  const TrainOptions& options);

  TrainResult train(const std::vector<std::size_t>& train_indices,
                    const std::vector<std::size_t>& val_indices);

  std::size_t threads() const noexcept { return threads_; }

 private:
  /// Runs samples order[begin, end) across the lanes; slot s leaves its
  /// gradients in slot_grads_[s] and its loss in slot_loss_[s].
  void run_chunk(const std::vector<std::size_t>& order, std::size_t begin,
                 std::size_t end, std::size_t epoch);
  /// One sample on one lane: forward on a seeded tape, loss, backward into
  /// the slot's gradient buffer.
  void run_slot(std::size_t lane, std::size_t slot,
                const std::vector<std::size_t>& order, std::size_t begin,
                std::size_t epoch);

  const DgcnnModel& model_;
  std::vector<nn::Parameter*> params_;  // what Adam steps
  const data::Dataset& dataset_;
  TrainOptions options_;
  std::size_t threads_;

  // slot_grads_[slot][param] mirrors the parameter shapes.
  std::vector<std::vector<nn::Tensor>> slot_grads_;
  std::vector<double> slot_loss_;
  std::vector<nn::InferenceWorkspace> workspaces_;  // one per lane

  // obs phase timing (magic::obs). Sampled once at train() entry; when
  // false (obs disabled or compiled out) no clock is ever read and the
  // per-slot timing buffers stay empty. Per-slot accumulators keep the
  // worker threads contention-free, exactly like slot_loss_.
  bool timing_ = false;
  std::vector<double> slot_forward_ms_;
  std::vector<double> slot_backward_ms_;

  std::unique_ptr<util::ThreadPool> pool_;  // null when threads_ == 1
};

}  // namespace magic::core

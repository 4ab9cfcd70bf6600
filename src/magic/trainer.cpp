#include "magic/trainer.hpp"


#include "magic/parallel_trainer.hpp"

namespace magic::core {

TrainResult train_model(DgcnnModel& model, const data::Dataset& dataset,
                        const std::vector<std::size_t>& train_indices,
                        const std::vector<std::size_t>& val_indices,
                        const TrainOptions& options) {
  // All thread counts (1 included) run the same per-slot reduce engine, so
  // the trajectory is bitwise independent of options.threads.
  ParallelTrainer trainer(model, dataset, options);
  return trainer.train(train_indices, val_indices);
}

}  // namespace magic::core

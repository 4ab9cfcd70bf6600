#pragma once
// Per-layer measurements taken from outside the program: bench-side spans
// around each module's public entry points, the GEMM and SpMM kernels at the
// first graph-convolution layer's shapes, and one-epoch training runs whose
// phase split comes from the trainer's own obs timers.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "acfg/acfg.hpp"
#include "data/dataset.hpp"
#include "magic/classifier.hpp"
#include "magicd_process.hpp"
#include "stats.hpp"

namespace magic::e2e {

/// Spans kept in memory and written out once at exit. Each span has a
/// name, the request it belongs to, its parent span and its interval.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  /// Opens a span starting now; returns its handle.
  std::size_t open(const char* name, std::size_t request, std::ptrdiff_t parent = -1);
  void close(std::size_t span);
  /// Records a finished span.
  std::size_t add(const char* name, std::size_t request, std::ptrdiff_t parent,
                  Clock::time_point start, Clock::time_point end);

  /// Durations in microseconds of every span named `name`.
  std::vector<double> durations_us(std::string_view name) const;

  /// Writes every span with its self time (its duration minus the time its
  /// children cover) and a per-name summary to `path`.
  void write_json(const std::string& path, const std::string& workload) const;

 private:
  struct Span {
    const char* name;
    std::size_t request;
    std::ptrdiff_t parent;
    double start_us;
    double end_us;
    double children_us;
  };
  double since_origin_us(Clock::time_point t) const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Replays `listings` single-threaded through every layer's public entry
/// point, as magicd would serve them as b64 requests: wire parse, the asmx
/// -> cfg -> acfg stages, content hash, cache probe and insert, classify,
/// verdict rendering; then packs of 8 of the first 256 graphs through
/// GraphBatch::pack and classify. `graphs` receives the extracted ACFGs.
std::vector<Metric> replay_layers(const std::vector<std::string>& listings,
                                  const core::MagicClassifier& classifier,
                                  SpanLog& log, std::vector<acfg::Acfg>& graphs);

/// tensor::matmul_into and SparseMatrix::multiply_into at the first
/// graph-convolution layer's shapes over `graphs`; rates are computed from
/// the shapes (FLOPs, bytes), not measured by counters.
std::vector<Metric> kernel_rates(const std::vector<acfg::Acfg>& graphs,
                                 const core::DgcnnConfig& config);

/// One MagicClassifier::fit_indices run of a single epoch.
struct EpochRun {
  double seconds = 0.0;
  double first_loss = 0.0;
  std::unique_ptr<core::MagicClassifier> classifier;
};
EpochRun fit_one_epoch(const core::DgcnnConfig& config, const data::Dataset& dataset,
                       const std::vector<std::size_t>& train, std::size_t threads,
                       std::uint64_t seed);

/// train.{forward,backward,reduce,optimizer}_ms (per-epoch means of the
/// trainer's obs histograms since the last obs reset) and train.scaling.
std::vector<Metric> training_metrics(double scaling);

/// The training layers on a workload that does not train: epochs at
/// `threads` with obs on and at one thread, over `dataset[train]`.
std::vector<Metric> training_probe(const core::DgcnnConfig& config,
                                   const data::Dataset& dataset,
                                   const std::vector<std::size_t>& train,
                                   std::size_t threads, std::uint64_t seed);

}  // namespace magic::e2e

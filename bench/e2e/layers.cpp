#include "layers.hpp"

#include <fstream>
#include <map>
#include <span>
#include <stdexcept>

#include "acfg/extractor.hpp"
#include "asmx/parser.hpp"
#include "asmx/tagging.hpp"
#include "cache/acfg_hash.hpp"
#include "cache/verdict_cache.hpp"
#include "cfg/cfg_builder.hpp"
#include "json.hpp"
#include "magic/graph_batch.hpp"
#include "obs/metrics.hpp"
#include "serve/verdict.hpp"
#include "serve/wire.hpp"
#include "tensor/sparse.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace magic::e2e {

double SpanLog::since_origin_us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

std::size_t SpanLog::open(const char* name, std::size_t request, std::ptrdiff_t parent) {
  spans_.push_back({name, request, parent, since_origin_us(Clock::now()), -1.0, 0.0});
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t span) {
  Span& s = spans_[span];
  s.end_us = since_origin_us(Clock::now());
  if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].children_us += s.end_us - s.start_us;
}

std::size_t SpanLog::add(const char* name, std::size_t request, std::ptrdiff_t parent,
                         Clock::time_point start, Clock::time_point end) {
  spans_.push_back({name, request, parent, since_origin_us(start), since_origin_us(end), 0.0});
  if (parent >= 0) {
    spans_[static_cast<std::size_t>(parent)].children_us +=
        spans_.back().end_us - spans_.back().start_us;
  }
  return spans_.size() - 1;
}

std::vector<double> SpanLog::durations_us(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.end_us - s.start_us);
  }
  return out;
}

void SpanLog::write_json(const std::string& path, const std::string& workload) const {
  struct Summary {
    std::vector<double> durations;
    double self_us = 0.0;
  };
  std::map<std::string, Summary> by_name;
  std::ofstream out(path);
  out << "{\"workload\":" << json_string(workload)
      << ",\"columns\":[\"name\",\"request\",\"parent\",\"start_us\",\"end_us\",\"self_us\"]"
      << ",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double self = (s.end_us - s.start_us) - s.children_us;
    Summary& summary = by_name[s.name];
    summary.durations.push_back(s.end_us - s.start_us);
    summary.self_us += self;
    out << (i ? "," : "") << "[" << json_string(s.name) << "," << s.request << ","
        << s.parent << "," << json_number(s.start_us) << "," << json_number(s.end_us)
        << "," << json_number(self) << "]";
  }
  out << "],\"summary\":{";
  bool first = true;
  for (const auto& [name, summary] : by_name) {
    double total = 0.0;
    for (double d : summary.durations) total += d;
    out << (first ? "" : ",") << json_string(name) << ":{\"count\":" << summary.durations.size()
        << ",\"total_us\":" << json_number(total)
        << ",\"self_us\":" << json_number(summary.self_us)
        << ",\"p50_us\":" << json_number(median(summary.durations)) << "}";
    first = false;
  }
  out << "}}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::vector<Metric> replay_layers(const std::vector<std::string>& listings,
                                  const core::MagicClassifier& classifier,
                                  SpanLog& log, std::vector<acfg::Acfg>& graphs) {
  cache::VerdictCache cache;  // magicd's default budget and shard count
  core::PredictOptions single;
  single.threads = 1;
  graphs.clear();
  graphs.reserve(listings.size());
  double vertices = 0.0;
  for (std::size_t i = 0; i < listings.size(); ++i) {
    std::string line = "t";
    line += std::to_string(i);
    line += " b64 ";
    line += serve::wire::base64_encode(listings[i]);
    const std::size_t root = log.open("request", i);
    const auto root_parent = static_cast<std::ptrdiff_t>(root);

    std::size_t span = log.open("wire.parse_request_line", i, root_parent);
    const auto request = serve::wire::parse_request_line(line);
    log.close(span);
    if (!request) throw std::runtime_error("replay: request line did not parse");

    const auto extract = static_cast<std::ptrdiff_t>(log.open("extract", i, root_parent));
    span = log.open("asmx.parse_listing", i, extract);
    asmx::ParseResult parsed = asmx::parse_listing(request->payload);
    log.close(span);
    span = log.open("asmx.tagging", i, extract);
    asmx::TaggingPass tagger;
    tagger.run(parsed.program);
    log.close(span);
    span = log.open("cfg.connect_blocks", i, extract);
    cfg::CfgBuilder builder;
    const cfg::ControlFlowGraph flow = builder.connect_blocks(parsed.program);
    log.close(span);
    span = log.open("acfg.extract_acfg", i, extract);
    acfg::Acfg graph = acfg::extract_acfg(flow);
    log.close(span);
    log.close(static_cast<std::size_t>(extract));

    span = log.open("cache.acfg_content_hash", i, root_parent);
    const cache::CacheKey key = cache::acfg_content_hash(graph);
    log.close(span);
    span = log.open("cache.get", i, root_parent);
    const bool hit = cache.get(key).has_value();
    log.close(span);
    span = log.open("magic.classify", i, root_parent);
    core::Prediction prediction = classifier.classify(std::span(&graph, 1), single).at(0);
    log.close(span);
    if (!hit) {
      span = log.open("cache.insert", i, root_parent);
      cache.insert(key, {prediction.family_index, prediction.family_name,
                         prediction.probabilities, {}});
      log.close(span);
    }
    serve::Verdict verdict;
    verdict.status = serve::VerdictStatus::Ok;
    verdict.prediction = std::move(prediction);
    span = log.open("wire.verdict_to_json", i, root_parent);
    [[maybe_unused]] const std::string rendered =
        serve::wire::verdict_to_json(request->id, verdict);
    log.close(span);
    log.close(root);
    vertices += static_cast<double>(graph.num_vertices());
    graphs.push_back(std::move(graph));
  }

  // Packs of 8 over the first 256 graphs: enough packs for a median, and
  // a bounded cost with models whose packed forward is slow.
  constexpr std::size_t kPack = 8;
  const std::size_t packed = std::min<std::size_t>(graphs.size(), 256);
  for (std::size_t first = 0; first + kPack <= packed; first += kPack) {
    const std::span<const acfg::Acfg> pack(graphs.data() + first, kPack);
    const auto root = static_cast<std::ptrdiff_t>(log.open("pack", first));
    std::size_t span = log.open("magic.graph_batch.pack", first, root);
    [[maybe_unused]] const core::GraphBatch batch = core::GraphBatch::pack(pack);
    log.close(span);
    span = log.open("magic.classify.b8", first, root);
    classifier.classify(pack, single);
    log.close(span);
    log.close(static_cast<std::size_t>(root));
  }

  std::vector<Metric> metrics;
  auto median_of = [&](const char* span_name) { return median(log.durations_us(span_name)); };
  for (const char* name :
       {"wire.parse_request_line", "wire.verdict_to_json", "asmx.parse_listing",
        "asmx.tagging", "cfg.connect_blocks", "acfg.extract_acfg",
        "cache.acfg_content_hash", "cache.get", "cache.insert", "magic.graph_batch.pack"}) {
    metrics.push_back({std::string(name) + ".us", median_of(name), "us"});
  }
  for (const char* name :
       {"asmx.parse_listing", "asmx.tagging", "cfg.connect_blocks", "acfg.extract_acfg"}) {
    double total_us = 0.0;
    for (double d : log.durations_us(name)) total_us += d;
    metrics.push_back({std::string(name) + ".ns_per_vertex", total_us * 1e3 / vertices, "ns"});
  }
  metrics.push_back({"magic.classify.us_per_graph.b1", median_of("magic.classify"), "us"});
  metrics.push_back({"magic.classify.us_per_graph.b8",
                     median_of("magic.classify.b8") / static_cast<double>(kPack), "us"});
  return metrics;
}

std::vector<Metric> kernel_rates(const std::vector<acfg::Acfg>& graphs,
                                 const core::DgcnnConfig& config) {
  const std::size_t c_in = config.input_channels;
  const std::size_t c_out = config.graph_conv_channels.at(0);
  util::Rng rng(7);
  const tensor::Tensor weight = tensor::Tensor::uniform({c_in, c_out}, rng, -0.1, 0.1);
  std::vector<tensor::SparseMatrix> operators;
  std::vector<tensor::Tensor> projected;
  std::size_t max_rows = 0;
  for (const acfg::Acfg& g : graphs) {
    operators.push_back(g.propagation_operator());
    projected.push_back(tensor::matmul(g.attributes, weight));
    max_rows = std::max(max_rows, g.num_vertices());
  }

  // Whole passes over the graphs until at least this long has been timed.
  constexpr double kMinSeconds = 0.25;
  double flops = 0.0, gemm_s = 0.0;
  tensor::Tensor out;
  while (gemm_s < kMinSeconds) {
    util::Timer timer;
    for (const acfg::Acfg& g : graphs) tensor::matmul_into(out, g.attributes, weight);
    gemm_s += timer.seconds();
    for (const acfg::Acfg& g : graphs) {
      flops += 2.0 * static_cast<double>(g.num_vertices() * c_in * c_out);
    }
  }

  // Bytes per product: CSR values and column indices, row pointers, the
  // dense rows each nonzero gathers, and the output rows written.
  double bytes = 0.0, spmm_s = 0.0;
  std::vector<double> target(max_rows * c_out, 0.0);
  while (spmm_s < kMinSeconds) {
    util::Timer timer;
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      operators[i].multiply_into(projected[i], target.data(), c_out);
    }
    spmm_s += timer.seconds();
    for (const tensor::SparseMatrix& p : operators) {
      const auto nnz = static_cast<double>(p.nnz());
      const auto rows = static_cast<double>(p.rows());
      bytes += 16.0 * nnz + 8.0 * (rows + 1.0) + 8.0 * static_cast<double>(c_out) * (nnz + rows);
    }
  }
  return {{"tensor.gemm.gflops", flops / gemm_s / 1e9, "GFLOP/s"},
          {"tensor.spmm.gbytes_per_s", bytes / spmm_s / 1e9, "GB/s"}};
}

EpochRun fit_one_epoch(const core::DgcnnConfig& config, const data::Dataset& dataset,
                       const std::vector<std::size_t>& train, std::size_t threads,
                       std::uint64_t seed) {
  core::TrainOptions options;
  options.epochs = 1;
  options.batch_size = 10;
  options.learning_rate = 3e-3;
  options.weight_decay = 1e-4;
  options.threads = threads;
  options.seed = seed;
  EpochRun run;
  run.classifier = std::make_unique<core::MagicClassifier>(config, options, seed);
  util::Timer timer;
  const core::TrainResult result = run.classifier->fit_indices(dataset, train, {});
  run.seconds = timer.seconds();
  run.first_loss = result.history.at(0).train_loss;
  return run;
}

std::vector<Metric> training_metrics(double scaling) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  std::vector<Metric> metrics;
  for (const char* phase : {"forward", "backward", "reduce", "optimizer"}) {
    const std::string name = std::string("train.epoch.") + phase + "_ms";
    metrics.push_back({std::string("train.") + phase + "_ms",
                       registry.histogram(name).snapshot().mean(), "ms"});
  }
  metrics.push_back({"train.scaling", scaling, "x"});
  return metrics;
}

std::vector<Metric> training_probe(const core::DgcnnConfig& config,
                                   const data::Dataset& dataset,
                                   const std::vector<std::size_t>& train,
                                   std::size_t threads, std::uint64_t seed) {
  obs::MetricsRegistry::global().reset_values();
  obs::set_enabled(true);
  const EpochRun parallel = fit_one_epoch(config, dataset, train, threads, seed);
  obs::set_enabled(false);
  const EpochRun serial = fit_one_epoch(config, dataset, train, 1, seed);
  return training_metrics(serial.seconds / parallel.seconds);
}

}  // namespace magic::e2e

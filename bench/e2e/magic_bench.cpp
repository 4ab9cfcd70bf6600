// magic_bench: end-to-end benchmark of magicd scanning and DGCNN training,
// with a traced mode that breaks the cost down by layer. README.md in this
// directory describes the workloads, the metrics and the correctness gates.
//
//   magic_bench --magicd PATH [--workload NAME|all] [--seed N] [--seconds S]
//               [--trace 0|1] [--quick] [--work DIR] [--models DIR]
//               [--out FILE] [--git-sha SHA]
//
// Workloads: scan_unique, scan_dup, bulk_stdio, train_epoch (default: all,
// each in its own child process). magicd only ever receives --model and
// --socket. The last line of standard output is one JSON object,
//   {"correct":B,"attempted":N,"failed":N,"metrics":{NAME:{"value":V,"unit":U}}}
// with the end-to-end metrics, or with --trace 1 the per-layer metrics.
// --out writes a result file with the host block; a traced run also writes
// TRACE_<workload>.json next to it. The exit status is 0 only when every
// correctness gate passed.

#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "acfg/extractor.hpp"
#include "data/corpus.hpp"
#include "inputs.hpp"
#include "json.hpp"
#include "layers.hpp"
#include "load.hpp"
#include "magic/classifier.hpp"
#include "magicd_process.hpp"
#include "obs/metrics.hpp"
#include "serve/wire.hpp"
#include "stats.hpp"
#include "tensor/simd/dispatch.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace magic;
using namespace magic::e2e;
namespace fs = std::filesystem;

const std::vector<std::string> kWorkloads = {"scan_unique", "scan_dup", "bulk_stdio",
                                             "train_epoch"};

/// Listing indices of warm-up requests: far past any workload's pool, so a
/// warm-up never shares content (or a cache entry) with measured traffic.
constexpr std::size_t kWarmupFirst = std::size_t{1} << 40;

/// Wire probabilities carry 6 significant digits.
constexpr double kProbabilityTolerance = 1e-5;

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 2019;
  double seconds = 15.0;
  bool trace = false;
  bool quick = false;
  std::string magicd;
  std::string work = "magic_bench_work";
  std::string models;
  std::string out;
  std::string git_sha = "unknown";
};

/// Sizes of one run. The nominal rates are about 15% of each scan
/// workload's closed-loop throughput at the commit that defined the
/// benchmark: at 30% the open-loop latencies followed the load of other
/// tenants of a shared host three times as much. --quick shrinks everything
/// for the smoke test.
struct Sizing {
  double unique_rate = 400.0;
  double dup_rate = 700.0;
  std::size_t scan_rounds = 4;       ///< each an open-loop and a closed-loop phase
  std::size_t unique_closed = 4000;  ///< requests per closed-loop phase
  std::size_t dup_closed = 8000;
  std::size_t bulk_listings = 256;  ///< listings per bulk phase
  std::size_t bulk_min_phases = 3;
  std::size_t bulk_max_phases = 16;
  double corpus_scale = 0.1;
  double prediction_scale = 0.5;     ///< of the unseen corpus train_epoch classifies
  std::size_t min_fits = 3;
  std::size_t checked = 256;
  std::size_t replay_inputs = 2000;
  std::size_t probe_graphs = 64;
};

Sizing quick_sizing() {
  Sizing s;
  s.unique_rate = 200.0;
  s.dup_rate = 300.0;
  s.scan_rounds = 2;
  s.unique_closed = 100;
  s.dup_closed = 150;
  s.bulk_listings = 16;
  s.bulk_min_phases = 2;
  s.bulk_max_phases = 2;
  s.corpus_scale = 0.005;
  s.prediction_scale = 0.005;
  s.min_fits = 1;
  s.checked = 16;
  s.replay_inputs = 48;
  s.probe_graphs = 16;
  return s;
}

[[noreturn]] void usage() {
  std::cerr << "usage: magic_bench --magicd PATH [--workload NAME|all] [--seed N]\n"
               "                   [--seconds S] [--trace 0|1] [--quick] [--work DIR]\n"
               "                   [--models DIR] [--out FILE] [--git-sha SHA]\n"
               "workloads: scan_unique scan_dup bulk_stdio train_epoch\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    try {
      if (arg == "--workload") opt.workload = value();
      else if (arg == "--seed") opt.seed = std::stoull(value());
      else if (arg == "--seconds") opt.seconds = std::stod(value());
      else if (arg == "--trace") opt.trace = std::stoi(value()) != 0;
      else if (arg == "--quick") opt.quick = true;
      else if (arg == "--magicd") opt.magicd = value();
      else if (arg == "--work") opt.work = value();
      else if (arg == "--models") opt.models = value();
      else if (arg == "--out") opt.out = value();
      else if (arg == "--git-sha") opt.git_sha = value();
      else usage();
    } catch (const std::logic_error&) {
      usage();
    }
  }
  const bool known = opt.workload == "all" ||
                     std::find(kWorkloads.begin(), kWorkloads.end(), opt.workload) !=
                         kWorkloads.end();
  if (opt.magicd.empty() || !known || !(opt.seconds > 0.0)) usage();
  if (opt.quick) opt.seconds = std::min(opt.seconds, 1.0);
  return opt;
}

/// Outcome of one workload run.
struct Result {
  std::vector<std::string> failures;  ///< failed correctness gates
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< end-to-end, or per-layer when traced
  std::vector<Metric> extras;   ///< printed and stored, never gated

  bool correct() const { return failures.empty(); }
  void gate(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Everything one workload run shares.
struct Run {
  Run(const Options& o, std::size_t cpus)
      : opt(o), size(o.quick ? quick_sizing() : Sizing{}), threads(cpus), pool(cpus) {}

  const Options& opt;
  Sizing size;
  std::size_t threads;
  util::ThreadPool pool;
  SpanLog spans;
  std::size_t daemons = 0;

  std::string next_socket() {
    return "magicd_" + std::to_string(::getpid()) + "_" + std::to_string(daemons++) + ".sock";
  }
  std::string model(const std::string& name) const { return opt.models + "/" + name + ".model"; }
};

// ---- Model fixtures ---------------------------------------------------------

/// The checkpoints magicd serves, trained once per build with fixed seeds
/// (the run seed only varies the traffic) and cached in the models dir.
void train_model(const std::string& path, bool mskcfg, util::ThreadPool& pool,
                 std::size_t threads) {
  core::DgcnnConfig config;
  config.pooling = core::PoolingType::AdaptivePooling;
  core::TrainOptions train;
  train.batch_size = 10;
  train.learning_rate = 3e-3;
  train.balance_families = true;
  train.balance_strength = 0.5;
  train.threads = threads;
  data::Dataset corpus;
  if (mskcfg) {
    // Table II's best MSKCFG model.
    config.pooling_ratio = 0.64;
    config.graph_conv_channels = {128, 64, 32, 32};
    config.conv2d_channels = 16;
    config.dropout_rate = 0.1;
    train.epochs = 3;
    corpus = data::mskcfg_like_corpus(0.004, 13, pool);
  } else {
    // The small AMP model `magicd --selftrain` builds.
    config.pooling_ratio = 0.2;
    config.graph_conv_channels = {32, 32};
    config.dropout_rate = 0.5;
    train.epochs = 12;
    corpus = data::yancfg_like_corpus(0.004, 13, pool);
  }
  core::MagicClassifier classifier(config, train, 13);
  classifier.fit(corpus, 0.15);
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  classifier.save(tmp);
  fs::rename(tmp, path);
}

/// Trains the missing checkpoints in a child process, before this process
/// starts any thread, so training never counts in a measured peak RSS.
bool ensure_models(const Options& opt) {
  const std::string scan = opt.models + "/scan.model";
  const std::string mskcfg = opt.models + "/mskcfg.model";
  if (fs::exists(scan) && fs::exists(mskcfg)) return true;
  std::cout.flush();
  const pid_t pid = ::fork();
  if (pid == 0) {
    int code = 0;
    try {
      const std::size_t cpus = online_cpus();
      util::ThreadPool pool(cpus);
      if (!fs::exists(scan)) train_model(scan, false, pool, cpus);
      if (!fs::exists(mskcfg)) train_model(mskcfg, true, pool, cpus);
    } catch (const std::exception& e) {
      std::cerr << "magic_bench: training the checkpoints failed: " << e.what() << "\n";
      code = 1;
    }
    ::_exit(code);
  }
  int status = 0;
  while (pid > 0 && ::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return pid > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// ---- Shared checks and metric helpers -------------------------------------

/// One scan request line: `<prefix><k> <kind> <payload>`.
std::string request_line(char prefix, std::size_t k, const char* kind, const std::string& payload) {
  std::string line(1, prefix);
  line += std::to_string(k);
  line += ' ';
  line += kind;
  line += ' ';
  line += payload;
  return line;
}

std::vector<std::string> base64_all(const std::vector<std::string>& listings,
                                    util::ThreadPool& pool) {
  std::vector<std::string> out(listings.size());
  pool.parallel_for(listings.size(),
                    [&](std::size_t i) { out[i] = serve::wire::base64_encode(listings[i]); });
  return out;
}

std::vector<bool> keep_mask(std::size_t requests, const std::vector<std::size_t>& checked) {
  std::vector<bool> keep(requests, false);
  for (std::size_t k : checked) keep[k] = true;
  return keep;
}

/// Checked requests whose verdict differs from in-process classify() of the
/// same listing with the same checkpoint: another family, or a probability
/// off by more than the wire's precision.
std::size_t reference_mismatches(Run& run, const core::MagicClassifier& reference,
                                 const PhaseResult& phase,
                                 const std::vector<std::size_t>& checked,
                                 const std::function<std::string(std::size_t)>& listing_of) {
  std::vector<std::string> listings(checked.size());
  run.pool.parallel_for(checked.size(),
                        [&](std::size_t i) { listings[i] = listing_of(checked[i]); });
  const std::vector<acfg::Acfg> graphs = acfg::extract_batch(listings, run.pool);
  core::PredictOptions options;
  options.threads = run.threads;
  const std::vector<core::Prediction> expected = reference.classify(graphs, options);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < checked.size(); ++i) {
    const Outcome& got = phase.outcomes[checked[i]];
    bool same = got.ok && got.family_index == static_cast<int>(expected[i].family_index) &&
                got.probabilities.size() == expected[i].probabilities.size();
    for (std::size_t c = 0; same && c < got.probabilities.size(); ++c) {
      same = std::abs(got.probabilities[c] - expected[i].probabilities[c]) <=
             kProbabilityTolerance;
    }
    if (!same) ++mismatches;
  }
  return mismatches;
}

/// Listings `indices[0 .. n)` of the (mix, seed) stream and their families.
std::vector<std::string> listings_at(Run& run, FamilyMix mix,
                                     const std::vector<std::size_t>& indices, std::size_t n,
                                     std::vector<int>& families) {
  n = std::min(n, indices.size());
  std::vector<std::string> listings(n);
  families.assign(n, -1);
  run.pool.parallel_for(n, [&](std::size_t i) {
    listings[i] = listing_at(mix, run.opt.seed, indices[i], &families[i]);
  });
  return listings;
}

std::vector<std::string> family_names(FamilyMix mix) {
  std::vector<std::string> names;
  for (const auto& spec : mix == FamilyMix::Yancfg ? data::yancfg_family_specs()
                                                   : data::mskcfg_family_specs()) {
    names.push_back(spec.name);
  }
  return names;
}

/// Gates every phase shares; returns the requests that count as failed.
std::size_t gate_phase(Result& result, const std::string& name, const PhaseResult& phase,
                       std::size_t mismatches, bool clean_exit) {
  result.gate(phase.error.empty(), name + ": " + phase.error);
  result.gate(phase.in_order, name + ": responses out of request order");
  result.gate(phase.not_ok() == 0, name + ": " + std::to_string(phase.not_ok()) +
                                       " requests without an ok verdict");
  result.gate(mismatches == 0, name + ": " + std::to_string(mismatches) +
                                   " verdicts differ from in-process classify");
  result.gate(clean_exit, name + ": magicd did not exit cleanly");
  result.attempted += phase.outcomes.size();
  return phase.not_ok() + mismatches;
}

/// Verdict-cache hits and misses, summed over `stats` replies.
struct CacheCount {
  double hits = 0.0;
  double misses = 0.0;

  void add(const Json& stats) {
    hits += stats.at({"server", "cache", "hits"}).number();
    misses += stats.at({"server", "cache", "misses"}).number();
  }
  double rate() const { return hits + misses > 0 ? hits / (hits + misses) : 0.0; }
};

double cache_hit_rate(const Json& stats) {
  CacheCount count;
  count.add(stats);
  return count.rate();
}

/// The [S] per-layer metrics: counters magicd reports in its `stats` reply.
/// The cache figures come from the server's own cache block; the obs gauges
/// cache.bytes/cache.entries only reflect the last shard touched.
std::vector<Metric> serve_layer_metrics(const Json& stats, std::vector<Metric>& extras) {
  const Json& server = stats.at({"server"});
  const double mean_batch = server.at({"mean_batch_size"}).number();
  const double max_batch =
      static_cast<double>(server.at({"batch_size_counts"}).array().size() - 1);
  const double batches = server.at({"batches"}).number();
  const double packed = server.at({"packed_batches"}).number();
  const Json& histograms = stats.at({"obs", "histograms"});
  std::vector<Metric> metrics = {
      {"serve.latency_ms.p50", server.at({"latency_ms", "p50"}).number(), "ms"},
      {"serve.latency_ms.p99", server.at({"latency_ms", "p99"}).number(), "ms"},
      {"serve.batch_size.mean", mean_batch, "requests"},
      {"serve.batch_fill", mean_batch / max_batch, "fraction"},
      {"serve.packed_share", batches > 0 ? packed / batches : 0.0, "fraction"},
      {"cache.hit_rate", cache_hit_rate(stats), "fraction"},
      {"cache.bytes", server.at({"cache", "bytes"}).number(), "bytes"},
  };
  for (const char* stage : {"parse", "cfg_build", "attributes", "pipeline"}) {
    const std::string name = std::string("extract.") + stage + ".ms";
    metrics.push_back({name + ".p50", histograms.at({name, "p50"}).number(), "ms"});
  }
  extras.push_back({"serve.packed_batches", packed, "count"});
  if (const Json* reactor = stats.find("reactor")) {
    const double requests = reactor->at({"requests"}).number();
    extras.push_back({"reactor.read_pauses", reactor->at({"read_pauses"}).number(), "count"});
    extras.push_back({"reactor.wakeups_per_request",
                      requests > 0 ? reactor->at({"wakeups"}).number() / requests : 0.0,
                      "wakeups"});
  }
  return metrics;
}

/// The p99s of consecutive windows of at least 1000 samples each, so at
/// least 10 lie beyond every window's p99. `latency.p99_ms` is the median of
/// them: a stall on a shared host lifts the window it falls in, not the
/// result.
std::vector<double> window_p99s(const std::vector<double>& samples) {
  const std::size_t n = samples.size();
  const std::size_t count = std::max<std::size_t>(1, n / 1000);
  std::vector<double> p99s;
  for (std::size_t w = 0; w < count; ++w) {
    p99s.push_back(quantile({samples.begin() + static_cast<std::ptrdiff_t>(w * n / count),
                             samples.begin() + static_cast<std::ptrdiff_t>((w + 1) * n / count)},
                            0.99));
  }
  return p99s;
}

/// The latency tail of `ms` (in the order measured), printed but not gated:
/// its run-to-run spread on a shared host is wider than any bound allowed.
std::vector<Metric> tail_extras(const std::vector<double>& ms) {
  return {{"latency.samples", static_cast<double>(ms.size()), "count"},
          {"latency.p99_ms", median(window_p99s(ms)), "ms"},
          {"latency.p99_raw_ms", quantile(ms, 0.99), "ms"},
          {"latency.max_ms", quantile(ms, 1.0), "ms"}};
}

/// Open-loop latencies of several phases, each timed from the request's
/// scheduled send time. The p50 is the lowest of the phases' p50s: on a
/// virtual machine whose CPUs the hypervisor takes away for milliseconds at
/// a time, every request waits out the preemptions it meets, and on
/// scan_dup a phase that loses a few percent of CPU time to steal reads a
/// p50 up to 70% higher. The phase the host disturbed least measures magicd
/// best; the median over the phases is printed too.
struct OpenLoopLatency {
  std::vector<double> ok_ms;    ///< every phase's, in the order they ran
  std::vector<double> late_ms;  ///< how late the generator sent each request
  std::vector<double> phase_p50s;

  void add(const PhaseResult& phase) {
    const std::size_t first = ok_ms.size();
    for (const Outcome& o : phase.outcomes) {
      if (o.sent_s >= 0) late_ms.push_back((o.sent_s - o.scheduled_s) * 1e3);
      if (o.ok) ok_ms.push_back((o.done_s - o.scheduled_s) * 1e3);
    }
    phase_p50s.push_back(
        quantile({ok_ms.begin() + static_cast<std::ptrdiff_t>(first), ok_ms.end()}, 0.5));
  }
  double p50_ms() const { return *std::min_element(phase_p50s.begin(), phase_p50s.end()); }
  double late_p99_ms() const { return quantile(late_ms, 0.99); }
  std::vector<Metric> extras() const {
    std::vector<Metric> out = tail_extras(ok_ms);
    out.push_back({"latency.p50_median_ms", median(phase_p50s), "ms"});
    out.push_back({"client.late_ms.p99", late_p99_ms(), "ms"});
    return out;
  }
};

/// Client spans of one open-loop phase: scheduled -> sent -> response.
void record_client_spans(SpanLog& log, const PhaseResult& phase) {
  auto at = [&](double s) {
    return phase.start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(s));
  };
  for (std::size_t k = 0; k < phase.outcomes.size(); ++k) {
    const Outcome& o = phase.outcomes[k];
    if (o.done_s < 0) continue;
    const auto root = static_cast<std::ptrdiff_t>(
        log.add("client.request", k, -1, at(o.scheduled_s), at(o.done_s)));
    log.add("client.send_delay", k, root, at(o.scheduled_s), at(o.sent_s));
    log.add("client.in_flight", k, root, at(o.sent_s), at(o.done_s));
  }
}

/// The layers a workload's own traffic does not reach are measured on its
/// inputs too, so every workload reports every per-layer metric: the [T]
/// replay, the kernels at its model's first layer, and (for the serving
/// workloads) a training probe over its first graphs.
void replay_and_probe(Run& run, Result& result, const std::vector<std::string>& inputs,
                      const std::vector<int>& labels,
                      const std::vector<std::string>& family_names,
                      const core::MagicClassifier& classifier, bool probe_training) {
  std::vector<acfg::Acfg> graphs;
  for (Metric& m : replay_layers(inputs, classifier, run.spans, graphs)) {
    result.metrics.push_back(std::move(m));
  }
  for (Metric& m : kernel_rates(graphs, classifier.config())) {
    result.metrics.push_back(std::move(m));
  }
  if (!probe_training) return;
  data::Dataset dataset;
  dataset.family_names = family_names;
  const std::size_t n = std::min(run.size.probe_graphs, graphs.size());
  std::vector<std::size_t> train(n);
  for (std::size_t i = 0; i < n; ++i) {
    graphs[i].label = labels[i];
    dataset.samples.push_back(std::move(graphs[i]));
    train[i] = i;
  }
  for (Metric& m : training_probe(classifier.config(), dataset, train, run.threads,
                                  run.opt.seed)) {
    result.metrics.push_back(std::move(m));
  }
}

// ---- scan_unique / scan_dup ----------------------------------------------

/// Listing indices reserved for each phase of a run: every phase sends
/// listings of its own.
constexpr std::size_t kPhaseListings = std::size_t{1} << 20;

struct SocketPhase {
  PhaseResult phase;
  std::vector<std::size_t> listings;  ///< the listing index each request sent
  Json stats;
  double peak_rss_mib = 0.0;
};

Result scan_workload(Run& run, bool dup) {
  const Sizing& size = run.size;
  const std::uint64_t seed = run.opt.seed;
  const double rate = dup ? size.dup_rate : size.unique_rate;
  // Rounds of an open-loop phase and a closed-loop phase, each on a freshly
  // started daemon, so a slow spell of the host moves a part of every
  // metric rather than all of one. A traced run has two open-loop phases,
  // untraced then traced, and no closed loop.
  const std::size_t rounds = run.opt.trace ? 2 : size.scan_rounds;
  const auto open_requests = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(rate * run.opt.seconds / static_cast<double>(rounds))));
  const std::string model = run.model("scan");
  const core::MagicClassifier reference = core::MagicClassifier::load(model);

  Result result;
  std::vector<double> setup;
  std::size_t phases = 0;
  std::size_t warmups = 0;
  // Runs `load` on a fresh daemon, which a warm-up request far from any
  // phase's listings brings up; checks the responses and the reference.
  auto run_phase = [&](const std::string& name, SocketLoad load) {
    const std::size_t n = load.schedule.empty() ? load.requests : load.schedule.size();
    const std::size_t first = phases * kPhaseListings;
    std::vector<std::uint32_t> traffic(n);
    if (dup) {
      traffic = dup_traffic(n, 0.9, 256, mix_seed(seed, 10 + phases));
    } else {
      std::iota(traffic.begin(), traffic.end(), 0u);
    }
    const std::vector<std::size_t> checked =
        sample_indices(n, size.checked, mix_seed(seed, 100 + phases));
    ++phases;
    const std::uint32_t distinct =
        traffic.empty() ? 0 : *std::max_element(traffic.begin(), traffic.end()) + 1;
    const std::vector<std::string> payloads =
        base64_all(make_listings(FamilyMix::Yancfg, seed, first, distinct, run.pool), run.pool);
    load.payloads = &payloads;
    load.traffic = &traffic;
    load.keep_probabilities = keep_mask(n, checked);

    SocketPhase out;
    out.listings.reserve(n);
    for (std::uint32_t i : traffic) out.listings.push_back(first + i);
    bool clean_exit = false;
    {
      const std::string socket = run.next_socket();
      MagicdProcess daemon(run.opt.magicd, model, socket, "magicd.log");
      const std::string warmup =
          request_line('w', 0, "b64",
                       serve::wire::base64_encode(
                           listing_at(FamilyMix::Yancfg, seed, kWarmupFirst + warmups++)));
      const double setup_s = socket_cold_start(daemon, socket, warmup, 60.0);
      if (setup_s < 0) {
        out.phase.error = "magicd did not come up";
      } else {
        setup.push_back(setup_s);
        out.phase = run_socket_load(socket, load);
      }
      out.peak_rss_mib = daemon.peak_rss_mib();
      clean_exit = daemon.stop(std::chrono::seconds(10));
    }
    if (!out.phase.stats_line.empty()) out.stats = Json::parse(out.phase.stats_line);
    const std::size_t mismatches =
        reference_mismatches(run, reference, out.phase, checked, [&](std::size_t k) {
          return listing_at(FamilyMix::Yancfg, seed, out.listings[k]);
        });
    result.failed += gate_phase(result, name, out.phase, mismatches, clean_exit);
    if (!out.phase.stats_line.empty() && !dup) {
      result.gate(cache_hit_rate(out.stats) == 0.0, name + ": cache hits on unique traffic");
    }
    return out;
  };
  auto open_phase = [&](const std::string& name) {
    SocketLoad load;
    load.schedule = poisson_schedule(rate, open_requests, mix_seed(seed, 200 + phases));
    load.timeout_s = 3.0 * load.schedule.back() + 30.0;
    return run_phase(name, std::move(load));
  };

  if (run.opt.trace) {
    OpenLoopLatency untraced, traced;
    const SocketPhase plain = open_phase("open loop (untraced)");
    untraced.add(plain.phase);
    const SocketPhase p = open_phase("open loop (traced)");
    traced.add(p.phase);
    record_client_spans(run.spans, p.phase);
    if (!p.phase.stats_line.empty()) {
      result.metrics = serve_layer_metrics(p.stats, result.extras);
    }
    result.extras.push_back({"client.late_ms.p99", traced.late_p99_ms(), "ms"});
    result.extras.push_back(
        {"trace_overhead_pct", (traced.p50_ms() / untraced.p50_ms() - 1.0) * 100.0, "%"});
    std::vector<int> labels;
    const std::vector<std::string> inputs =
        listings_at(run, FamilyMix::Yancfg, plain.listings, size.replay_inputs, labels);
    replay_and_probe(run, result, inputs, labels, family_names(FamilyMix::Yancfg), reference,
                     true);
    return result;
  }

  OpenLoopLatency latency;
  CacheCount open_cache, closed_cache;
  std::vector<double> closed_rates;  // ok verdicts per second of each closed loop
  std::vector<double> peaks;  // per round, the larger of its two daemons' peaks
  for (std::size_t r = 0; r < rounds; ++r) {
    const SocketPhase open = open_phase("open loop " + std::to_string(r));
    latency.add(open.phase);
    SocketLoad closed_load;
    closed_load.requests = dup ? size.dup_closed : size.unique_closed;
    const SocketPhase closed = run_phase("closed loop " + std::to_string(r), closed_load);
    const auto ok = static_cast<double>(closed.phase.outcomes.size() - closed.phase.not_ok());
    closed_rates.push_back(closed.phase.wall_s > 0 ? ok / closed.phase.wall_s : 0.0);
    peaks.push_back(std::max(open.peak_rss_mib, closed.peak_rss_mib));
    if (!open.phase.stats_line.empty()) open_cache.add(open.stats);
    if (!closed.phase.stats_line.empty()) closed_cache.add(closed.stats);
  }

  result.metrics = {
      {"setup_s", median(setup), "s"},
      {"p50_ms", latency.p50_ms(), "ms"},
      {"graphs_per_s", median(closed_rates), "graphs/s"},
      {"rss_peak_mb", median(peaks), "MiB"},
  };
  result.extras = latency.extras();
  result.extras.push_back({"setup.samples", static_cast<double>(setup.size()), "count"});
  result.extras.push_back({"cache.hit_rate.open_loop", open_cache.rate(), "fraction"});
  result.extras.push_back({"cache.hit_rate.closed_loop", closed_cache.rate(), "fraction"});
  return result;
}

// ---- bulk_stdio ---------------------------------------------------------------

Result bulk_workload(Run& run) {
  const Sizing& size = run.size;
  const std::uint64_t seed = run.opt.seed;
  // Phases of distinct listings until their timed parts add up to --seconds,
  // each through a freshly started daemon whose cold start is a set-up
  // sample. A traced run has two phases, untraced then traced.
  //
  // One request is outstanding at a time, so every micro-batch holds one
  // graph. With more in flight, how many requests each batch packs depends
  // on timing, and with this model a packed forward costs more per graph
  // than a single one: a slower spell of the host queued more requests,
  // packed bigger batches and slowed the daemon further, and the phases'
  // throughput spread by 0.3 between identical runs.
  const std::size_t per_phase = size.bulk_listings;
  const std::string model = run.model("mskcfg");
  const core::MagicClassifier reference = core::MagicClassifier::load(model);
  const fs::path dir = "bulk_" + std::to_string(::getpid());
  auto write_file = [&](const std::string& name, const std::string& text) {
    std::ofstream(dir / name) << text;
    return (dir / name).string();
  };

  Result result;
  struct StdioPhase {
    PhaseResult phase;
    Json stats;
    double setup_s = -1.0;  ///< fork to the warm-up verdict; negative on failure
    double peak_rss_mib = 0.0;
  };
  // Listings [p * per_phase, (p + 1) * per_phase), written to files that one
  // fresh daemon reads as `path` requests.
  auto bulk_phase = [&](const std::string& name, std::size_t p) {
    const std::size_t first = p * per_phase;
    fs::create_directories(dir);
    StdioLoad load;
    {
      const std::vector<std::string> listings =
          make_listings(FamilyMix::Mskcfg, seed, first, per_phase, run.pool);
      for (std::size_t k = 0; k < per_phase; ++k) {
        load.lines.push_back(
            request_line('s', k, "path", write_file(std::to_string(k) + ".asm", listings[k])));
      }
    }
    const std::vector<std::size_t> checked =
        sample_indices(per_phase, size.checked, mix_seed(seed, 100 + p));
    load.keep_probabilities = keep_mask(per_phase, checked);
    load.window = 1;
    StdioLoad warmup;
    warmup.lines = {request_line(
        'w', 0, "path",
        write_file("warmup.asm", listing_at(FamilyMix::Mskcfg, seed, kWarmupFirst + p)))};
    warmup.after = StdioLoad::After::Nothing;
    warmup.timeout_s = 60.0;

    StdioPhase out;
    MagicdProcess daemon(run.opt.magicd, model, "", "magicd.log");
    const PhaseResult warm = run_stdio_load(daemon, warmup);
    if (!warm.error.empty() || warm.not_ok() != 0) {
      out.phase.error = "magicd did not come up";
    } else {
      out.setup_s = std::chrono::duration<double>(warm.start - daemon.started_at()).count() +
                    warm.outcomes[0].done_s;
      out.phase = run_stdio_load(daemon, load);
    }
    out.peak_rss_mib = daemon.peak_rss_mib();
    const bool clean = daemon.stop(std::chrono::seconds(10));
    fs::remove_all(dir);
    const std::size_t mismatches =
        reference_mismatches(run, reference, out.phase, checked, [&](std::size_t k) {
          return listing_at(FamilyMix::Mskcfg, seed, first + k);
        });
    result.failed += gate_phase(result, name, out.phase, mismatches, clean);
    if (!out.phase.stats_line.empty()) {
      out.stats = Json::parse(out.phase.stats_line);
      result.gate(cache_hit_rate(out.stats) == 0.0, name + ": cache hits on distinct listings");
    }
    return out;
  };
  // Each request's round trip: from writing its line to reading its verdict.
  auto round_trips = [](const PhaseResult& phase) {
    std::vector<double> ms;
    for (const Outcome& o : phase.outcomes) {
      if (o.ok) ms.push_back((o.done_s - o.sent_s) * 1e3);
    }
    return ms;
  };

  if (run.opt.trace) {
    const StdioPhase untraced = bulk_phase("bulk (untraced)", 0);
    const StdioPhase traced = bulk_phase("bulk (traced)", 1);
    auto at = [&](double s) {
      return traced.phase.start +
             std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
    };
    for (std::size_t k = 0; k < traced.phase.outcomes.size(); ++k) {
      const Outcome& o = traced.phase.outcomes[k];
      if (o.done_s >= 0) run.spans.add("client.request", k, -1, at(o.sent_s), at(o.done_s));
    }
    if (!traced.phase.stats_line.empty()) {
      result.metrics = serve_layer_metrics(traced.stats, result.extras);
    }
    result.extras.push_back({"trace_overhead_pct",
                             (median(round_trips(traced.phase)) /
                                  median(round_trips(untraced.phase)) -
                              1.0) * 100.0,
                             "%"});
    std::vector<std::size_t> first(size.replay_inputs);
    std::iota(first.begin(), first.end(), std::size_t{0});
    std::vector<int> labels;
    const std::vector<std::string> inputs =
        listings_at(run, FamilyMix::Mskcfg, first, size.replay_inputs, labels);
    replay_and_probe(run, result, inputs, labels, family_names(FamilyMix::Mskcfg), reference,
                     true);
    return result;
  }

  // Medians over the phases, so a slow spell of the host during one phase
  // barely moves them.
  std::vector<double> setup, latencies, phase_p50s, rates, peaks;
  double timed_s = 0.0;
  std::size_t phases = 0;
  while (phases < size.bulk_min_phases ||
         (phases < size.bulk_max_phases && timed_s < run.opt.seconds)) {
    const StdioPhase bulk = bulk_phase("bulk " + std::to_string(phases), phases);
    ++phases;
    if (!bulk.phase.error.empty()) break;
    const std::vector<double> ms = round_trips(bulk.phase);
    latencies.insert(latencies.end(), ms.begin(), ms.end());
    phase_p50s.push_back(quantile(ms, 0.5));
    timed_s += bulk.phase.wall_s;
    rates.push_back(bulk.phase.wall_s > 0 ? static_cast<double>(ms.size()) / bulk.phase.wall_s
                                          : 0.0);
    peaks.push_back(bulk.peak_rss_mib);
    if (bulk.setup_s > 0) setup.push_back(bulk.setup_s);
  }
  result.metrics = {
      {"setup_s", median(setup), "s"},
      {"p50_ms", median(phase_p50s), "ms"},
      {"graphs_per_s", median(rates), "graphs/s"},
      {"rss_peak_mb", median(peaks), "MiB"},
  };
  result.extras = tail_extras(latencies);
  result.extras.push_back({"bulk.phases", static_cast<double>(phases), "count"});
  result.extras.push_back({"setup.samples", static_cast<double>(setup.size()), "count"});
  return result;
}

// ---- train_epoch -----------------------------------------------------------

Result train_workload(Run& run) {
  const Sizing& size = run.size;
  const std::uint64_t seed = run.opt.seed;
  Result result;
  const Corpus corpus = make_corpus(FamilyMix::Yancfg, size.corpus_scale, seed, run.pool);

  // Set-up is the §V-E ACFG build: extract_batch over the corpus listings,
  // timed at the start, after the epochs and at the end.
  std::vector<double> setup;
  auto extract_corpus = [&] {
    util::Timer timer;
    std::vector<acfg::Acfg> graphs = acfg::extract_batch(corpus.listings, run.pool);
    setup.push_back(timer.seconds());
    return graphs;
  };
  std::vector<acfg::Acfg> graphs = extract_corpus();
  data::Dataset dataset;
  dataset.family_names = corpus.family_names;
  std::vector<std::size_t> train;  // 7 of every 8 graphs
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    graphs[i].label = corpus.labels[i];
    dataset.samples.push_back(std::move(graphs[i]));
    if (i % 8 != 0) train.push_back(i);
  }

  // Table II's best YANCFG model.
  core::DgcnnConfig config;
  config.pooling = core::PoolingType::AdaptivePooling;
  config.pooling_ratio = 0.2;
  config.graph_conv_channels = {32, 32, 32, 32};
  config.conv2d_channels = 16;
  config.dropout_rate = 0.5;

  // §V-E prediction cost: one classify() call per unseen graph, over a
  // second corpus with the same per-family counts (so the latency tail does
  // not hinge on how many large families a seed happens to draw), in random
  // order. The predictions are spread over the run, a slice after each
  // epoch, and the p50 is the median of the slices' p50s, so a slow spell of
  // the host moves only a few of them. A traced run times every other slice
  // inside spans.
  std::vector<acfg::Acfg> unseen = acfg::extract_batch(
      make_corpus(FamilyMix::Yancfg, size.prediction_scale, mix_seed(seed, 1), run.pool).listings,
      run.pool);
  util::Rng(mix_seed(seed, 2)).shuffle(unseen);
  // Eight slices; rounding up leaves no short last slice whose p50 would
  // count as much as a full one.
  const std::size_t slice = std::max<std::size_t>(1, (unseen.size() + 7) / 8);
  core::PredictOptions single;
  single.threads = 1;
  std::vector<double> latencies, traced_latencies, slice_p50s;
  std::size_t predicted = 0;
  auto predict_slice = [&](const core::MagicClassifier& classifier) {
    const std::size_t begin = predicted;
    predicted = std::min(unseen.size(), begin + slice);
    const bool traced = run.opt.trace && (begin / slice) % 2 == 1;
    // Untimed: the first call builds the classifier's scoring replica.
    classifier.classify(std::span(&unseen[begin], 1), single);
    for (std::size_t i = begin; i < predicted; ++i) {
      const std::size_t span = traced ? run.spans.open("magic.classify", i) : 0;
      util::Timer timer;
      const core::Prediction p = classifier.classify(std::span(&unseen[i], 1), single).at(0);
      (traced ? traced_latencies : latencies).push_back(timer.millis());
      if (traced) run.spans.close(span);
      result.attempted += 1;
      if (p.family_index >= dataset.num_families()) ++result.failed;
    }
    if (!traced) {
      slice_p50s.push_back(quantile(
          {latencies.end() - static_cast<std::ptrdiff_t>(predicted - begin), latencies.end()}, 0.5));
    }
  };

  if (run.opt.trace) {
    obs::MetricsRegistry::global().reset_values();
    obs::set_enabled(true);
  }
  std::vector<double> epoch_s;
  std::unique_ptr<core::MagicClassifier> trained;
  util::Timer elapsed;
  auto training = [&] {
    return epoch_s.size() < size.min_fits || elapsed.seconds() < run.opt.seconds;
  };
  while (training() || predicted < unseen.size()) {
    if (training()) {
      EpochRun fit = fit_one_epoch(config, dataset, train, run.threads, seed);
      epoch_s.push_back(fit.seconds);
      trained = std::move(fit.classifier);
    }
    predict_slice(*trained);
  }
  obs::set_enabled(false);
  result.gate(result.failed == 0, "classify returned an unknown family");
  result.attempted += epoch_s.size() * train.size();
  extract_corpus();

  // Thread-count invariance: the epoch-1 loss at nproc threads is bitwise
  // the loss at 1 thread. Checked on a quarter of the training graphs, so
  // the serial epoch stays short.
  const std::vector<std::size_t> part(train.begin(),
                                      train.begin() + static_cast<std::ptrdiff_t>(train.size() / 4));
  const EpochRun parallel = fit_one_epoch(config, dataset, part, run.threads, seed);
  const EpochRun serial = fit_one_epoch(config, dataset, part, 1, seed);
  result.gate(std::memcmp(&parallel.first_loss, &serial.first_loss, sizeof(double)) == 0,
              "epoch-1 loss at " + std::to_string(run.threads) +
                  " threads differs from the loss at 1 thread");
  result.attempted += 2 * part.size();
  extract_corpus();

  if (!run.opt.trace) {
    const auto train_graphs = static_cast<double>(train.size());
    std::vector<double> rates;
    for (double s : epoch_s) rates.push_back(train_graphs / s);
    result.metrics = {
        {"setup_s", median(setup), "s"},
        {"p50_ms", median(slice_p50s), "ms"},
        {"graphs_per_s", median(rates), "graphs/s"},
        {"rss_peak_mb", vm_hwm_mib("/proc/self/status"), "MiB"},
    };
    result.extras = tail_extras(latencies);
    result.extras.push_back({"train.epochs", static_cast<double>(epoch_s.size()), "count"});
    result.extras.push_back({"train.graphs", train_graphs, "count"});
    return result;
  }

  // [S]: the trained model served by a stdio magicd over the corpus listings.
  const std::string model_path = "train_" + std::to_string(::getpid()) + ".model";
  trained->save(model_path);
  const fs::path dir = "train_" + std::to_string(::getpid());
  fs::create_directories(dir);
  StdioLoad load;
  for (std::size_t i = 0; i < corpus.listings.size(); ++i) {
    const fs::path file = dir / (std::to_string(i) + ".asm");
    std::ofstream(file) << corpus.listings[i];
    load.lines.push_back(request_line('s', i, "path", file.string()));
  }
  {
    MagicdProcess daemon(run.opt.magicd, model_path, "", "magicd.log");
    const PhaseResult served = run_stdio_load(daemon, load);
    const bool clean = daemon.stop(std::chrono::seconds(10));
    result.failed += gate_phase(result, "served model", served, 0, clean);
    std::vector<Metric> serve_metrics;
    if (!served.stats_line.empty()) {
      serve_metrics = serve_layer_metrics(Json::parse(served.stats_line), result.extras);
    }
    result.metrics = serve_metrics;
  }
  fs::remove_all(dir);
  fs::remove(model_path);

  result.extras.push_back(
      {"trace_overhead_pct", (median(traced_latencies) / median(latencies) - 1.0) * 100.0, "%"});
  for (Metric& m : training_metrics(serial.seconds / parallel.seconds)) {
    result.metrics.push_back(std::move(m));
  }
  const std::size_t n = std::min(size.replay_inputs, corpus.listings.size());
  const std::vector<std::string> inputs(corpus.listings.begin(),
                                        corpus.listings.begin() + static_cast<std::ptrdiff_t>(n));
  replay_and_probe(run, result, inputs, corpus.labels, corpus.family_names, *trained, false);
  return result;
}

// ---- Output -------------------------------------------------------------------

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string host_json(const Options& opt) {
#ifdef MAGIC_CHECKED_BUILD
  const bool checked = true;
#else
  const bool checked = false;
#endif
#ifdef MAGIC_OBS_BUILD
  const bool obs_build = true;
#else
  const bool obs_build = false;
#endif
  std::ostringstream os;
  os << "{\"cpu_model\":" << json_string(cpu_model()) << ",\"nproc\":" << online_cpus()
     << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
     << ",\"simd_level\":"
     << json_string(tensor::simd::level_name(tensor::simd::active_level()))
     << ",\"compiler\":" << json_string(MAGIC_BENCH_COMPILER)
     << ",\"build_type\":" << json_string(MAGIC_BENCH_BUILD_TYPE)
     << ",\"MAGIC_CHECKED_BUILD\":" << (checked ? "true" : "false")
     << ",\"MAGIC_OBS\":" << (obs_build ? "true" : "false")
     << ",\"MAGIC_NATIVE_ARCH\":" << (MAGIC_BENCH_NATIVE_ARCH ? "true" : "false")
     << ",\"git_sha\":" << json_string(opt.git_sha) << "}";
  return os.str();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? "," : "") << json_string(metrics[i].name) << ":{\"value\":"
        << json_number(metrics[i].value) << ",\"unit\":" << json_string(metrics[i].unit) << "}";
  }
  out << "}";
  return out.str();
}

std::string workload_json(const Result& r) {
  std::ostringstream out;
  out << "{\"correct\":" << (r.correct() ? "true" : "false") << ",\"attempted\":" << r.attempted
      << ",\"failed\":" << r.failed << ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    out << (i ? "," : "") << json_string(r.failures[i]);
  }
  out << "],\"metrics\":" << metrics_json(r.metrics) << ",\"extras\":" << metrics_json(r.extras)
      << "}";
  return out.str();
}

std::string result_file_json(const Options& opt, const std::string& workloads_object) {
  return "{\"schema\":\"magic_bench.result.v1\",\"host\":" + host_json(opt) +
         ",\"seed\":" + std::to_string(opt.seed) + ",\"seconds\":" + json_number(opt.seconds) +
         ",\"trace\":" + (opt.trace ? "true" : "false") +
         ",\"quick\":" + (opt.quick ? "true" : "false") +
         ",\"workloads\":" + workloads_object + "}\n";
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Replaces non-finite values (an empty sample) by 0 and fails the run.
void sanitize(Result& r) {
  for (auto* list : {&r.metrics, &r.extras}) {
    for (Metric& m : *list) {
      if (!std::isfinite(m.value)) {
        r.failures.push_back("metric " + m.name + " is not finite");
        m.value = 0.0;
      }
    }
  }
}

/// The machine-wide CPU time counters of /proc/stat: (steal, total), in
/// clock ticks.
std::pair<double, double> cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double steal = 0.0, total = 0.0, value = 0.0;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && stat >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

int run_one(const Options& opt) {
  Run run(opt, online_cpus());
  Result result;
  const auto [steal0, total0] = cpu_ticks();
  try {
    if (opt.workload == "scan_unique") result = scan_workload(run, false);
    else if (opt.workload == "scan_dup") result = scan_workload(run, true);
    else if (opt.workload == "bulk_stdio") result = bulk_workload(run);
    else result = train_workload(run);
  } catch (const std::exception& e) {
    result.failures.push_back(std::string("aborted: ") + e.what());
  }
  // How much CPU time the hypervisor took from this machine during the run:
  // a run with a high share measured the host more than the program.
  const auto [steal1, total1] = cpu_ticks();
  result.extras.push_back({"host.steal_pct",
                           total1 > total0 ? 100.0 * (steal1 - steal0) / (total1 - total0) : 0.0,
                           "%"});
  sanitize(result);

  for (const std::string& f : result.failures) std::cerr << "FAIL " << opt.workload << ": " << f << "\n";
  std::cout << opt.workload << (opt.trace ? " (traced)" : "") << ": " << result.attempted
            << " attempted, " << result.failed << " failed\n";
  for (const auto* list : {&result.metrics, &result.extras}) {
    for (const Metric& m : *list) {
      std::cout << "  " << m.name << " = " << m.value << " " << m.unit
                << (list == &result.extras ? "  (not gated)" : "") << "\n";
    }
  }
  if (!opt.out.empty()) {
    const std::string dir = fs::path(opt.out).parent_path().string();
    write_text(opt.out, result_file_json(opt, "{" + json_string(opt.workload) + ":" +
                                                   workload_json(result) + "}"));
    if (opt.trace) {
      run.spans.write_json((dir.empty() ? "" : dir + "/") + "TRACE_" + opt.workload + ".json",
                           opt.workload);
    }
  }
  std::cout << "{\"correct\":" << (result.correct() ? "true" : "false")
            << ",\"attempted\":" << result.attempted << ",\"failed\":" << result.failed
            << ",\"metrics\":" << metrics_json(result.metrics) << "}" << std::endl;
  return result.correct() ? 0 : 1;
}

/// Runs every workload in a child process of its own (so each starts with
/// a fresh heap and its own peak-RSS count) and merges their result files.
int run_all(const Options& opt) {
  const std::string exe = fs::read_symlink("/proc/self/exe").string();
  std::string workloads = "{";
  std::vector<Metric> combined;
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t w = 0; w < kWorkloads.size(); ++w) {
    const std::string& name = kWorkloads[w];
    const std::string part = fs::absolute("part_" + name + ".json").string();
    std::vector<std::string> args = {exe, "--workload", name, "--seed", std::to_string(opt.seed),
                                     "--seconds", json_number(opt.seconds),
                                     "--trace", opt.trace ? "1" : "0", "--magicd", opt.magicd,
                                     "--work", ".", "--models", opt.models,
                                     "--out", part, "--git-sha", opt.git_sha};
    if (opt.quick) args.push_back("--quick");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::cout.flush();
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    int status = 0;
    while (pid > 0 && ::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    const bool exited_ok = pid > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    correct = correct && exited_ok;
    std::ifstream in(part);
    std::stringstream text;
    text << in.rdbuf();
    try {
      const Json document = Json::parse(text.str());
      const Json& r = document.at({"workloads", name});
      if (w) workloads += ',';
      workloads += json_string(name) + ":" + r.dump();
      attempted += static_cast<std::uint64_t>(r.at({"attempted"}).number());
      failed += static_cast<std::uint64_t>(r.at({"failed"}).number());
      for (const auto& [metric, value] : r.at({"metrics"}).members()) {
        combined.push_back({name + "." + metric, value.at({"value"}).number(),
                            value.at({"unit"}).string()});
      }
    } catch (const std::exception& e) {
      std::cerr << "FAIL " << name << ": no result (" << e.what() << ")\n";
      correct = false;
    }
    fs::remove(part);
  }
  if (!opt.out.empty()) write_text(opt.out, result_file_json(opt, workloads + "}"));
  std::cout << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
            << ",\"failed\":" << failed << ",\"metrics\":" << metrics_json(combined) << "}"
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A vanished magicd must surface as EPIPE on write, not kill the bench.
  std::signal(SIGPIPE, SIG_IGN);
  // 1 µs timer slack: the open-loop generator sleeps until each send time.
  ::prctl(PR_SET_TIMERSLACK, 1000UL);
  util::set_log_level(util::LogLevel::Warn);
  Options opt = parse(argc, argv);
  try {
    opt.magicd = fs::absolute(opt.magicd).string();
    if (!fs::exists(opt.magicd)) {
      std::cerr << "magic_bench: no magicd at " << opt.magicd << "\n";
      return 2;
    }
    if (!opt.out.empty()) opt.out = fs::absolute(opt.out).string();
    if (opt.models.empty()) opt.models = opt.work + "/models";
    opt.models = fs::absolute(opt.models).string();
    fs::create_directories(opt.work);
    fs::create_directories(opt.models);
    // Sockets, listings and logs are created relative to the work dir,
    // which keeps socket paths short.
    fs::current_path(opt.work);
    if (!ensure_models(opt)) return 1;
    return opt.workload == "all" ? run_all(opt) : run_one(opt);
  } catch (const std::exception& e) {
    std::cerr << "magic_bench: " << e.what() << "\n";
    return 1;
  }
}

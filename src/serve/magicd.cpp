// magicd: the MAGIC scan daemon (the resident half of the paper's §VII
// cloud deployment).
//
// Serving (requires a trained model, see model_io.cpp for the format):
//   magicd --model FILE                     stdio mode: newline-delimited
//                                           requests on stdin, JSON verdicts
//                                           on stdout (see serve/wire.hpp)
//   magicd --model FILE --socket PATH      Unix-domain-socket daemon (one
//                                           epoll event loop; any number of
//                                           concurrent clients); graceful
//                                           drain on SIGTERM/SIGINT
// The daemon serves a versioned model registry: the --model checkpoint is
// version --model-version (default "v1"); more versions load at startup
// (--load NAME=FILE) or live (`reload NAME FILE` on the wire, which also
// hot-swaps the default without dropping in-flight requests). Shadow mode
// (--shadow NAME:FRACTION, or `shadow NAME FRACTION` on the wire) mirrors a
// fraction of traffic to a candidate version and counts family agreement.
// Tuning: --workers N --queue N --batch N (most queued requests a worker
//         scores as one pack; it never waits for more) --deadline-ms D
//         --cache-bytes N (verdict-cache budget; 0 disables; default 64 MiB)
//         --io-workers N (socket daemon's extraction workers)
//
// Bootstrap (demo/CI; no real corpus required):
//   magicd --selftrain FILE [--samples-dir DIR] [--scale F] [--epochs N]
//                                           trains a small classifier on the
//                                           synthetic YANCFG-style corpus,
//                                           saves it to FILE and optionally
//                                           writes demo listings to DIR.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/corpus.hpp"
#include "data/program_generator.hpp"
#include "magic/classifier.hpp"
#include "obs/metrics.hpp"
#include "serve/daemon.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "tensor/simd/dispatch.hpp"
#include "util/join_thread.hpp"
#include "util/logging.hpp"
#include "util/mutex.hpp"
#include "util/timer.hpp"

namespace {

using namespace magic;

struct Options {
  std::string model_path;
  std::string selftrain_path;
  std::string samples_dir;
  std::string socket_path;
  std::string model_version = "v1";
  /// Extra versions to load at startup: (name, checkpoint path).
  std::vector<std::pair<std::string, std::string>> preload;
  /// Startup shadow spec: (version, fraction); empty version = off.
  std::string shadow_version;
  double shadow_fraction = 0.0;
  std::size_t io_workers = 0;
  serve::ServeConfig serve;
  double scale = 0.004;
  std::size_t epochs = 12;
  /// Selftrain graph-convolution operator ("paper", "sage" or "tag").
  std::string op = "paper";
  std::uint64_t seed = 13;
  /// Period of the stats flush to the log (0 = off).
  std::size_t stats_every_s = 0;
  bool log_json = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --model FILE [--socket PATH]\n"
      << "           [--model-version NAME] [--load NAME=FILE ...]\n"
      << "           [--shadow NAME:FRACTION] [--io-workers N]\n"
      << "           [--workers N] [--queue N] [--batch N] [--deadline-ms D]\n"
      << "           [--cache-bytes N] [--stats-every SECS]\n"
      << "           [--log-json]\n"
      << "       " << argv0 << " --selftrain FILE [--samples-dir DIR]\n"
      << "           [--scale F] [--epochs N] [--seed S] [--op paper|sage|tag]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  // The daemon caches by default: repeated uploads of the same binary are
  // the common case a resident scanner exists for. --cache-bytes 0 disables.
  opt.serve.cache_bytes = 64ull << 20;
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  // Numeric conversions must not leak exceptions out of parse(): a bad flag
  // value ("--workers abc") prints the usage message instead of aborting.
  auto numeric = [&](auto convert, const std::string& value) {
    try {
      std::size_t consumed = 0;
      const auto parsed = convert(value, &consumed);
      if (consumed != value.size()) usage(argv[0]);
      return parsed;
    } catch (const std::exception&) {
      usage(argv[0]);
    }
  };
  auto as_ul = [&](const std::string& v) {
    return numeric([](const std::string& s, std::size_t* pos) { return std::stoul(s, pos); }, v);
  };
  auto as_l = [&](const std::string& v) {
    return numeric([](const std::string& s, std::size_t* pos) { return std::stol(s, pos); }, v);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--model") opt.model_path = need_value(i);
    else if (arg == "--selftrain") opt.selftrain_path = need_value(i);
    else if (arg == "--samples-dir") opt.samples_dir = need_value(i);
    else if (arg == "--socket") opt.socket_path = need_value(i);
    else if (arg == "--workers") opt.serve.workers = as_ul(need_value(i));
    else if (arg == "--queue") opt.serve.queue_capacity = as_ul(need_value(i));
    else if (arg == "--batch") opt.serve.max_batch = as_ul(need_value(i));
    else if (arg == "--deadline-ms")
      opt.serve.default_deadline = std::chrono::milliseconds(as_l(need_value(i)));
    else if (arg == "--cache-bytes") opt.serve.cache_bytes = as_ul(need_value(i));
    else if (arg == "--io-workers") opt.io_workers = as_ul(need_value(i));
    else if (arg == "--model-version") opt.model_version = need_value(i);
    else if (arg == "--load") {
      const std::string spec = need_value(i);
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) usage(argv[0]);
      opt.preload.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    }
    else if (arg == "--shadow") {
      const std::string spec = need_value(i);
      const std::size_t colon = spec.rfind(':');
      if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) usage(argv[0]);
      opt.shadow_version = spec.substr(0, colon);
      opt.shadow_fraction = numeric(
          [](const std::string& s, std::size_t* pos) { return std::stod(s, pos); },
          spec.substr(colon + 1));
      if (opt.shadow_fraction < 0.0 || opt.shadow_fraction > 1.0) usage(argv[0]);
    }
    else if (arg == "--scale")
      opt.scale = numeric([](const std::string& s, std::size_t* pos) { return std::stod(s, pos); },
                          need_value(i));
    else if (arg == "--stats-every") opt.stats_every_s = as_ul(need_value(i));
    else if (arg == "--log-json") opt.log_json = true;
    else if (arg == "--epochs") opt.epochs = as_ul(need_value(i));
    else if (arg == "--op") opt.op = need_value(i);
    else if (arg == "--seed")
      opt.seed = numeric([](const std::string& s, std::size_t* pos) { return std::stoull(s, pos); },
                         need_value(i));
    else usage(argv[0]);
  }
  if (opt.model_path.empty() == opt.selftrain_path.empty()) usage(argv[0]);
  return opt;
}

int selftrain(const Options& opt) {
  util::ThreadPool pool;
  std::cerr << "magicd: generating a YANCFG-style corpus (scale " << opt.scale
            << ")...\n";
  data::Dataset corpus = data::yancfg_like_corpus(opt.scale, opt.seed, pool);
  std::cerr << "magicd: " << corpus.size() << " samples, "
            << corpus.num_families() << " families; training "
            << opt.epochs << " epochs...\n";

  core::DgcnnConfig config;
  config.pooling = core::PoolingType::AdaptivePooling;
  config.pooling_ratio = 0.2;
  config.graph_conv_channels = {32, 32};
  config.dropout_rate = 0.5;
  config.graph_conv_op = nn::parse_graph_conv_operator(opt.op);
  core::TrainOptions train;
  train.epochs = opt.epochs;
  train.batch_size = 10;
  train.learning_rate = 3e-3;
  train.weight_decay = 1e-4;
  train.balance_families = true;
  train.balance_strength = 0.5;

  core::MagicClassifier clf(config, train, opt.seed);
  util::Timer timer;
  clf.fit(corpus, 0.15);
  std::cerr << "magicd: trained in " << timer.seconds() << "s\n";
  clf.save(opt.selftrain_path);
  std::cerr << "magicd: model saved to " << opt.selftrain_path << "\n";

  if (!opt.samples_dir.empty()) {
    std::filesystem::create_directories(opt.samples_dir);
    const auto specs = data::yancfg_family_specs();
    std::size_t written = 0;
    for (const std::size_t family : {std::size_t{3}, std::size_t{9}, std::size_t{1}}) {
      data::ProgramGenerator gen(specs[family], util::Rng(opt.seed * 100 + family));
      const std::string path = opt.samples_dir + "/" + specs[family].name + ".asm";
      std::ofstream out(path);
      out << gen.generate_listing();
      if (!out) {
        std::cerr << "magicd: cannot write " << path << "\n";
        return 1;
      }
      ++written;
    }
    std::cerr << "magicd: wrote " << written << " demo listings to "
              << opt.samples_dir << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A client (or shell pipe) that vanishes mid-response must surface as a
  // write error, not a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    const Options opt = parse(argc, argv);
    if (opt.log_json) util::set_log_format(util::LogFormat::Json);
    // The daemon always collects metrics: the `stats` wire command and the
    // periodic flush both read the process-wide registry.
    obs::set_enabled(true);
    if (!opt.selftrain_path.empty()) return selftrain(opt);

    auto clf = std::make_unique<core::MagicClassifier>(
        core::MagicClassifier::load(opt.model_path));
    const std::size_t families = clf->family_names().size();
    const char* conv_op =
        nn::graph_conv_operator_name(clf->config().graph_conv_op);
    serve::ModelRegistry registry(opt.model_version, std::move(clf), opt.serve);
    for (const auto& [name, path] : opt.preload) {
      registry.load_version(name, path, /*make_default=*/false);
      std::cerr << "magicd: loaded version " << name << " from " << path << "\n";
    }
    if (!opt.shadow_version.empty()) {
      registry.set_shadow(opt.shadow_version, opt.shadow_fraction);
      std::cerr << "magicd: shadowing " << opt.shadow_fraction
                << " of traffic to version " << opt.shadow_version << "\n";
    }
    std::cerr << "magicd: model " << opt.model_path << " (version "
              << opt.model_version << ", " << families << " families), "
              << opt.serve.workers << " workers, queue "
              << opt.serve.queue_capacity << ", batch "
              << opt.serve.max_batch << ", cache "
              << (opt.serve.cache_bytes == 0
                      ? std::string("off")
                      : std::to_string(opt.serve.cache_bytes >> 20) + " MiB")
              << ", simd "
              << tensor::simd::level_name(tensor::simd::active_level())
              << ", op " << conv_op << "\n";

    // Optional periodic stats flush: the same payload as the `stats` wire
    // command, logged at Info every --stats-every seconds. Stopped via a
    // condition variable so shutdown never waits out a full period.
    std::atomic<bool> stats_stop{false};
    util::Mutex stats_mutex;  // magic-lint: guards(the stop handshake below)
    util::CondVar stats_cv;
    util::JoinThread stats_thread;
    if (opt.stats_every_s > 0) {
      stats_thread = util::JoinThread([&] {
        const auto period = std::chrono::seconds(opt.stats_every_s);
        util::MutexLock lock(stats_mutex);
        for (;;) {
          // Deadline-based wait so a spurious wakeup never shortens (or a
          // notify never stretches) the logging period.
          const auto deadline = std::chrono::steady_clock::now() + period;
          while (!stats_stop.load(std::memory_order_relaxed) &&
                 stats_cv.wait_until(lock, deadline) != std::cv_status::timeout) {
          }
          if (stats_stop.load(std::memory_order_relaxed)) return;
          MAGIC_CLOG(util::LogLevel::Info, "serve",
                     "stats " << registry.stats_json());
        }
      });
    }
    auto stop_stats_thread = [&] {
      if (!stats_thread.joinable()) return;
      {
        // The store happens under the mutex so a waiter between its flag
        // check and its wait cannot miss the notify.
        util::MutexLock lock(stats_mutex);
        stats_stop.store(true, std::memory_order_relaxed);
      }
      stats_cv.notify_all();
      stats_thread.join();
    };

    std::uint64_t served = 0;
    if (opt.socket_path.empty()) {
      std::cerr << "magicd: serving stdio (one request per line; 'quit' ends)\n";
      served = serve::serve_stream(STDIN_FILENO, STDOUT_FILENO, registry);
      registry.drain();
    } else {
      std::cerr << "magicd: listening on " << opt.socket_path << "\n";
      serve::DaemonOptions daemon;
      daemon.socket_path = opt.socket_path;
      daemon.io_workers = opt.io_workers;
      served = serve::run_unix_daemon(registry, daemon);
    }
    stop_stats_thread();
    const serve::ServerStats stats = registry.default_server_stats();
    std::cerr << "magicd: drained; served " << served << " requests ("
              << stats.completed << " ok, " << stats.rejected_full
              << " rejected, " << stats.expired << " expired, " << stats.failed
              << " failed)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "magicd: fatal: " << e.what() << "\n";
    return 1;
  }
}

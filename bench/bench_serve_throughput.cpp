// bench_serve_throughput: serving-layer scaling sweep.
//
// Trains a small YANCFG-style model once, pre-extracts a fixed ACFG sample
// set, then measures InferenceServer throughput across
//   workers x {micro-batching off, micro-batching on}
// and writes the sweep (plus latency percentiles) to BENCH_serve.json.
//
// The headline number is speedup_8w_batched: 8-worker batched throughput
// over 1-worker unbatched. It only manifests on multi-core hardware, so the
// JSON records hardware_concurrency alongside the measurements (CI runs
// this on a multi-core runner; a 1-core container will honestly report ~1x).
//
// A second section measures connection scaling of the epoll socket daemon:
// 64 / 256 / 1024 concurrent Unix-socket clients, one scan request each,
// through a single event loop (RLIMIT_NOFILE is raised to the hard limit
// first). The section goes into BENCH_serve.json as "connections" and the
// process exits nonzero if any client fails to connect or any verdict is
// not ok — CI doubles as the >=1024-concurrent-connections gate.
//
// A third section compares packed block-diagonal scoring with one graph at
// a time — directly (one classify() over every graph against a loop of
// one-graph classify() calls, threads=1) and at the serving layer
// (max_batch 8 against 1, same worker count) — and writes the comparison to
// BENCH_batch.json. The process exits nonzero if the two disagree (>1e-9
// relative) or the batched serve point never packed a batch, so CI doubles
// as an equivalence gate.
//
// Flags:
//   --samples N    scan requests per sweep point (default 400)
//   --scale S      training-corpus scale (default 0.002)
//   --epochs N     training epochs (default 6)
//   --seed X       master seed (default 2019)
//   --out FILE     JSON output path (default BENCH_serve.json)
//   --batch-out FILE  packed-vs-per-sample JSON path (default BENCH_batch.json)
//   --quick        tiny sweep for smoke runs (fewer samples, epochs)
//   --metrics-out FILE  enable magic::obs and dump the process-wide metrics
//                  snapshot (serve.* counters + latency histogram,
//                  extraction spans, trainer phases) as JSON

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "acfg/extractor.hpp"
#include "data/corpus.hpp"
#include "data/program_generator.hpp"
#include "magic/classifier.hpp"
#include "obs/metrics.hpp"
#include "serve/daemon.hpp"
#include "serve/scan_service.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace magic;

struct Options {
  std::size_t samples = 400;
  double scale = 0.002;
  std::size_t epochs = 6;
  std::uint64_t seed = 2019;
  std::string out = "BENCH_serve.json";
  std::string batch_out = "BENCH_batch.json";
  std::string metrics_out;
  bool quick = false;
};

struct SweepPoint {
  std::size_t workers = 0;
  bool batched = false;
  double seconds = 0.0;
  double throughput = 0.0;  // requests / second
  serve::ServerStats stats;
};

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--samples") opt.samples = std::stoul(next("--samples"));
    else if (arg == "--scale") opt.scale = std::stod(next("--scale"));
    else if (arg == "--epochs") opt.epochs = std::stoul(next("--epochs"));
    else if (arg == "--seed") opt.seed = std::stoull(next("--seed"));
    else if (arg == "--out") opt.out = next("--out");
    else if (arg == "--batch-out") opt.batch_out = next("--batch-out");
    else if (arg == "--metrics-out") opt.metrics_out = next("--metrics-out");
    else if (arg == "--quick") opt.quick = true;
    else {
      std::cerr << "unknown flag " << arg << "\n"
                << "usage: bench_serve_throughput [--samples N] [--scale S] "
                   "[--epochs N] [--seed X] [--out FILE] [--batch-out FILE] "
                   "[--quick] [--metrics-out FILE]\n";
      std::exit(2);
    }
  }
  if (opt.quick) {
    opt.samples = std::min<std::size_t>(opt.samples, 80);
    opt.epochs = std::min<std::size_t>(opt.epochs, 3);
  }
  return opt;
}

/// Fresh polymorphic scan listings from a few YANCFG family specs.
std::vector<std::string> make_listings(std::size_t count, std::uint64_t seed) {
  const auto specs = data::yancfg_family_specs();
  const std::size_t families[] = {1, 3, 9};  // Benign, Hupigon, Swizzor
  std::vector<data::ProgramGenerator> generators;
  generators.reserve(std::size(families));
  for (std::size_t f : families) {
    generators.emplace_back(specs[f], util::Rng(seed ^ (0xBEEF + f)));
  }
  std::vector<std::string> listings;
  listings.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    listings.push_back(generators[i % generators.size()].generate_listing());
  }
  return listings;
}

/// Scan workload extracted to ACFGs up front so the sweep measures serving,
/// not the frontend.
std::vector<acfg::Acfg> make_workload(std::size_t count, std::uint64_t seed,
                                      util::ThreadPool& pool) {
  return acfg::extract_batch(make_listings(count, seed), pool);
}

SweepPoint run_point(const core::MagicClassifier& clf,
                     const std::vector<acfg::Acfg>& workload,
                     std::size_t workers, bool batched) {
  serve::ServeConfig config;
  config.workers = workers;
  config.queue_capacity = workload.size() + 1;  // sweep measures throughput, not sheds
  config.max_batch = batched ? 8 : 1;
  serve::InferenceServer server(clf, config);

  std::vector<serve::PendingVerdict> handles;
  handles.reserve(workload.size());
  util::Timer timer;
  for (const acfg::Acfg& sample : workload) {
    handles.push_back(server.submit(sample));
  }
  std::size_t ok = 0;
  for (auto& handle : handles) {
    if (handle.get().ok()) ++ok;
  }
  SweepPoint point;
  point.workers = workers;
  point.batched = batched;
  point.seconds = timer.seconds();
  point.throughput = point.seconds > 0.0
                         ? static_cast<double>(ok) / point.seconds
                         : 0.0;
  point.stats = server.stats();
  if (ok != workload.size()) {
    std::cerr << "warning: only " << ok << "/" << workload.size()
              << " requests resolved ok at workers=" << workers << "\n";
  }
  return point;
}

std::string json_point(const SweepPoint& p) {
  std::ostringstream os;
  os << "{\"workers\":" << p.workers
     << ",\"batched\":" << (p.batched ? "true" : "false")
     << ",\"seconds\":" << p.seconds
     << ",\"throughput_rps\":" << p.throughput
     << ",\"mean_batch_size\":" << p.stats.mean_batch_size()
     << ",\"packed_batches\":" << p.stats.packed_batches
     << ",\"latency_p50_ms\":" << p.stats.latency_p50_ms
     << ",\"latency_p95_ms\":" << p.stats.latency_p95_ms
     << ",\"latency_p99_ms\":" << p.stats.latency_p99_ms << "}";
  return os.str();
}

// ---- Connection scaling over the epoll socket daemon ----------------------

struct ConnectionPoint {
  std::size_t connections = 0;  ///< target
  std::size_t connected = 0;    ///< actually established
  std::size_t ok = 0;           ///< ok verdicts received
  double connect_seconds = 0.0;
  double serve_seconds = 0.0;
  double throughput = 0.0;  ///< ok verdicts / serve_seconds
};

/// Lifts RLIMIT_NOFILE toward the hard limit: each benched connection costs
/// two fds (client end + daemon end), so the 1024-connection point needs
/// more than the common 1024 soft default.
bool raise_nofile_limit(rlim_t need) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return false;
  if (lim.rlim_cur >= need) return true;
  lim.rlim_cur = lim.rlim_max == RLIM_INFINITY
                     ? need
                     : std::min<rlim_t>(lim.rlim_max, need);
  ::setrlimit(RLIMIT_NOFILE, &lim);
  return ::getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur >= need;
}

/// One connection-scaling point: a real magicd event loop on a Unix socket,
/// `connections` concurrent clients, one base64 scan request per client
/// (all pipelined before any response is read, so every connection is
/// simultaneously active).
ConnectionPoint run_connection_point(core::MagicClassifier& clf,
                                     std::size_t connections,
                                     const std::vector<std::string>& requests) {
  serve::ServeConfig config;
  config.workers = 4;
  config.queue_capacity = connections + 16;
  config.max_batch = 8;
  serve::InferenceServer server(clf, config);
  serve::ServerScanService service(server);
  std::atomic<bool> stop{false};
  serve::DaemonOptions options;
  options.socket_path = "/tmp/bench_magicd_" + std::to_string(::getpid()) +
                        "_" + std::to_string(connections) + ".sock";
  options.handle_signals = false;
  options.external_stop = &stop;
  std::thread daemon([&] { serve::run_unix_daemon(service, options); });

  ConnectionPoint point;
  point.connections = connections;
  std::vector<std::unique_ptr<serve::wire::UnixClient>> clients;
  clients.reserve(connections);
  util::Timer connect_timer;
  for (std::size_t i = 0; i < connections; ++i) {
    bool connected = false;
    for (int attempt = 0; attempt < 200 && !connected; ++attempt) {
      try {
        clients.push_back(
            std::make_unique<serve::wire::UnixClient>(options.socket_path));
        connected = true;
      } catch (const std::runtime_error&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    if (!connected) break;
  }
  point.connected = clients.size();
  point.connect_seconds = connect_timer.seconds();

  util::Timer serve_timer;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    clients[i]->send_line(requests[i % requests.size()]);
  }
  std::string line;
  for (auto& client : clients) {
    if (client->recv_line(line) &&
        line.find("\"status\":\"ok\"") != std::string::npos) {
      ++point.ok;
    }
  }
  point.serve_seconds = serve_timer.seconds();
  point.throughput = point.serve_seconds > 0.0
                         ? static_cast<double>(point.ok) / point.serve_seconds
                         : 0.0;
  clients.clear();
  stop.store(true);
  daemon.join();
  return point;
}

std::string json_connection_point(const ConnectionPoint& p) {
  std::ostringstream os;
  os << "{\"connections\":" << p.connections << ",\"connected\":" << p.connected
     << ",\"ok\":" << p.ok << ",\"connect_s\":" << p.connect_seconds
     << ",\"serve_s\":" << p.serve_seconds
     << ",\"throughput_rps\":" << p.throughput << "}";
  return os.str();
}

/// Direct comparison at threads = 1: one classify() over every graph (packed
/// block-diagonal forwards) vs one classify() call per graph.
struct PackedComparison {
  double per_sample_rps = 0.0;
  double packed_rps = 0.0;
  double speedup = 0.0;
  double max_abs_diff = 0.0;
  bool agree = true;
};

PackedComparison compare_packed(const core::MagicClassifier& clf,
                                 const std::vector<acfg::Acfg>& workload,
                                 std::size_t repeats) {
  core::PredictOptions single;
  single.threads = 1;
  auto one_at_a_time = [&] {
    std::vector<core::Prediction> out;
    out.reserve(workload.size());
    for (const acfg::Acfg& graph : workload) {
      out.push_back(clf.classify(std::span(&graph, 1), single).front());
    }
    return out;
  };

  // Warm both code paths so neither timed measurement pays first-touch
  // costs.
  std::vector<core::Prediction> serial = one_at_a_time();
  std::vector<core::Prediction> fused = clf.classify(workload, single);

  // Interleave the two repeat by repeat so slow machine-level drift
  // (frequency scaling, noisy neighbours) hits both measurements equally.
  PackedComparison cmp;
  double serial_s = 0.0, packed_s = 0.0;
  for (std::size_t r = 0; r < repeats; ++r) {
    util::Timer serial_timer;
    serial = one_at_a_time();
    serial_s += serial_timer.seconds();
    util::Timer packed_timer;
    fused = clf.classify(workload, single);
    packed_s += packed_timer.seconds();
  }

  const double total = static_cast<double>(workload.size() * repeats);
  cmp.per_sample_rps = serial_s > 0.0 ? total / serial_s : 0.0;
  cmp.packed_rps = packed_s > 0.0 ? total / packed_s : 0.0;
  cmp.speedup = cmp.per_sample_rps > 0.0 ? cmp.packed_rps / cmp.per_sample_rps : 0.0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    if (fused[i].family_index != serial[i].family_index) cmp.agree = false;
    for (std::size_t c = 0; c < serial[i].probabilities.size(); ++c) {
      const double a = fused[i].probabilities[c];
      const double b = serial[i].probabilities[c];
      cmp.max_abs_diff = std::max(cmp.max_abs_diff, std::abs(a - b));
      if (std::abs(a - b) > 1e-9 * std::max(1.0, std::abs(b))) cmp.agree = false;
    }
  }
  return cmp;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (!opt.metrics_out.empty()) magic::obs::set_enabled(true);
  const unsigned hardware = std::thread::hardware_concurrency();
  std::cout << "bench_serve_throughput: serving sweep ("
            << opt.samples << " samples, hardware_concurrency=" << hardware
            << ")\n";

  util::ThreadPool pool;
  util::Timer setup;
  data::Dataset corpus = data::yancfg_like_corpus(opt.scale, opt.seed, pool);
  core::DgcnnConfig config;
  config.pooling = core::PoolingType::AdaptivePooling;
  config.pooling_ratio = 0.2;
  config.graph_conv_channels = {32, 32};
  config.dropout_rate = 0.5;
  core::TrainOptions train;
  train.epochs = opt.epochs;
  train.batch_size = 10;
  train.learning_rate = 3e-3;
  train.balance_families = true;
  train.balance_strength = 0.5;
  core::MagicClassifier clf(config, train, opt.seed);
  clf.fit(corpus, 0.15);
  const std::vector<acfg::Acfg> workload =
      make_workload(opt.samples, opt.seed, pool);
  std::cout << "trained on " << corpus.size() << " samples and extracted "
            << workload.size() << " scan requests in "
            << util::format_fixed(setup.seconds(), 1) << "s\n\n";

  const std::size_t worker_counts[] = {1, 2, 4, 8};
  std::vector<SweepPoint> points;
  util::Table table({"Workers", "Batching", "Throughput (req/s)",
                     "Mean batch", "p50 (ms)", "p95 (ms)", "p99 (ms)"});
  for (std::size_t workers : worker_counts) {
    for (bool batched : {false, true}) {
      const SweepPoint p = run_point(clf, workload, workers, batched);
      table.add_row({std::to_string(p.workers), batched ? "on" : "off",
                     util::format_fixed(p.throughput, 1),
                     util::format_fixed(p.stats.mean_batch_size(), 2),
                     util::format_fixed(p.stats.latency_p50_ms, 2),
                     util::format_fixed(p.stats.latency_p95_ms, 2),
                     util::format_fixed(p.stats.latency_p99_ms, 2)});
      points.push_back(p);
    }
  }
  table.print(std::cout);

  double base = 0.0, best8 = 0.0;
  for (const SweepPoint& p : points) {
    if (p.workers == 1 && !p.batched) base = p.throughput;
    if (p.workers == 8 && p.batched) best8 = p.throughput;
  }
  const double speedup = base > 0.0 ? best8 / base : 0.0;
  std::cout << "\nspeedup (8 workers, batched vs 1 worker, unbatched): "
            << util::format_fixed(speedup, 2) << "x\n";

  // ---- Connection scaling (epoll daemon over a Unix socket) --------------
  const std::size_t conn_counts[] = {64, 256, 1024};
  const std::size_t max_conns =
      *std::max_element(std::begin(conn_counts), std::end(conn_counts));
  std::vector<ConnectionPoint> conn_points;
  bool conn_failed = false;
  if (!raise_nofile_limit(static_cast<rlim_t>(2 * max_conns + 64))) {
    std::cerr << "FAIL: cannot raise RLIMIT_NOFILE for the "
              << max_conns << "-connection point\n";
    conn_failed = true;
  } else {
    std::cout << "\nconnection scaling (epoll daemon, 1 request per "
                 "connection, all pipelined):\n";
    std::vector<std::string> requests;
    requests.reserve(max_conns);
    const std::vector<std::string> listings =
        make_listings(max_conns, opt.seed ^ 0xC0117);
    for (std::size_t i = 0; i < listings.size(); ++i) {
      std::string request = "q";
      request.append(std::to_string(i))
          .append(" b64 ")
          .append(serve::wire::base64_encode(listings[i]));
      requests.push_back(std::move(request));
    }
    util::Table conn_table({"Connections", "Connect (s)", "Serve (s)",
                            "Throughput (req/s)", "OK"});
    for (std::size_t n : conn_counts) {
      const ConnectionPoint p = run_connection_point(clf, n, requests);
      conn_table.add_row(
          {std::to_string(p.connections),
           util::format_fixed(p.connect_seconds, 2),
           util::format_fixed(p.serve_seconds, 2),
           util::format_fixed(p.throughput, 1),
           std::to_string(p.ok) + "/" + std::to_string(p.connections)});
      if (p.connected != p.connections || p.ok != p.connections) {
        std::cerr << "FAIL: " << p.connected << "/" << p.connections
                  << " connected, " << p.ok << " ok verdicts\n";
        conn_failed = true;
      }
      conn_points.push_back(p);
    }
    conn_table.print(std::cout);
  }

  std::ofstream out(opt.out);
  out << "{\"bench\":\"serve_throughput\",\"samples\":" << opt.samples
      << ",\"hardware_concurrency\":" << hardware
      << ",\"seed\":" << opt.seed
      << ",\"speedup_8w_batched\":" << speedup << ",\"sweep\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i != 0) out << ",";
    out << json_point(points[i]);
  }
  out << "],\"connections\":[";
  for (std::size_t i = 0; i < conn_points.size(); ++i) {
    if (i != 0) out << ",";
    out << json_connection_point(conn_points[i]);
  }
  out << "]}\n";
  std::cout << "wrote " << opt.out << "\n";

  // ---- Packed vs one-graph-at-a-time comparison (BENCH_batch.json) -------
  //
  // Measured on the paper's original DGCNN head (SortPooling -> Conv1D):
  // that variant batches end to end (block-diagonal graph conv, per-segment
  // sort pooling, fused dense head), whereas the AMP variant above spends
  // most of its time in a pre-pool stage over variable-height images that
  // cannot batch. Same corpus, same workload, same worker count.
  core::DgcnnConfig sp_config;
  sp_config.pooling = core::PoolingType::SortPooling;
  sp_config.remaining = core::RemainingLayer::Conv1D;
  sp_config.pooling_ratio = 0.6;
  sp_config.graph_conv_channels = {32, 32};
  sp_config.dropout_rate = 0.5;
  core::MagicClassifier sp_clf(sp_config, train, opt.seed);
  sp_clf.fit(corpus, 0.15);

  std::cout << "\npacked vs one graph per call (SortPooling/Conv1D, threads=1):\n";
  const std::size_t repeats = opt.quick ? 8 : 16;
  const PackedComparison cmp = compare_packed(sp_clf, workload, repeats);
  std::cout << "  one per call: " << util::format_fixed(cmp.per_sample_rps, 1)
            << " graphs/s\n  packed:       "
            << util::format_fixed(cmp.packed_rps, 1) << " graphs/s\n  speedup:      "
            << util::format_fixed(cmp.speedup, 2) << "x  (max |diff| "
            << cmp.max_abs_diff << ")\n";

  // Serving layer, same worker count: max_batch 1 (every request scored as
  // a pack of one) against micro-batches of up to 8.
  const std::size_t serve_workers = 2;
  const SweepPoint serve_per_sample =
      run_point(sp_clf, workload, serve_workers, /*batched=*/false);
  const SweepPoint serve_packed =
      run_point(sp_clf, workload, serve_workers, /*batched=*/true);
  std::cout << "  serve (" << serve_workers << " workers, max_batch 1 -> 8): "
            << util::format_fixed(serve_per_sample.throughput, 1)
            << " -> " << util::format_fixed(serve_packed.throughput, 1)
            << " req/s, " << serve_packed.stats.packed_batches
            << " packed batches\n";

  std::ofstream batch_out(opt.batch_out);
  batch_out << "{\"bench\":\"packed_batch\",\"model\":\"" << sp_config.describe()
            << "\",\"samples\":" << opt.samples
            << ",\"hardware_concurrency\":" << hardware
            << ",\"seed\":" << opt.seed
            << ",\"repeats\":" << repeats
            << ",\"direct\":{\"per_sample_rps\":" << cmp.per_sample_rps
            << ",\"packed_rps\":" << cmp.packed_rps
            << ",\"speedup_packed\":" << cmp.speedup
            << ",\"max_abs_diff\":" << cmp.max_abs_diff
            << ",\"agree_1e9\":" << (cmp.agree ? "true" : "false")
            << "},\"serve\":{\"workers\":" << serve_workers
            << ",\"per_sample\":" << json_point(serve_per_sample)
            << ",\"packed\":" << json_point(serve_packed) << "}}\n";
  std::cout << "wrote " << opt.batch_out << "\n";

  bool failed = conn_failed;
  if (!cmp.agree) {
    std::cerr << "FAIL: packed and one-graph predictions disagree beyond "
                 "1e-9 relative tolerance\n";
    failed = true;
  }
  if (serve_packed.stats.packed_batches == 0) {
    std::cerr << "FAIL: packed serve point never executed a packed batch\n";
    failed = true;
  }

  if (!opt.metrics_out.empty()) {
    std::ofstream metrics(opt.metrics_out);
    metrics << magic::obs::MetricsRegistry::global().snapshot_json() << "\n";
    std::cout << "wrote " << opt.metrics_out << "\n";
  }
  return failed ? 1 : 0;
}

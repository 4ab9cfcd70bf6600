// bench_cache: verdict-cache and packed-corpus benchmarks.
//
// Part 1 — serve throughput with the content-addressed verdict cache on vs
// off, across duplicate rates of 0%, 50% and 90%. Real scan traffic is
// heavily duplicated (the same samples get uploaded over and over; MSKCFG
// itself is dominated by a few prolific families), which is exactly what a
// content-addressed cache converts from forward passes into hash lookups.
// At 0% duplicates the cache can only lose (every lookup misses and the
// hash is pure overhead) — that point is reported honestly as the cost
// floor. The process exits nonzero unless cache-on beats cache-off at the
// 90% point, so CI gates the subsystem on actually paying for itself.
//
// Part 2 — corpus load: the same generated corpus is saved both as the
// line-oriented text format (acfg/serialization.hpp) and as the packed
// mmap format (data/corpus_file.hpp), then loaded back from each. Reported:
// text parse time, packed open time (mmap + integrity pass only) and
// packed materialize time (open + deep copy into a Dataset). The gate
// requires packed materialization to beat the text parse.
//
// Flags:
//   --samples N    scan requests per sweep point (default 300)
//   --scale S      corpus scale (default 0.002)
//   --epochs N     training epochs (default 6)
//   --seed X       master seed (default 2019)
//   --out FILE     JSON output path (default BENCH_cache.json)
//   --quick        smaller sweep for smoke runs
//   --metrics-out FILE  enable magic::obs and dump the process-wide
//                  metrics snapshot (cache.* counters included) as JSON

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "acfg/extractor.hpp"
#include "acfg/serialization.hpp"
#include "data/corpus.hpp"
#include "data/corpus_file.hpp"
#include "data/program_generator.hpp"
#include "magic/classifier.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace magic;

struct Options {
  std::size_t samples = 300;
  double scale = 0.002;
  std::size_t epochs = 6;
  std::uint64_t seed = 2019;
  std::string out = "BENCH_cache.json";
  std::string metrics_out;
  bool quick = false;
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
    else if (arg == "--metrics-out") opt.metrics_out = next("--metrics-out");
    else if (arg == "--quick") opt.quick = true;
    else {
      std::cerr << "unknown flag " << arg << "\n"
                << "usage: bench_cache [--samples N] [--scale S] [--epochs N] "
                   "[--seed X] [--out FILE] [--quick] [--metrics-out FILE]\n";
      std::exit(2);
    }
  }
  if (opt.quick) {
    opt.samples = std::min<std::size_t>(opt.samples, 100);
    opt.epochs = std::min<std::size_t>(opt.epochs, 3);
  }
  return opt;
}

/// Pre-extracted unique scan samples (serving is measured, not the
/// frontend).
std::vector<acfg::Acfg> make_unique_samples(std::size_t count,
                                            std::uint64_t seed,
                                            util::ThreadPool& pool) {
  const auto specs = data::yancfg_family_specs();
  const std::size_t families[] = {1, 3, 9};
  std::vector<data::ProgramGenerator> generators;
  for (std::size_t f : families) {
    generators.emplace_back(specs[f], util::Rng(seed ^ (0xCAFE + f)));
  }
  std::vector<std::string> listings;
  listings.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    listings.push_back(generators[i % generators.size()].generate_listing());
  }
  return acfg::extract_batch(listings, pool);
}

/// A request stream of `total` scans over a pool of unique samples sized so
/// that `duplicate_rate` of the requests re-submit already-seen content.
/// Requests cycle through the unique pool, so duplicates are spread across
/// the stream the way re-uploads are, not clustered at the end.
std::vector<const acfg::Acfg*> make_request_stream(
    const std::vector<acfg::Acfg>& unique, std::size_t total,
    double duplicate_rate) {
  const auto wanted = static_cast<std::size_t>(
      static_cast<double>(total) * (1.0 - duplicate_rate) + 0.5);
  const std::size_t pool = std::clamp<std::size_t>(wanted, 1, unique.size());
  std::vector<const acfg::Acfg*> stream;
  stream.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    stream.push_back(&unique[i % pool]);
  }
  return stream;
}

struct CachePoint {
  double duplicate_rate = 0.0;
  bool cache_on = false;
  double seconds = 0.0;
  double throughput = 0.0;
  serve::ServerStats stats;
};

CachePoint run_point(core::MagicClassifier& clf,
                     const std::vector<const acfg::Acfg*>& stream,
                     double duplicate_rate, bool cache_on) {
  serve::ServeConfig config;
  config.workers = 2;
  config.queue_capacity = stream.size() + 1;
  config.max_batch = 8;
  config.cache_bytes = cache_on ? (16ull << 20) : 0;
  serve::InferenceServer server(clf, config);

  // Submit in windows of in-flight requests rather than all at once: real
  // re-uploads arrive after the original was scanned, and blasting the
  // whole stream up front would let duplicates race their own originals
  // through the miss path, understating every hit rate.
  constexpr std::size_t kWindow = 32;
  std::vector<serve::PendingVerdict> handles;
  handles.reserve(stream.size());
  std::size_t ok = 0;
  util::Timer timer;
  for (const acfg::Acfg* sample : stream) {
    handles.push_back(server.submit(*sample));
    if (handles.size() == kWindow) {
      for (auto& handle : handles) {
        if (handle.get().ok()) ++ok;
      }
      handles.clear();
    }
  }
  for (auto& handle : handles) {
    if (handle.get().ok()) ++ok;
  }
  CachePoint point;
  point.duplicate_rate = duplicate_rate;
  point.cache_on = cache_on;
  point.seconds = timer.seconds();
  point.throughput =
      point.seconds > 0.0 ? static_cast<double>(ok) / point.seconds : 0.0;
  point.stats = server.stats();
  if (ok != stream.size()) {
    std::cerr << "warning: only " << ok << "/" << stream.size()
              << " requests resolved ok (dup=" << duplicate_rate
              << ", cache=" << (cache_on ? "on" : "off") << ")\n";
  }
  return point;
}

std::string json_point(const CachePoint& p) {
  std::ostringstream os;
  os << "{\"duplicate_rate\":" << p.duplicate_rate
     << ",\"cache\":" << (p.cache_on ? "true" : "false")
     << ",\"seconds\":" << p.seconds
     << ",\"throughput_rps\":" << p.throughput
     << ",\"hits\":" << p.stats.cache.hits
     << ",\"misses\":" << p.stats.cache.misses
     << ",\"hit_rate\":" << p.stats.cache.hit_rate()
     << ",\"latency_p50_ms\":" << p.stats.latency_p50_ms
     << ",\"latency_p99_ms\":" << p.stats.latency_p99_ms << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (!opt.metrics_out.empty()) magic::obs::set_enabled(true);
  std::cout << "bench_cache: verdict cache + packed corpus (" << opt.samples
            << " requests per point)\n";

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
  const std::vector<acfg::Acfg> unique =
      make_unique_samples(opt.samples, opt.seed, pool);
  std::cout << "trained on " << corpus.size() << " samples, extracted "
            << unique.size() << " unique scan requests in "
            << util::format_fixed(setup.seconds(), 1) << "s\n\n";

  // ---- Part 1: cache-on vs cache-off across duplicate rates --------------
  const double rates[] = {0.0, 0.5, 0.9};
  std::vector<CachePoint> points;
  util::Table table({"Dup rate", "Cache", "Throughput (req/s)", "Hit rate",
                     "p50 (ms)", "p99 (ms)"});
  for (const double rate : rates) {
    const std::vector<const acfg::Acfg*> stream =
        make_request_stream(unique, opt.samples, rate);
    for (const bool cache_on : {false, true}) {
      const CachePoint p = run_point(clf, stream, rate, cache_on);
      table.add_row({util::format_fixed(rate * 100, 0) + "%",
                     cache_on ? "on" : "off",
                     util::format_fixed(p.throughput, 1),
                     util::format_fixed(p.stats.cache.hit_rate(), 2),
                     util::format_fixed(p.stats.latency_p50_ms, 2),
                     util::format_fixed(p.stats.latency_p99_ms, 2)});
      points.push_back(p);
    }
  }
  table.print(std::cout);

  auto find_point = [&](double rate, bool cache_on) -> const CachePoint& {
    for (const CachePoint& p : points) {
      if (p.duplicate_rate == rate && p.cache_on == cache_on) return p;
    }
    std::cerr << "missing sweep point\n";
    std::exit(1);
  };
  const CachePoint& hot_off = find_point(0.9, false);
  const CachePoint& hot_on = find_point(0.9, true);
  const double speedup_90 =
      hot_off.throughput > 0.0 ? hot_on.throughput / hot_off.throughput : 0.0;
  std::cout << "\nspeedup at 90% duplicates (cache on vs off): "
            << util::format_fixed(speedup_90, 2) << "x\n";

  // ---- Part 2: packed mmap corpus vs text parse --------------------------
  const std::string text_path = "bench_cache_corpus.txt";
  const std::string packed_path = "bench_cache_corpus.mgc";
  acfg::save_corpus(text_path, corpus.samples);
  data::pack_corpus(corpus, packed_path);

  util::Timer text_timer;
  const std::vector<acfg::Acfg> text_loaded = acfg::load_corpus(text_path);
  const double text_s = text_timer.seconds();

  util::Timer open_timer;
  data::PackedCorpus packed(packed_path);
  const double open_s = open_timer.seconds();

  util::Timer mat_timer;
  const data::Dataset packed_loaded = packed.to_dataset();
  const double packed_s = open_s + mat_timer.seconds();

  bool identical = text_loaded.size() == corpus.size() &&
                   packed_loaded.size() == corpus.size();
  for (std::size_t i = 0; identical && i < corpus.size(); ++i) {
    const acfg::Acfg& a = corpus.samples[i];
    const acfg::Acfg& b = packed_loaded.samples[i];
    identical = a.label == b.label && a.id == b.id &&
                a.out_edges == b.out_edges &&
                a.attributes.storage() == b.attributes.storage();
  }

  std::cout << "\ncorpus load (" << corpus.size() << " samples):\n"
            << "  text parse:          " << util::format_fixed(text_s * 1e3, 1)
            << " ms\n"
            << "  packed open (mmap):  " << util::format_fixed(open_s * 1e3, 1)
            << " ms\n"
            << "  packed materialize:  " << util::format_fixed(packed_s * 1e3, 1)
            << " ms  (" << util::format_fixed(
                   packed_s > 0.0 ? text_s / packed_s : 0.0, 1)
            << "x faster than text)\n"
            << "  round-trip bit-exact: " << (identical ? "yes" : "NO") << "\n";
  std::remove(text_path.c_str());
  std::remove(packed_path.c_str());

  std::ofstream out(opt.out);
  out << "{\"bench\":\"cache\",\"samples\":" << opt.samples
      << ",\"seed\":" << opt.seed
      << ",\"speedup_90dup\":" << speedup_90
      << ",\"sweep\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i != 0) out << ",";
    out << json_point(points[i]);
  }
  out << "],\"corpus\":{\"samples\":" << corpus.size()
      << ",\"text_parse_s\":" << text_s
      << ",\"packed_open_s\":" << open_s
      << ",\"packed_load_s\":" << packed_s
      << ",\"speedup_packed\":" << (packed_s > 0.0 ? text_s / packed_s : 0.0)
      << ",\"bit_exact\":" << (identical ? "true" : "false") << "}}\n";
  std::cout << "wrote " << opt.out << "\n";

  // ---- Gates (CI runs this as a correctness check, not just a timer) -----
  bool failed = false;
  if (speedup_90 <= 1.0) {
    std::cerr << "FAIL: cache-on did not beat cache-off at 90% duplicates ("
              << util::format_fixed(speedup_90, 2) << "x)\n";
    failed = true;
  }
  if (hot_on.stats.cache.hits == 0) {
    std::cerr << "FAIL: 90%-duplicate cache-on point recorded zero hits\n";
    failed = true;
  }
  if (packed_s >= text_s) {
    std::cerr << "FAIL: packed corpus load (" << packed_s
              << "s) not faster than text parse (" << text_s << "s)\n";
    failed = true;
  }
  if (!identical) {
    std::cerr << "FAIL: packed corpus round-trip is not bit-exact\n";
    failed = true;
  }

  if (!opt.metrics_out.empty()) {
    std::ofstream metrics(opt.metrics_out);
    metrics << magic::obs::MetricsRegistry::global().snapshot_json() << "\n";
    std::cout << "wrote " << opt.metrics_out << "\n";
  }
  return failed ? 1 : 0;
}

// ModelRegistry suite: named versions side by side, atomic hot-swap of the
// default with zero dropped in-flight requests, per-request version
// override, deterministic shadow mirroring with agreement counters, and the
// control-line wire surface (reload/shadow) end to end through the daemon.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "magic/classifier.hpp"
#include "obs/metrics.hpp"
#include "serve/daemon.hpp"
#include "serve/registry.hpp"
#include "serve/serve_test_util.hpp"
#include "serve/wire.hpp"
#include "temp_file.hpp"

namespace magic::serve {
namespace {

using namespace std::chrono_literals;
using testing::shared_classifier;

constexpr const char* kListing =
    "401000 mov eax, 1\n"
    "401005 add eax, 2\n"
    "401008 ret\n";

ServeConfig registry_config() {
  ServeConfig config;
  config.workers = 2;
  config.queue_capacity = 256;
  config.max_batch = 4;
  return config;
}

/// Checkpoint file of the shared test classifier: the reload source for
/// every test here (saved once per process, removed when it exits).
const std::string& shared_checkpoint() {
  static const magic::testing::ScopedTempFile file("magic_registry_ckpt_" +
                                                   std::to_string(::getpid()) + ".bin");
  [[maybe_unused]] static const bool saved = (shared_classifier().save(file.path()), true);
  return file.path();
}

std::unique_ptr<ModelRegistry> make_registry(const std::string& name = "v1") {
  auto model = std::make_unique<core::MagicClassifier>(
      core::MagicClassifier::load(shared_checkpoint()));
  return std::make_unique<ModelRegistry>(name, std::move(model),
                                         registry_config());
}

TEST(ModelRegistry, ScansRouteToDefaultVersion) {
  auto registry = make_registry();
  EXPECT_EQ(registry->default_version(), "v1");
  Verdict verdict = registry->submit_listing(kListing, "").get();
  EXPECT_TRUE(verdict.ok()) << verdict.error;
  const RegistryStats stats = registry->registry_stats();
  EXPECT_EQ(stats.default_version, "v1");
  ASSERT_EQ(stats.versions.size(), 1u);
  EXPECT_EQ(stats.versions[0], "v1");
  ASSERT_EQ(stats.operators.size(), 1u);
  EXPECT_EQ(stats.operators[0], "paper");
  EXPECT_EQ(stats.reloads, 0u);
  EXPECT_TRUE(stats.shadow_version.empty());
  registry->drain();
}

TEST(ModelRegistry, UnknownVersionOverrideResolvesError) {
  auto registry = make_registry();
  Verdict verdict = registry->submit_listing(kListing, "nope").get();
  EXPECT_FALSE(verdict.ok());
  EXPECT_NE(verdict.error.find("unknown model version 'nope'"),
            std::string::npos)
      << verdict.error;
  registry->drain();
}

TEST(ModelRegistry, ReloadSwapsDefaultAndKeepsOldVersionAddressable) {
  auto registry = make_registry();
  registry->load_version("v2", shared_checkpoint());
  EXPECT_EQ(registry->default_version(), "v2");
  // Old version still serves via explicit override.
  Verdict via_v1 = registry->submit_listing(kListing, "v1").get();
  EXPECT_TRUE(via_v1.ok()) << via_v1.error;
  Verdict via_default = registry->submit_listing(kListing, "").get();
  EXPECT_TRUE(via_default.ok()) << via_default.error;
  const RegistryStats stats = registry->registry_stats();
  EXPECT_EQ(stats.reloads, 1u);
  ASSERT_EQ(stats.versions.size(), 2u);
  // The operator column stays parallel to the version listing.
  ASSERT_EQ(stats.operators.size(), 2u);
  EXPECT_EQ(stats.operators[0], "paper");
  EXPECT_EQ(stats.operators[1], "paper");
  registry->drain();
}

TEST(ModelRegistry, HotSwapUnderLoadDropsNoInFlightRequests) {
  auto registry = make_registry();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::atomic<int> not_ok{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> scanners;
  scanners.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    scanners.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (int r = 0; r < kPerThread; ++r) {
        Verdict verdict = registry->submit_listing(kListing, "").get();
        if (!verdict.ok()) ++not_ok;
      }
    });
  }
  go.store(true);
  // Swap the default repeatedly while scans are in flight; every request
  // must resolve Ok from whichever version it was routed to — reload never
  // resolves an accepted request as ShuttingDown or Error.
  for (int swap = 0; swap < 6; ++swap) {
    registry->load_version(swap % 2 == 0 ? "v2" : "v1", shared_checkpoint());
    std::this_thread::sleep_for(5ms);
  }
  for (auto& scanner : scanners) scanner.join();
  EXPECT_EQ(not_ok.load(), 0);
  EXPECT_EQ(registry->registry_stats().reloads, 6u);
  registry->drain();
}

TEST(ModelRegistry, AgreementComparesFamilyNamesNotIndices) {
  // Primary and shadow come from different model versions whose family
  // orderings can differ: the same family may sit at different indices,
  // and the same index may hold different families.
  Verdict primary;
  primary.status = VerdictStatus::Ok;
  primary.prediction.family_index = 0;
  primary.prediction.family_name = "swizzor";
  Verdict shadow;
  shadow.status = VerdictStatus::Ok;
  shadow.prediction.family_index = 3;  // same family, different slot
  shadow.prediction.family_name = "swizzor";
  EXPECT_TRUE(verdicts_agree(primary, shadow));
  shadow.prediction.family_index = 0;  // same slot, different family
  shadow.prediction.family_name = "allaple";
  EXPECT_FALSE(verdicts_agree(primary, shadow));
  shadow.prediction.family_name = "swizzor";
  shadow.status = VerdictStatus::Error;  // incomparable pair never agrees
  EXPECT_FALSE(verdicts_agree(primary, shadow));
}

TEST(ModelRegistry, ShadowFullFractionMirrorsEveryScanAndAgrees) {
  auto registry = make_registry();
  registry->load_version("v2", shared_checkpoint(), /*make_default=*/false);
  EXPECT_EQ(registry->default_version(), "v1");
  registry->set_shadow("v2", 1.0);
  constexpr int kScans = 20;
  for (int r = 0; r < kScans; ++r) {
    Verdict verdict = registry->submit_listing(kListing, "").get();
    EXPECT_TRUE(verdict.ok()) << verdict.error;
  }
  // Shadow verdicts may still be resolving; drain joins every pair.
  registry->drain();
  const RegistryStats stats = registry->registry_stats();
  EXPECT_EQ(stats.shadow_version, "v2");
  EXPECT_EQ(stats.shadow_mirrored, static_cast<std::uint64_t>(kScans));
  // Same checkpoint on both sides: every comparable pair agrees.
  EXPECT_EQ(stats.shadow_agreed + stats.shadow_failed,
            static_cast<std::uint64_t>(kScans));
  EXPECT_EQ(stats.shadow_disagreed, 0u);
}

TEST(ModelRegistry, ShadowFractionIsDeterministicallyExact) {
  auto registry = make_registry();
  registry->load_version("v2", shared_checkpoint(), /*make_default=*/false);
  const double fraction = 0.5;
  registry->set_shadow("v2", fraction);
  constexpr int kScans = 21;
  for (int r = 0; r < kScans; ++r) {
    Verdict verdict = registry->submit_listing(kListing, "").get();
    EXPECT_TRUE(verdict.ok()) << verdict.error;
  }
  registry->drain();
  const RegistryStats stats = registry->registry_stats();
  EXPECT_EQ(stats.shadow_mirrored,
            static_cast<std::uint64_t>(std::floor(kScans * fraction)));
}

TEST(ModelRegistry, ExplicitOverridesAreNeverMirrored) {
  auto registry = make_registry();
  registry->load_version("v2", shared_checkpoint(), /*make_default=*/false);
  registry->set_shadow("v2", 1.0);
  for (int r = 0; r < 5; ++r) {
    Verdict verdict = registry->submit_listing(kListing, "v1").get();
    EXPECT_TRUE(verdict.ok()) << verdict.error;
  }
  registry->drain();
  EXPECT_EQ(registry->registry_stats().shadow_mirrored, 0u);
}

// The shadow and reload counters reach the process-wide metrics registry
// only while obs is enabled; the registry's own stats count every event.
TEST(ModelRegistry, CountersMirrorIntoGlobalRegistryOnlyWhileObsEnabled) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  metrics.reset_values();
  ASSERT_FALSE(obs::enabled());
  auto registry = make_registry();
  // A pair is scored by whichever of its verdicts resolves last, which can
  // be after the primary's get() returned.
  auto settled = [&](std::uint64_t pairs) {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    RegistryStats stats = registry->registry_stats();
    while (stats.shadow_agreed + stats.shadow_disagreed + stats.shadow_failed < pairs &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
      stats = registry->registry_stats();
    }
    return stats;
  };

  registry->load_version("v2", shared_checkpoint(), /*make_default=*/false);
  registry->set_shadow("v2", 1.0);
  for (int r = 0; r < 2; ++r) {
    EXPECT_TRUE(registry->submit_listing(kListing, "").get().ok());
  }
  settled(2);
  EXPECT_EQ(metrics.counter("registry.reloads").value(), 0u);
  EXPECT_EQ(metrics.counter("registry.shadow_mirrored").value(), 0u);
  EXPECT_EQ(metrics.counter("registry.shadow_agreed").value(), 0u);

  obs::set_enabled(true);
  registry->load_version("v3", shared_checkpoint(), /*make_default=*/false);
  for (int r = 0; r < 3; ++r) {
    EXPECT_TRUE(registry->submit_listing(kListing, "").get().ok());
  }
  const RegistryStats stats = settled(5);
  obs::set_enabled(false);

  EXPECT_EQ(stats.reloads, 2u);
  EXPECT_EQ(stats.shadow_mirrored, 5u);
  EXPECT_EQ(stats.shadow_agreed, 5u);  // one checkpoint behind both versions
  EXPECT_EQ(metrics.counter("registry.reloads").value(), 1u);
  EXPECT_EQ(metrics.counter("registry.shadow_mirrored").value(), 3u);
  EXPECT_EQ(metrics.counter("registry.shadow_agreed").value(), 3u);
  EXPECT_EQ(metrics.counter("registry.shadow_disagreed").value(), 0u);
  EXPECT_EQ(metrics.counter("registry.shadow_failed").value(), 0u);
  registry->drain();
  metrics.reset_values();
}

TEST(ModelRegistry, ControlRejectsBadReloadAndUnknownShadow) {
  auto registry = make_registry();
  wire::Request reload;
  reload.kind = wire::Request::Kind::Reload;
  reload.version = "v2";
  reload.payload = "/nonexistent/checkpoint.bin";
  const std::string reload_reply = registry->control(reload);
  EXPECT_NE(reload_reply.find("\"status\":\"error\""), std::string::npos)
      << reload_reply;
  // A failed reload must not disturb the registry.
  EXPECT_EQ(registry->default_version(), "v1");
  EXPECT_EQ(registry->registry_stats().versions.size(), 1u);

  wire::Request shadow;
  shadow.kind = wire::Request::Kind::Shadow;
  shadow.version = "ghost";
  shadow.fraction = 0.5;
  const std::string shadow_reply = registry->control(shadow);
  EXPECT_NE(shadow_reply.find("\"status\":\"error\""), std::string::npos)
      << shadow_reply;
  EXPECT_TRUE(registry->registry_stats().shadow_version.empty());
  registry->drain();
}

TEST(ModelRegistry, WireReloadShadowAndOverrideEndToEnd) {
  auto registry = make_registry();
  const std::string socket_path = ::testing::TempDir() + "magicd_registry_" +
                                  std::to_string(::getpid()) + ".sock";
  std::atomic<bool> stop{false};
  DaemonOptions options;
  options.socket_path = socket_path;
  options.handle_signals = false;
  options.external_stop = &stop;
  std::thread daemon([&] { run_unix_daemon(*registry, options); });

  std::unique_ptr<wire::UnixClient> client;
  for (int attempt = 0; attempt < 300 && !client; ++attempt) {
    try {
      client = std::make_unique<wire::UnixClient>(socket_path);
    } catch (const std::runtime_error&) {
      std::this_thread::sleep_for(10ms);
    }
  }
  ASSERT_NE(client, nullptr);

  const std::string b64 = wire::base64_encode(kListing);
  client->send_line("r1 b64 " + b64);
  client->send_line("reload v2 " + shared_checkpoint());
  client->send_line("r2@v1 b64 " + b64);
  client->send_line("r3@ghost b64 " + b64);
  client->send_line("shadow v1 1.0");
  client->send_line("r4 b64 " + b64);
  client->send_line("stats");
  client->finish_sending();

  std::vector<std::string> lines;
  std::string line;
  while (client->recv_line(line)) lines.push_back(line);
  stop.store(true);
  daemon.join();

  ASSERT_EQ(lines.size(), 7u);
  EXPECT_NE(lines[0].find("\"id\":\"r1\""), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"op\":\"reload\""), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("\"default\":\"v2\""), std::string::npos) << lines[1];
  EXPECT_NE(lines[2].find("\"id\":\"r2\""), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("\"status\":\"ok\""), std::string::npos) << lines[2];
  EXPECT_NE(lines[3].find("\"id\":\"r3\""), std::string::npos) << lines[3];
  EXPECT_NE(lines[3].find("unknown model version"), std::string::npos)
      << lines[3];
  EXPECT_NE(lines[4].find("\"op\":\"shadow\""), std::string::npos) << lines[4];
  EXPECT_NE(lines[5].find("\"id\":\"r4\""), std::string::npos) << lines[5];
  EXPECT_NE(lines[5].find("\"status\":\"ok\""), std::string::npos) << lines[5];
  EXPECT_NE(lines[6].find("\"registry\":{"), std::string::npos) << lines[6];
  EXPECT_NE(lines[6].find("\"default\":\"v2\""), std::string::npos) << lines[6];
  EXPECT_NE(lines[6].find("\"reloads\":1"), std::string::npos) << lines[6];
  EXPECT_NE(lines[6].find("\"reactor\":{"), std::string::npos) << lines[6];

  // r4 was default-routed with shadow fraction 1.0: mirrored exactly once.
  registry->drain();
  const RegistryStats stats = registry->registry_stats();
  EXPECT_EQ(stats.shadow_mirrored, 1u);
}

TEST(ModelRegistry, StdioStreamServesControlLines) {
  auto registry = make_registry();
  std::uint64_t served = 0;
  const auto lines = testing::run_stdio("p1 b64 " + wire::base64_encode(kListing) +
                                            "\nreload v2 " + shared_checkpoint() +
                                            "\nshadow off\nstats\n",
                                        *registry, &served);
  registry->drain();
  EXPECT_EQ(served, 1u);
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  EXPECT_NE(text.find("\"id\":\"p1\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"op\":\"reload\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"mode\":\"off\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"registry\":{"), std::string::npos) << text;
}

}  // namespace
}  // namespace magic::serve

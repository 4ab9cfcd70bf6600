// VerdictCache behavioural tests: LRU eviction order, byte-bound
// enforcement, refresh semantics, oversized refusal and counter exactness.
// shards=1 throughout the LRU tests so the eviction order is deterministic
// (with many shards each shard has its own order).

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/verdict_cache.hpp"
#include "obs/metrics.hpp"

namespace magic::cache {
namespace {

CacheKey key_of(std::uint64_t i) { return CacheKey{i, i * 1000003 + 17}; }

CachedVerdict verdict_of(std::size_t family, std::size_t probs = 13) {
  CachedVerdict v;
  v.family_index = family;
  v.family_name = "family" + std::to_string(family);
  v.probabilities.assign(probs, 1.0 / static_cast<double>(probs));
  return v;
}

TEST(VerdictCache, MissThenHitRoundTrip) {
  VerdictCache cache({/*max_bytes=*/1 << 20, /*shards=*/1});
  EXPECT_FALSE(cache.get(key_of(1)).has_value());
  cache.insert(key_of(1), verdict_of(4));
  const auto hit = cache.get(key_of(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->family_index, 4u);
  EXPECT_EQ(hit->family_name, "family4");
  EXPECT_EQ(hit->probabilities.size(), 13u);

  const CacheStats stats = cache.stats();
  EXPECT_TRUE(stats.enabled);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(VerdictCache, EvictsLeastRecentlyUsedFirst) {
  const std::size_t entry_bytes = verdict_of(0).bytes();
  // Budget for exactly 3 entries.
  VerdictCache cache({entry_bytes * 3 + entry_bytes / 2, 1});
  cache.insert(key_of(1), verdict_of(1));
  cache.insert(key_of(2), verdict_of(2));
  cache.insert(key_of(3), verdict_of(3));
  EXPECT_EQ(cache.stats().entries, 3u);

  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_TRUE(cache.get(key_of(1)).has_value());
  cache.insert(key_of(4), verdict_of(4));

  EXPECT_TRUE(cache.get(key_of(1)).has_value());
  EXPECT_FALSE(cache.get(key_of(2)).has_value()) << "LRU entry must be evicted";
  EXPECT_TRUE(cache.get(key_of(3)).has_value());
  EXPECT_TRUE(cache.get(key_of(4)).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(VerdictCache, ByteBoundIsNeverExceeded) {
  const std::size_t entry_bytes = verdict_of(0).bytes();
  const std::size_t budget = entry_bytes * 4;
  VerdictCache cache({budget, 1});
  for (std::uint64_t i = 0; i < 64; ++i) {
    cache.insert(key_of(i), verdict_of(static_cast<std::size_t>(i)));
    EXPECT_LE(cache.stats().bytes, budget) << "after insert " << i;
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 64u);
  EXPECT_EQ(stats.evictions, 64u - stats.entries);
  EXPECT_GT(stats.entries, 0u);
  EXPECT_LT(stats.entries, 64u);
}

TEST(VerdictCache, RefreshUpdatesValueWithoutGrowingEntries) {
  VerdictCache cache({1 << 20, 1});
  cache.insert(key_of(9), verdict_of(1));
  cache.insert(key_of(9), verdict_of(2, /*probs=*/40));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  const auto hit = cache.get(key_of(9));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->family_index, 2u);
  EXPECT_EQ(hit->probabilities.size(), 40u);
}

TEST(VerdictCache, RefreshAlsoTouches) {
  const std::size_t entry_bytes = verdict_of(0).bytes();
  VerdictCache cache({entry_bytes * 2 + entry_bytes / 2, 1});
  cache.insert(key_of(1), verdict_of(1));
  cache.insert(key_of(2), verdict_of(2));
  cache.insert(key_of(1), verdict_of(1));  // refresh: 1 becomes MRU
  cache.insert(key_of(3), verdict_of(3));  // evicts 2, not 1
  EXPECT_TRUE(cache.get(key_of(1)).has_value());
  EXPECT_FALSE(cache.get(key_of(2)).has_value());
}

TEST(VerdictCache, OversizedEntryIsRefusedNotInserted) {
  VerdictCache cache({/*max_bytes=*/512, /*shards=*/1});
  CachedVerdict huge = verdict_of(1);
  huge.embedding.assign(4096, 0.5);  // far beyond the shard budget
  cache.insert(key_of(1), huge);
  EXPECT_FALSE(cache.get(key_of(1)).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.oversized, 1u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(VerdictCache, EmbeddingRoundTrips) {
  VerdictCache cache({1 << 20, 2});
  CachedVerdict v = verdict_of(5);
  v.embedding = {0.25, -1.5, 3.75};
  cache.insert(key_of(42), v);
  const auto hit = cache.get(key_of(42));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->embedding, (std::vector<double>{0.25, -1.5, 3.75}));
}

TEST(VerdictCache, ClearDropsEntriesButKeepsCounters) {
  VerdictCache cache({1 << 20, 4});
  for (std::uint64_t i = 0; i < 10; ++i) {
    cache.insert(key_of(i), verdict_of(static_cast<std::size_t>(i)));
  }
  cache.clear();
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.insertions, 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_FALSE(cache.get(key_of(i)).has_value());
  }
}

TEST(VerdictCache, ShardCountClampedToAtLeastOne) {
  VerdictCache cache({1 << 16, /*shards=*/0});
  EXPECT_EQ(cache.shard_count(), 1u);
  cache.insert(key_of(1), verdict_of(1));
  EXPECT_TRUE(cache.get(key_of(1)).has_value());
}

TEST(VerdictCache, KeysSpreadAcrossShards) {
  VerdictCache cache({1 << 20, 8});
  EXPECT_EQ(cache.shard_count(), 8u);
  for (std::uint64_t i = 0; i < 64; ++i) {
    cache.insert(key_of(i), verdict_of(static_cast<std::size_t>(i)));
  }
  EXPECT_EQ(cache.stats().entries, 64u);
  for (std::uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(cache.get(key_of(i)).has_value()) << i;
  }
}

TEST(VerdictCache, StatsToJsonShape) {
  VerdictCache cache({2048, 1});
  cache.insert(key_of(1), verdict_of(1));
  cache.get(key_of(1));
  cache.get(key_of(2));
  const std::string json = cache.stats().to_json();
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"hits\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"misses\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"hit_rate\":0.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max_bytes\":2048"), std::string::npos) << json;
}

TEST(VerdictCache, MirrorsIntoGlobalRegistryWhenEnabled) {
  obs::MetricsRegistry::global().reset_values();
  obs::set_enabled(true);
  {
    VerdictCache cache({1 << 16, 1});
    cache.insert(key_of(1), verdict_of(1));
    cache.get(key_of(1));
    cache.get(key_of(2));
  }
  obs::set_enabled(false);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  EXPECT_EQ(registry.counter("cache.hits").value(), 1u);
  EXPECT_EQ(registry.counter("cache.misses").value(), 1u);
  EXPECT_EQ(registry.counter("cache.insertions").value(), 1u);
  registry.reset_values();
}

// The cache.bytes / cache.entries gauges describe the whole cache, not the
// shard an insert last touched.
TEST(VerdictCache, GaugesReportWholeCacheResidency) {
  obs::MetricsRegistry::global().reset_values();
  obs::set_enabled(true);
  VerdictCache cache({1 << 20, 2});
  cache.insert(key_of(0), verdict_of(0));  // shard 0
  cache.insert(key_of(1), verdict_of(1));  // shard 1
  cache.insert(key_of(3), verdict_of(3));  // shard 1
  cache.insert(key_of(2), verdict_of(2));  // shard 0: touched last
  obs::set_enabled(false);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 4u);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  EXPECT_EQ(registry.gauge("cache.entries").value(), static_cast<double>(stats.entries));
  EXPECT_EQ(registry.gauge("cache.bytes").value(), static_cast<double>(stats.bytes));
  registry.reset_values();
}

TEST(VerdictCache, NoMirrorWhenObsDisabled) {
  obs::MetricsRegistry::global().reset_values();
  ASSERT_FALSE(obs::enabled());
  VerdictCache cache({1 << 16, 1});
  cache.insert(key_of(1), verdict_of(1));
  cache.get(key_of(1));
  EXPECT_EQ(obs::MetricsRegistry::global().counter("cache.hits").value(), 0u);
  // The per-cache snapshot still sees everything.
  EXPECT_EQ(cache.stats().hits, 1u);
}

}  // namespace
}  // namespace magic::cache

#pragma once
// Content-addressed verdict/embedding cache (the serve-side answer to
// duplicated scan traffic).
//
// VerdictCache maps a canonical ACFG content hash (cache/acfg_hash.hpp) to
// the verdict the model produced for that content — the winning family and
// the full probability distribution, plus an optional graph embedding for
// explain-style consumers. The serving layer consults it *ahead of* the
// micro-batcher: a hit resolves the request immediately without ever
// touching the queue or a forward pass; a miss proceeds to packed
// inference and inserts on completion.
//
// Concurrency: the key space is split across `shards` independent shards
// (key.hi selects the shard), each a mutex-protected LRU list + index, so
// concurrent get/insert on different shards never contend. Within a shard
// the mutex is held for O(1) list splicing; values are copied out under the
// lock (entries can be evicted the instant the lock drops, so handing out
// references would dangle).
//
// Memory: the cache is bounded by bytes, not entries — a verdict for a
// 13-family model costs a few hundred bytes, one with a stored embedding
// can cost kilobytes. Each shard owns max_bytes / shards; inserting past
// the bound evicts least-recently-used entries until the new entry fits.
// An entry larger than a whole shard budget is not cached at all
// (oversized counter). There is no TTL: content hashes never go stale —
// the same bytes always classify the same way for a fixed model — so
// recency is the only eviction signal. Model hot-swaps must drop the cache
// (verdicts are per-model); servers own their cache instance, so a new
// server over new weights starts cold by construction.
//
// Observability: hit/miss/insert/eviction/oversized counters are
// obs::MirroredCounter: exact per cache (snapshot()) and mirrored into the
// process-wide magic::obs registry under "cache.*" while obs::enabled().

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/acfg_hash.hpp"
#include "obs/metrics.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace magic::cache {

/// Tuning knobs of one VerdictCache.
struct CacheConfig {
  /// Total byte budget across all shards (approximate deep size of the
  /// stored values plus per-entry bookkeeping).
  std::size_t max_bytes = 64ull << 20;
  /// Number of independent LRU shards; clamped to >= 1. More shards =
  /// less lock contention, slightly coarser LRU.
  std::size_t shards = 8;
};

/// The cached outcome of classifying one content hash. Mirrors
/// core::Prediction (the cache layer sits below magic_core in the link
/// graph, so it carries the fields rather than the type).
struct CachedVerdict {
  std::size_t family_index = 0;
  std::string family_name;
  std::vector<double> probabilities;
  /// Optional graph embedding for explain-style reuse (empty when the
  /// producer did not compute one).
  std::vector<double> embedding;

  /// Approximate deep size in bytes (the unit of the cache byte bound).
  std::size_t bytes() const noexcept;
};

/// Point-in-time counters of one VerdictCache.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t oversized = 0;  ///< inserts skipped: entry > shard budget
  std::uint64_t entries = 0;    ///< resident entries right now
  std::uint64_t bytes = 0;      ///< resident bytes right now
  std::uint64_t max_bytes = 0;  ///< configured bound
  /// Set by VerdictCache::stats(); a default-constructed (all-zero)
  /// CacheStats therefore reads as "no cache configured", which is exactly
  /// what the serve layer embeds when it runs cache-less.
  bool enabled = false;

  double hit_rate() const noexcept {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
  }
  /// Single-line JSON object (embedded in the serve `stats` wire reply).
  std::string to_json() const;
};

/// Sharded, byte-bounded, TTL-free LRU cache from content hash to verdict.
/// All public methods are thread-safe.
class VerdictCache {
 public:
  explicit VerdictCache(CacheConfig config = {});

  VerdictCache(const VerdictCache&) = delete;
  VerdictCache& operator=(const VerdictCache&) = delete;

  /// Returns a copy of the cached verdict and marks it most-recently-used;
  /// std::nullopt on miss. Counts a hit or a miss.
  std::optional<CachedVerdict> get(const CacheKey& key);

  /// Inserts (or refreshes) `value` under `key`, evicting LRU entries of
  /// the shard until it fits. An entry larger than the per-shard budget is
  /// dropped (counted as oversized, not inserted).
  void insert(const CacheKey& key, CachedVerdict value);

  /// Drops every entry (counters keep accumulating).
  void clear();

  /// Exact counter snapshot plus current entry/byte residency (the same
  /// totals the cache.bytes / cache.entries gauges publish).
  CacheStats stats() const;

  std::size_t max_bytes() const noexcept { return config_.max_bytes; }
  std::size_t shard_count() const noexcept { return shards_.size(); }

 private:
  struct Entry {
    CacheKey key;
    CachedVerdict value;
    std::size_t bytes = 0;
  };
  using LruList = std::list<Entry>;

  /// One independent LRU domain. The shard mutex is a leaf lock: nothing
  /// else is ever acquired while it is held.
  struct Shard {
    mutable util::Mutex mutex;
    /// front = most recently used, back = eviction candidate.
    LruList lru MAGIC_GUARDED_BY(mutex);
    std::unordered_map<CacheKey, LruList::iterator, CacheKeyHash> index
        MAGIC_GUARDED_BY(mutex);
    std::size_t bytes MAGIC_GUARDED_BY(mutex) = 0;
  };

  Shard& shard_for(const CacheKey& key) noexcept {
    return shards_[static_cast<std::size_t>(key.hi) % shards_.size()];
  }
  /// Adds a shard's residency change to the running totals. Called under
  /// that shard's lock, so once no insert or clear is in flight the totals
  /// equal the sum over shards.
  void account(std::int64_t entries, std::int64_t bytes) noexcept;
  /// Sets the cache.bytes / cache.entries gauges from the running totals
  /// (no-op while obs is disabled).
  void publish_residency() const noexcept;

  CacheConfig config_;
  std::size_t shard_budget_ = 0;
  std::vector<Shard> shards_;
  /// Whole-cache residency: the sums of every shard's lru.size() and bytes.
  std::atomic<std::uint64_t> total_entries_{0};
  std::atomic<std::uint64_t> total_bytes_{0};

  obs::MirroredCounter hits_{"cache.hits"};
  obs::MirroredCounter misses_{"cache.misses"};
  obs::MirroredCounter insertions_{"cache.insertions"};
  obs::MirroredCounter evictions_{"cache.evictions"};
  obs::MirroredCounter oversized_{"cache.oversized"};
  /// Process-wide residency gauges; only written while obs::enabled().
  obs::Gauge& bytes_gauge_;
  obs::Gauge& entries_gauge_;
};

}  // namespace magic::cache

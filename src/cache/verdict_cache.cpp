#include "cache/verdict_cache.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace magic::cache {

std::size_t CachedVerdict::bytes() const noexcept {
  // Approximate deep size: the struct, heap storage of the two double
  // vectors and the family name, plus the LRU/index bookkeeping an entry
  // costs (list node pointers + hash bucket). Close enough for a budget;
  // exactness is not the point, monotonicity is.
  constexpr std::size_t kPerEntryOverhead = 96;
  return sizeof(CachedVerdict) + family_name.capacity() +
         probabilities.capacity() * sizeof(double) +
         embedding.capacity() * sizeof(double) + kPerEntryOverhead;
}

std::string CacheStats::to_json() const {
  std::ostringstream os;
  os << "{\"enabled\":" << (enabled ? "true" : "false") << ",\"hits\":" << hits
     << ",\"misses\":" << misses << ",\"hit_rate\":" << hit_rate()
     << ",\"insertions\":" << insertions << ",\"evictions\":" << evictions
     << ",\"oversized\":" << oversized << ",\"entries\":" << entries
     << ",\"bytes\":" << bytes << ",\"max_bytes\":" << max_bytes << "}";
  return os.str();
}

VerdictCache::VerdictCache(CacheConfig config)
    : config_(config),
      shards_(std::max<std::size_t>(1, config.shards)),
      bytes_gauge_(obs::MetricsRegistry::global().gauge("cache.bytes")),
      entries_gauge_(obs::MetricsRegistry::global().gauge("cache.entries")) {
  config_.shards = shards_.size();
  shard_budget_ = std::max<std::size_t>(1, config_.max_bytes / shards_.size());
}

std::optional<CachedVerdict> VerdictCache::get(const CacheKey& key) {
  Shard& shard = shard_for(key);
  {
    util::MutexLock lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Touch: move to the MRU end while the lock pins the iterator.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      CachedVerdict copy = it->second->value;
      hits_.add();
      return copy;
    }
  }
  misses_.add();
  return std::nullopt;
}

void VerdictCache::insert(const CacheKey& key, CachedVerdict value) {
  const std::size_t cost = value.bytes();
  if (cost > shard_budget_) {
    // Would evict the whole shard and still not amortize: refuse rather
    // than letting one pathological entry wipe the working set.
    oversized_.add();
    return;
  }
  Shard& shard = shard_for(key);
  std::uint64_t evicted = 0;
  {
    util::MutexLock lock(shard.mutex);
    const auto entries_before = static_cast<std::int64_t>(shard.lru.size());
    const auto bytes_before = static_cast<std::int64_t>(shard.bytes);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Refresh: replace the value in place and touch.
      shard.bytes -= it->second->bytes;
      it->second->value = std::move(value);
      it->second->bytes = cost;
      shard.bytes += cost;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      while (shard.bytes + cost > shard_budget_ && !shard.lru.empty()) {
        const Entry& victim = shard.lru.back();
        shard.bytes -= victim.bytes;
        shard.index.erase(victim.key);
        shard.lru.pop_back();
        ++evicted;
      }
      shard.lru.push_front(Entry{key, std::move(value), cost});
      shard.index.emplace(key, shard.lru.begin());
      shard.bytes += cost;
    }
    account(static_cast<std::int64_t>(shard.lru.size()) - entries_before,
            static_cast<std::int64_t>(shard.bytes) - bytes_before);
  }
  insertions_.add();
  if (evicted > 0) evictions_.add(evicted);
  publish_residency();
}

void VerdictCache::clear() {
  for (Shard& shard : shards_) {
    util::MutexLock lock(shard.mutex);
    account(-static_cast<std::int64_t>(shard.lru.size()),
            -static_cast<std::int64_t>(shard.bytes));
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
  publish_residency();
}

void VerdictCache::account(std::int64_t entries, std::int64_t bytes) noexcept {
  // Two's-complement wrap-around turns a negative delta into a subtraction.
  total_entries_.fetch_add(static_cast<std::uint64_t>(entries), std::memory_order_relaxed);
  total_bytes_.fetch_add(static_cast<std::uint64_t>(bytes), std::memory_order_relaxed);
}

void VerdictCache::publish_residency() const noexcept {
  if (!obs::enabled()) return;
  entries_gauge_.set(
      static_cast<double>(total_entries_.load(std::memory_order_relaxed)));
  bytes_gauge_.set(static_cast<double>(total_bytes_.load(std::memory_order_relaxed)));
}

CacheStats VerdictCache::stats() const {
  CacheStats out;
  out.enabled = true;
  out.hits = hits_.value();
  out.misses = misses_.value();
  out.insertions = insertions_.value();
  out.evictions = evictions_.value();
  out.oversized = oversized_.value();
  out.max_bytes = config_.max_bytes;
  out.entries = total_entries_.load(std::memory_order_relaxed);
  out.bytes = total_bytes_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace magic::cache

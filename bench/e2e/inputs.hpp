#pragma once
// Seeded workload inputs: assembly listings in the paper's family mixes,
// scan-traffic patterns and Poisson arrival schedules. Everything derives
// from (seed, index), so listing i is the same whatever the thread count.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/thread_pool.hpp"

namespace magic::e2e {

/// Family proportions of the two corpora: YANCFG (Fig. 8), MSKCFG (Fig. 7).
enum class FamilyMix { Yancfg, Mskcfg };

/// Splitmix64 of (seed, stream): independent generator seeds per index.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) noexcept;

/// Listing `index` of the stream for (mix, seed): it draws its family by
/// corpus proportion and its program from a generator seeded by
/// (seed, index). `family`, when given, receives the family index.
std::string listing_at(FamilyMix mix, std::uint64_t seed, std::size_t index,
                       int* family = nullptr);

/// Listings [first, first + count) of that stream, generated in parallel on
/// `pool`.
std::vector<std::string> make_listings(FamilyMix mix, std::uint64_t seed,
                                       std::size_t first, std::size_t count,
                                       util::ThreadPool& pool);

/// A labelled corpus with data::generate_corpus's per-family counts at
/// `scale` (max(10, round(count * scale)) per family).
struct Corpus {
  std::vector<std::string> listings;
  std::vector<int> labels;
  std::vector<std::string> family_names;
};
Corpus make_corpus(FamilyMix mix, double scale, std::uint64_t seed,
                   util::ThreadPool& pool);

/// Duplicate scan traffic: entry k is the pool listing request k carries.
/// With probability `dup_share` a request re-sends a listing drawn uniformly
/// from the `window` most recently introduced ones; otherwise it introduces
/// the next listing (request 0 always introduces listing 0).
std::vector<std::uint32_t> dup_traffic(std::size_t requests, double dup_share,
                                       std::size_t window, std::uint64_t seed);

/// Send offsets in seconds of `count` requests with exponential gaps of
/// mean 1 / `rate` (Poisson arrivals).
std::vector<double> poisson_schedule(double rate, std::size_t count, std::uint64_t seed);

/// `count` distinct indices drawn uniformly from [0, n), sorted.
std::vector<std::size_t> sample_indices(std::size_t n, std::size_t count,
                                        std::uint64_t seed);

}  // namespace magic::e2e

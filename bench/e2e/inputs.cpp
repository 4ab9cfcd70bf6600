#include "inputs.hpp"

#include <algorithm>
#include <cmath>

#include "data/corpus.hpp"
#include "data/program_generator.hpp"
#include "util/rng.hpp"

namespace magic::e2e {
namespace {

std::vector<data::FamilySpec> specs_of(FamilyMix mix) {
  return mix == FamilyMix::Yancfg ? data::yancfg_family_specs()
                                  : data::mskcfg_family_specs();
}

std::string generate(const data::FamilySpec& spec, std::uint64_t seed) {
  data::ProgramGenerator generator(spec, util::Rng(seed));
  return generator.generate_listing();
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string listing_at(FamilyMix mix, std::uint64_t seed, std::size_t index, int* family) {
  static const std::vector<data::FamilySpec> yancfg = data::yancfg_family_specs();
  static const std::vector<data::FamilySpec> mskcfg = data::mskcfg_family_specs();
  const std::vector<data::FamilySpec>& specs = mix == FamilyMix::Yancfg ? yancfg : mskcfg;
  std::vector<double> weights;
  for (const auto& spec : specs) weights.push_back(static_cast<double>(spec.corpus_count));
  util::Rng rng(mix_seed(seed, index));
  const std::size_t f = rng.weighted_index(weights);
  if (family != nullptr) *family = static_cast<int>(f);
  return generate(specs[f], rng.next());
}

std::vector<std::string> make_listings(FamilyMix mix, std::uint64_t seed,
                                       std::size_t first, std::size_t count,
                                       util::ThreadPool& pool) {
  std::vector<std::string> listings(count);
  pool.parallel_for(count, [&](std::size_t i) { listings[i] = listing_at(mix, seed, first + i); });
  return listings;
}

Corpus make_corpus(FamilyMix mix, double scale, std::uint64_t seed,
                   util::ThreadPool& pool) {
  const std::vector<data::FamilySpec> specs = specs_of(mix);
  Corpus corpus;
  for (std::size_t f = 0; f < specs.size(); ++f) {
    corpus.family_names.push_back(specs[f].name);
    const auto want = static_cast<std::size_t>(
        std::llround(static_cast<double>(specs[f].corpus_count) * scale));
    corpus.labels.insert(corpus.labels.end(), std::max<std::size_t>(10, want),
                         static_cast<int>(f));
  }
  corpus.listings.resize(corpus.labels.size());
  // A stream disjoint from make_listings' indices for the same seed.
  const std::uint64_t corpus_seed = mix_seed(seed, 0xC0FFEEULL);
  pool.parallel_for(corpus.listings.size(), [&](std::size_t i) {
    const auto family = static_cast<std::size_t>(corpus.labels[i]);
    corpus.listings[i] = generate(specs[family], mix_seed(corpus_seed, i));
  });
  return corpus;
}

std::vector<std::uint32_t> dup_traffic(std::size_t requests, double dup_share,
                                       std::size_t window, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint32_t> traffic(requests);
  std::uint32_t introduced = 0;
  for (std::size_t k = 0; k < requests; ++k) {
    if (introduced == 0 || !rng.bernoulli(dup_share)) {
      traffic[k] = introduced++;
      continue;
    }
    const std::uint32_t span = std::min<std::uint32_t>(
        introduced, static_cast<std::uint32_t>(window));
    traffic[k] = introduced - 1 -
                 static_cast<std::uint32_t>(rng.uniform_int(0, span - 1));
  }
  return traffic;
}

std::vector<double> poisson_schedule(double rate, std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> offsets(count);
  double t = 0.0;
  for (double& offset : offsets) {
    t += -std::log1p(-rng.uniform()) / rate;
    offset = t;
  }
  return offsets;
}

std::vector<std::size_t> sample_indices(std::size_t n, std::size_t count,
                                        std::uint64_t seed) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  util::Rng rng(seed);
  rng.shuffle(all);
  all.resize(std::min(count, n));
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace magic::e2e

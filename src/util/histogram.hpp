#pragma once
// Log-bucketed scalar histogram.
//
// Fixed-size geometric buckets (ratio 2^(1/4), ~19% wide) from 2^-20 up,
// plus one bucket for [0, 2^-20), so record() is O(1), memory is constant,
// and quantile() is accurate to within one bucket width from 2^-20 to
// ~2^69 — plenty for latency percentiles (p50/p95/p99 in
// serve::ServerStats, sub-millisecond stage timings in milliseconds) where
// a few percent of relative error is noise.
// Not thread-safe; callers that share one histogram must lock around it.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace magic::util {

/// O(1)-record histogram of non-negative doubles with quantile queries.
class Histogram {
 public:
  Histogram();

  /// Records one observation. Negative values are clamped to 0.
  void record(double value);

  /// Number of recorded observations.
  std::uint64_t count() const noexcept { return count_; }
  /// Sum of recorded observations (exact, not bucketed).
  double sum() const noexcept { return sum_; }
  /// Mean of recorded observations; 0 when empty.
  double mean() const noexcept;
  /// Smallest / largest recorded value (exact); 0 when empty.
  double min() const noexcept;
  double max() const noexcept;

  /// The q-quantile (q in [0, 1]) estimated from the bucket boundaries:
  /// linear interpolation inside the target bucket, exact min/max at the
  /// ends. Returns 0 when empty.
  double quantile(double q) const;

  /// Adds another histogram's observations into this one.
  void merge(const Histogram& other);

  void reset();

 private:
  /// log2 of the smallest geometric bucket's lower edge (0x1p-20).
  static constexpr int kMinExponent = -20;
  static constexpr std::size_t kBuckets = 360;  // covers [2^-20, ~2^69)
  static std::size_t bucket_of(double value);
  static double bucket_low(std::size_t bucket);
  static double bucket_high(std::size_t bucket);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace magic::util

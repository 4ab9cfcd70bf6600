#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>

namespace magic::util {

Histogram::Histogram() : buckets_(kBuckets, 0) {}

std::size_t Histogram::bucket_of(double value) {
  // [0, 2^-20) and NaN land in bucket 0.
  if (!(value >= 0x1p-20)) return 0;
  const double idx = std::floor(4.0 * (std::log2(value) - kMinExponent));
  const auto b = static_cast<std::size_t>(idx) + 1;
  return b >= kBuckets ? kBuckets - 1 : b;
}

double Histogram::bucket_low(std::size_t bucket) {
  if (bucket == 0) return 0.0;
  return std::exp2(static_cast<double>(bucket - 1) / 4.0 + kMinExponent);
}

double Histogram::bucket_high(std::size_t bucket) {
  return std::exp2(static_cast<double>(bucket) / 4.0 + kMinExponent);
}

void Histogram::record(double value) {
  if (!(value > 0.0)) value = 0.0;  // clamp negatives and NaN
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++buckets_[bucket_of(value)];
}

double Histogram::mean() const noexcept {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::min() const noexcept { return min_; }
double Histogram::max() const noexcept { return max_; }

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank in [1, count]: the q-quantile is the value at ceil(q * count).
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    if (seen + buckets_[b] < rank) {
      seen += buckets_[b];
      continue;
    }
    // Interpolate inside the bucket, clamped to the observed range so the
    // estimate never exceeds max() or undercuts min().
    const double lo = std::max(bucket_low(b), min_);
    const double hi = std::min(bucket_high(b), max_);
    const double within =
        static_cast<double>(rank - seen) / static_cast<double>(buckets_[b]);
    return lo + (hi - lo) * within;
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
}

void Histogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

}  // namespace magic::util

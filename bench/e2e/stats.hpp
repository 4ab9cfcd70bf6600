#pragma once
// Metric records and the order statistics magic_bench reports.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace magic::e2e {

/// One reported number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The q-quantile (q in [0, 1]) by linear interpolation between order
/// statistics; 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

}  // namespace magic::e2e

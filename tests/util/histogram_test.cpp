#include "util/histogram.hpp"

#include <gtest/gtest.h>

namespace magic::util {
namespace {

TEST(Histogram, EmptyIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(Histogram, ExactStatsAreExact) {
  Histogram h;
  h.record(1.0);
  h.record(3.0);
  h.record(10.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 14.0);
  EXPECT_DOUBLE_EQ(h.mean(), 14.0 / 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
}

TEST(Histogram, NegativeValuesClampToZero) {
  Histogram h;
  h.record(-5.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, QuantilesBoundedByObservedRange) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_GE(h.quantile(0.0), 1.0);
  EXPECT_LE(h.quantile(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

TEST(Histogram, QuantilesApproximateUniformData) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  // Bucket width is 2^(1/4) ~ 19%; allow 25% relative error.
  EXPECT_NEAR(h.quantile(0.50), 500.0, 125.0);
  EXPECT_NEAR(h.quantile(0.95), 950.0, 240.0);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 250.0);

  // The same below 1, where sub-millisecond timings recorded in ms fall.
  Histogram small;
  for (int i = 1; i <= 1000; ++i) small.record(0.01 + 0.01 * i / 1000.0);
  EXPECT_NEAR(small.quantile(0.50), 0.015, 0.25 * 0.015);
  EXPECT_NEAR(small.quantile(0.95), 0.0195, 0.25 * 0.0195);
  EXPECT_NEAR(small.quantile(0.99), 0.0199, 0.25 * 0.0199);
}

TEST(Histogram, SubUnitQuantilesIgnoreALargeTail) {
  // Values below 1 get their own buckets, so a few large observations do
  // not drag the median of sub-unit ones towards the middle of [min, 1).
  Histogram h;
  for (int i = 1; i <= 990; ++i) h.record(0.01 + 0.01 * i / 990.0);
  for (int i = 0; i < 10; ++i) h.record(50.0);
  EXPECT_NEAR(h.quantile(0.50), 0.015, 0.25 * 0.015);
  EXPECT_NEAR(h.quantile(0.10), 0.011, 0.25 * 0.011);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 50.0);
}

TEST(Histogram, SingleValueQuantilesAreThatValue) {
  Histogram h;
  h.record(42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 42.0);
}

TEST(Histogram, MergeCombinesObservations) {
  Histogram a;
  Histogram b;
  a.record(1.0);
  a.record(2.0);
  b.record(100.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 103.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 100.0);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(5.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.9), 0.0);
}

TEST(Histogram, HugeValuesLandInLastBucketWithoutOverflow) {
  Histogram h;
  h.record(1e30);
  h.record(1.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.max(), 1e30);
  EXPECT_LE(h.quantile(1.0), 1e30);
}

}  // namespace
}  // namespace magic::util

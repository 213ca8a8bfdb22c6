// Tests of the benchmark's own arithmetic (src/stats.hpp).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> values = {4.0, 1.0, 3.0, 2.0};  // order must not matter
  EXPECT_DOUBLE_EQ(percentile(values, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 25), 1.75);
  EXPECT_DOUBLE_EQ(percentile(values, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile(values, 100), 4.0);
  EXPECT_DOUBLE_EQ(median(values), 2.5);
}

TEST(Percentile, P99OfAThousandSamplesAndTheCountBeyondIt) {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) {
    values.push_back(i);
  }
  EXPECT_DOUBLE_EQ(percentile(values, 50), 500.5);
  EXPECT_NEAR(percentile(values, 99), 990.01, 1e-9);
  // Ten samples (991..1000) lie beyond p99 of a thousand.
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(100, 99), 1u);
}

TEST(Percentile, EmptySampleIsNaN) {
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
  EXPECT_TRUE(std::isnan(median({})));
  EXPECT_EQ(samples_beyond(0, 99), 0u);
}

TEST(Percentile, SingleSampleIsEveryPercentile) {
  EXPECT_DOUBLE_EQ(percentile({7.5}, 0), 7.5);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 50), 7.5);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 99), 7.5);
  EXPECT_EQ(samples_beyond(1, 99), 0u);
}

TEST(Percentile, Ties) {
  EXPECT_DOUBLE_EQ(percentile({5, 5, 5, 5}, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile({5, 5, 5, 5}, 99), 5.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 2, 2, 9}, 50), 2.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 2, 2, 9}, 75), 2.0);
}

TEST(Latency, MeasuredFromDueTimeNotSendTime) {
  const Clock::time_point due{};
  const auto sent = due + std::chrono::milliseconds(5);
  const auto done = due + std::chrono::milliseconds(12);
  EXPECT_DOUBLE_EQ(latency_from_due_ms(due, done), 12.0);
  EXPECT_DOUBLE_EQ(late_ms(due, sent), 5.0);
  // A stalled generator: the request went out late, and the whole delay
  // still counts against it.
  EXPECT_DOUBLE_EQ(latency_from_due_ms(due, done) - late_ms(due, sent), 7.0);
}

TEST(ComputedBytes, OneReadAndOneWritePerAmplitudePerPass) {
  EXPECT_DOUBLE_EQ(pass_bytes(0), 32.0);
  EXPECT_DOUBLE_EQ(pass_bytes(20), 2.0 * 1048576.0 * 16.0);       // 32 MiB
  EXPECT_DOUBLE_EQ(pass_bytes(24), 512.0 * 1024.0 * 1024.0);      // 2 x 256 MiB
  EXPECT_DOUBLE_EQ(computed_bytes(20, 10, 2), 12.0 * pass_bytes(20));
  EXPECT_DOUBLE_EQ(computed_bytes(5, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(gbps(1e9, 1000.0), 1.0);
  EXPECT_TRUE(std::isnan(gbps(1e9, 0.0)));
}

TEST(UnattributedFrac, HandBuiltPhaseSet) {
  EXPECT_DOUBLE_EQ(unattributed_frac({10.0, 20.0, 30.0}, 100.0), 0.4);
  EXPECT_DOUBLE_EQ(unattributed_frac({25.0, 75.0}, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(unattributed_frac({}, 50.0), 1.0);
  EXPECT_TRUE(std::isnan(unattributed_frac({1.0}, 0.0)));
}

}  // namespace
}  // namespace perfbench

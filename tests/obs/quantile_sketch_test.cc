#include "obs/quantile_sketch.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "gtest/gtest.h"
#include "sim/random.h"

namespace spiffi::obs {
namespace {

// Exact sorted-sample quantile with the sketch's rank convention:
// rank = floor(q * (n - 1)).
double ExactQuantile(const std::vector<double>& sorted, double q) {
  auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

std::vector<double> LogUniformSamples(int n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<double> values;
  values.reserve(n);
  for (int i = 0; i < n; ++i) {
    // Magnitudes spread over 5 decades, like response times vs slack.
    values.push_back(std::exp(rng.Uniform(std::log(1e-4), std::log(10.0))));
  }
  return values;
}

TEST(QuantileSketchTest, EmptySketchReturnsZero) {
  QuantileSketch sketch;
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(sketch.Quantile(0.0), 0.0);
  EXPECT_EQ(sketch.Quantile(0.5), 0.0);
  EXPECT_EQ(sketch.Quantile(1.0), 0.0);
  EXPECT_EQ(sketch.mean(), 0.0);
  EXPECT_EQ(sketch.min(), 0.0);
  EXPECT_EQ(sketch.max(), 0.0);
}

TEST(QuantileSketchTest, SingleSampleIsExactEverywhere) {
  QuantileSketch sketch;
  sketch.Add(0.0375);
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    // min == max == the sample, and answers are clamped to [min, max].
    EXPECT_DOUBLE_EQ(sketch.Quantile(q), 0.0375);
  }
}

TEST(QuantileSketchTest, ExtremesAreExact) {
  std::vector<double> values = LogUniformSamples(1000, 7);
  QuantileSketch sketch;
  for (double v : values) sketch.Add(v);
  std::sort(values.begin(), values.end());
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.0), values.front());
  EXPECT_DOUBLE_EQ(sketch.Quantile(1.0), values.back());
  EXPECT_DOUBLE_EQ(sketch.min(), values.front());
  EXPECT_DOUBLE_EQ(sketch.max(), values.back());
}

TEST(QuantileSketchTest, RelativeErrorWithinOnePercent) {
  std::vector<double> values = LogUniformSamples(20000, 42);
  QuantileSketch sketch;
  for (double v : values) sketch.Add(v);
  std::sort(values.begin(), values.end());
  for (double q = 0.01; q < 1.0; q += 0.01) {
    double exact = ExactQuantile(values, q);
    double estimate = sketch.Quantile(q);
    EXPECT_NEAR(estimate, exact,
                sketch.relative_accuracy() * std::abs(exact) + 1e-15)
        << "q=" << q;
  }
}

TEST(QuantileSketchTest, NegativeValuesHonourTheBound) {
  sim::Rng rng(99);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    double magnitude = std::exp(rng.Uniform(std::log(1e-3), std::log(5.0)));
    values.push_back(rng.Uniform(0.0, 1.0) < 0.5 ? -magnitude : magnitude);
  }
  QuantileSketch sketch;
  for (double v : values) sketch.Add(v);
  std::sort(values.begin(), values.end());
  for (double q = 0.05; q < 1.0; q += 0.05) {
    double exact = ExactQuantile(values, q);
    double estimate = sketch.Quantile(q);
    EXPECT_NEAR(estimate, exact,
                sketch.relative_accuracy() * std::abs(exact) + 1e-15)
        << "q=" << q;
  }
}

TEST(QuantileSketchTest, ZerosLandExactlyAtZero) {
  QuantileSketch sketch;
  for (int i = 0; i < 10; ++i) sketch.Add(0.0);
  for (int i = 0; i < 3; ++i) sketch.Add(1.0);
  for (int i = 0; i < 3; ++i) sketch.Add(-1.0);
  // Ranks 3..12 of the 16 samples are the zeros.
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), 0.0);
  // Sub-floor magnitudes count as zero too.
  sketch.Add(1e-12);
  EXPECT_EQ(sketch.count(), 17u);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), 0.0);
}

TEST(QuantileSketchTest, MergeMatchesDirectFeed) {
  std::vector<double> values = LogUniformSamples(9000, 5);
  QuantileSketch direct;
  for (double v : values) direct.Add(v);

  QuantileSketch shards[3];
  for (std::size_t i = 0; i < values.size(); ++i) {
    shards[i % 3].Add(values[i]);
  }
  QuantileSketch merged;
  for (const QuantileSketch& shard : shards) merged.Merge(shard);

  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_EQ(merged.num_buckets(), direct.num_buckets());
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    // Merging bucket counts is exact: bit-identical answers, not just
    // within the error bound.
    EXPECT_EQ(merged.Quantile(q), direct.Quantile(q)) << "q=" << q;
  }
}

TEST(QuantileSketchTest, MergeIsAssociativeAndCommutative) {
  std::vector<double> values = LogUniformSamples(6000, 11);
  QuantileSketch a, b, c;
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).Add(values[i]);
  }

  QuantileSketch left;   // (a + b) + c
  left.Merge(a);
  left.Merge(b);
  left.Merge(c);
  QuantileSketch right;  // c + (b + a)
  right.Merge(c);
  right.Merge(b);
  right.Merge(a);

  EXPECT_EQ(left.count(), right.count());
  EXPECT_DOUBLE_EQ(left.sum(), right.sum());
  for (double q = 0.0; q <= 1.0; q += 0.005) {
    EXPECT_EQ(left.Quantile(q), right.Quantile(q)) << "q=" << q;
  }
}

TEST(QuantileSketchTest, DeterministicAcrossRebuilds) {
  std::vector<double> values = LogUniformSamples(4000, 23);
  QuantileSketch first, second;
  for (double v : values) first.Add(v);
  for (double v : values) second.Add(v);
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    EXPECT_EQ(first.Quantile(q), second.Quantile(q));
  }
}

// Ascending input grows each bucket span upward only, descending input
// downward only; both must land on the sketch a shuffled feed builds.
TEST(QuantileSketchTest, InsertionOrderDoesNotChangeAnswers) {
  std::vector<double> values = LogUniformSamples(3000, 31);
  for (std::size_t i = 0; i < values.size(); i += 2) values[i] = -values[i];
  QuantileSketch shuffled, ascending, descending;
  for (double v : values) shuffled.Add(v);
  std::sort(values.begin(), values.end());
  for (double v : values) ascending.Add(v);
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    descending.Add(*it);
  }
  for (const QuantileSketch* sketch : {&ascending, &descending}) {
    EXPECT_EQ(sketch->num_buckets(), shuffled.num_buckets());
    for (double q = 0.0; q <= 1.0; q += 0.01) {
      EXPECT_EQ(sketch->Quantile(q), shuffled.Quantile(q)) << "q=" << q;
    }
  }
}

TEST(QuantileSketchTest, ResetClearsEverything) {
  QuantileSketch sketch;
  sketch.Add(1.0);
  sketch.Add(-2.0);
  sketch.Add(0.0);
  sketch.Reset();
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(sketch.num_buckets(), 0u);
  EXPECT_EQ(sketch.Quantile(0.5), 0.0);
  sketch.Add(3.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), 3.0);
}

TEST(QuantileSketchTest, BucketCountStaysLogarithmic) {
  // 5 decades of magnitude at 1% accuracy needs on the order of
  // log(1e5)/log(gamma) ~ 600 buckets; verify the footprint stays there
  // even for many samples.
  std::vector<double> values = LogUniformSamples(50000, 3);
  QuantileSketch sketch;
  for (double v : values) sketch.Add(v);
  EXPECT_LT(sketch.num_buckets(), 800u);
}

}  // namespace
}  // namespace spiffi::obs

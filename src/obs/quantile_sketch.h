// DDSketch-style quantile sketch with a relative-error guarantee.
//
// Values are assigned to logarithmically spaced buckets: with relative
// accuracy alpha (default 1%), bucket i covers (gamma^(i-1), gamma^i]
// where gamma = (1 + alpha) / (1 - alpha), and the bucket's midpoint
// estimate 2 * gamma^i / (gamma + 1) is within alpha of every value in
// the bucket. Quantile(q) therefore answers rank-based quantile queries
// with relative error <= alpha for any value whose magnitude exceeds the
// tracking floor (1 ns), at O(buckets) memory.
//
// The sketch is:
//  * signed — negative observations (deadline slack of late blocks) go
//    to a mirrored negative store; values within the floor count as zero;
//  * mergeable — Merge() adds bucket counts, so merging is exact,
//    associative, and commutative: a sketch merged from per-terminal (or
//    per-shard) sketches is bit-identical to one fed every observation
//    directly, in any merge order;
//  * deterministic — buckets live in index-ordered arrays and all
//    arithmetic is a pure function of the inserted values, so equal
//    inputs produce equal sketches and equal quantile answers on every
//    run and at any --jobs count.
//
// tests/obs/quantile_sketch_test.cc locks the sketch's error bound
// against exact sorted-sample quantiles.

#ifndef SPIFFI_OBS_QUANTILE_SKETCH_H_
#define SPIFFI_OBS_QUANTILE_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace spiffi::obs {

class QuantileSketch {
 public:
  // Default relative accuracy: 1%.
  static constexpr double kDefaultRelativeAccuracy = 0.01;
  // Magnitudes at or below the floor are counted as exact zeros. One
  // nanosecond is far below any latency or slack the simulator produces.
  static constexpr double kMinTrackable = 1e-9;

  explicit QuantileSketch(
      double relative_accuracy = kDefaultRelativeAccuracy);

  void Add(double value);
  // Accumulates another sketch (same relative accuracy; CHECKed).
  void Merge(const QuantileSketch& other);
  void Reset();

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double relative_accuracy() const { return alpha_; }
  // Total buckets currently occupied.
  std::size_t num_buckets() const {
    return positive_.occupied + negative_.occupied + (zero_count_ > 0 ? 1 : 0);
  }

  // Value at quantile q in [0, 1] (clamped), with the rank convention
  // rank = floor(q * (n - 1)).
  // Exact at q = 0 / q = 1; within `relative_accuracy` of the exact
  // sorted-sample quantile everywhere else (for values beyond the floor).
  double Quantile(double q) const;

 private:
  // Log-bucket index such that gamma^(i-1) < magnitude <= gamma^i.
  std::int32_t BucketFor(double magnitude) const;
  // Midpoint estimate of bucket i: 2 * gamma^i / (gamma + 1).
  double BucketValue(std::int32_t index) const;

  double alpha_;
  double gamma_;
  double inv_log_gamma_;

  // Counts of the bucket indices [offset, offset + counts.size()),
  // spanning only the lowest to the highest occupied index.
  struct Store {
    std::int32_t offset = 0;
    std::vector<std::uint64_t> counts;
    std::size_t occupied = 0;  // buckets with a nonzero count

    // Count of bucket `index`, widening the span to reach it.
    std::uint64_t& At(std::int32_t index);
    // Adds `n` (> 0) to bucket `index`.
    void Add(std::int32_t index, std::uint64_t n);
    void Merge(const Store& other);
  };

  // negative_ is indexed by the magnitude's bucket.
  Store positive_;
  Store negative_;
  std::uint64_t zero_count_ = 0;

  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace spiffi::obs

#endif  // SPIFFI_OBS_QUANTILE_SKETCH_H_

#include "obs/quantile_sketch.h"

#include <algorithm>
#include <cmath>

#include "sim/check.h"

namespace spiffi::obs {

QuantileSketch::QuantileSketch(double relative_accuracy)
    : alpha_(relative_accuracy) {
  SPIFFI_CHECK(relative_accuracy > 0.0 && relative_accuracy < 1.0);
  gamma_ = (1.0 + alpha_) / (1.0 - alpha_);
  inv_log_gamma_ = 1.0 / std::log(gamma_);
}

std::int32_t QuantileSketch::BucketFor(double magnitude) const {
  // ceil(log_gamma(m)): the smallest i with gamma^i >= m. Computed via
  // floor + correction so values exactly on a bucket bound stay in the
  // lower bucket (matching the (lo, hi] bucket definition).
  double raw = std::log(magnitude) * inv_log_gamma_;
  auto index = static_cast<std::int32_t>(std::ceil(raw));
  // Guard against floating-point overshoot: gamma^(index-1) must be
  // strictly below the magnitude.
  if (std::pow(gamma_, index - 1) >= magnitude) --index;
  return index;
}

double QuantileSketch::BucketValue(std::int32_t index) const {
  return 2.0 * std::pow(gamma_, index) / (gamma_ + 1.0);
}

std::uint64_t& QuantileSketch::Store::At(std::int32_t index) {
  const auto size = static_cast<std::int32_t>(counts.size());
  if (size == 0) {
    offset = index;
    counts.assign(1, 0);
  } else if (index < offset || index >= offset + size) {
    // A new extreme: reallocate to exactly the widened span. Extremes
    // grow rare after the first samples, and exact sizing keeps a store
    // at 8 bytes per spanned bucket, where geometric growth would waste
    // up to as much again (more than a std::map of the occupied buckets
    // costs on the sparse spans of deadline slack).
    const std::int32_t lo = std::min(index, offset);
    const std::int32_t hi = std::max(index, offset + size - 1);
    std::vector<std::uint64_t> wider(hi - lo + 1, 0);
    std::copy(counts.begin(), counts.end(), wider.begin() + (offset - lo));
    counts = std::move(wider);
    offset = lo;
  }
  return counts[index - offset];
}

void QuantileSketch::Store::Add(std::int32_t index, std::uint64_t n) {
  std::uint64_t& count = At(index);
  if (count == 0) ++occupied;
  count += n;
}

void QuantileSketch::Store::Merge(const Store& other) {
  if (other.counts.empty()) return;
  // Widen once to the union of both spans, then add bucket by bucket.
  const auto size = static_cast<std::int32_t>(other.counts.size());
  At(other.offset);
  At(other.offset + size - 1);
  for (std::int32_t i = 0; i < size; ++i) {
    if (other.counts[i] != 0) Add(other.offset + i, other.counts[i]);
  }
}

void QuantileSketch::Add(double value) {
  if (value > kMinTrackable) {
    positive_.Add(BucketFor(value), 1);
  } else if (value < -kMinTrackable) {
    negative_.Add(BucketFor(-value), 1);
  } else {
    ++zero_count_;
  }
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  SPIFFI_CHECK(alpha_ == other.alpha_);
  if (other.count_ == 0) return;
  positive_.Merge(other.positive_);
  negative_.Merge(other.negative_);
  zero_count_ += other.zero_count_;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void QuantileSketch::Reset() {
  positive_ = Store();
  negative_ = Store();
  zero_count_ = 0;
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

double QuantileSketch::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q == 0.0) return min_;
  if (q == 1.0) return max_;
  auto rank =
      static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));

  // Walk buckets in ascending value order: most-negative first (the
  // negative store's highest magnitude bucket), then zero, then the
  // positive store ascending.
  std::uint64_t seen = 0;
  for (std::size_t i = negative_.counts.size(); i-- > 0;) {
    seen += negative_.counts[i];
    if (seen > rank) {
      const auto index = negative_.offset + static_cast<std::int32_t>(i);
      return std::clamp(-BucketValue(index), min_, max_);
    }
  }
  seen += zero_count_;
  if (seen > rank) return std::clamp(0.0, min_, max_);
  for (std::size_t i = 0; i < positive_.counts.size(); ++i) {
    seen += positive_.counts[i];
    if (seen > rank) {
      const auto index = positive_.offset + static_cast<std::int32_t>(i);
      return std::clamp(BucketValue(index), min_, max_);
    }
  }
  return max_;
}

}  // namespace spiffi::obs

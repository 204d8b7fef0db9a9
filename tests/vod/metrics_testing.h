// Field-by-field SimMetrics comparison driven by kMetricFields, so a new
// field is compared as soon as it has its row.

#ifndef SPIFFI_TESTS_VOD_METRICS_TESTING_H_
#define SPIFFI_TESTS_VOD_METRICS_TESTING_H_

#include <bit>
#include <cstdint>
#include <type_traits>
#include <variant>

#include "gtest/gtest.h"
#include "vod/metrics.h"

namespace spiffi::vod {

// Exact equality of every field; doubles are compared bit for bit.
inline void ExpectBitIdentical(const SimMetrics& a, const SimMetrics& b) {
  for (const MetricField& field : kMetricFields) {
    std::visit(
        [&](auto member) {
          if constexpr (std::is_same_v<decltype(a.*member), const double&>) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(a.*member),
                      std::bit_cast<std::uint64_t>(b.*member))
                << field.key << ": " << a.*member << " vs " << b.*member;
          } else {
            EXPECT_EQ(a.*member, b.*member) << field.key;
          }
        },
        field.member);
  }
}

}  // namespace spiffi::vod

#endif  // SPIFFI_TESTS_VOD_METRICS_TESTING_H_

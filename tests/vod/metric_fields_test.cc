// The kMetricFields table: its one-row-per-field guard, the
// replication aggregate it drives, and the run report it writes.

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "gtest/gtest.h"
#include "vod/capacity.h"
#include "vod/metrics.h"
#include "vod/report.h"

namespace spiffi::vod {
namespace {

struct ThreeMembers {
  int a = 0;
  double b = 0.0;
  std::uint64_t c = 0;
};

TEST(MetricFieldsTest, GuardCountsMembersAndRejectsRepeatedRows) {
  EXPECT_EQ(CountMembers<ThreeMembers>(), 3u);
  EXPECT_EQ(std::size(kMetricFields),
            CountMembers<SimMetrics>());
  EXPECT_TRUE(metrics_internal::RowsAreDistinct(kMetricFields));

  constexpr MetricField kSameMember[] = {
      {&SimMetrics::glitches, "glitches", "terminal.glitches",
       Aggregate::kSum},
      {&SimMetrics::glitches, "glitches_again", "terminal.glitches_again",
       Aggregate::kSum}};
  EXPECT_FALSE(metrics_internal::RowsAreDistinct(kSameMember));
  constexpr MetricField kSameProbe[] = {
      {&SimMetrics::glitches, "glitches", "terminal.glitches",
       Aggregate::kSum},
      {&SimMetrics::disk_reads, "disk_reads", "terminal.glitches",
       Aggregate::kSum}};
  EXPECT_FALSE(metrics_internal::RowsAreDistinct(kSameProbe));
  constexpr MetricField kMeanOfCounts[] = {
      {&SimMetrics::glitches, "glitches", "terminal.glitches",
       Aggregate::kMean}};
  EXPECT_FALSE(metrics_internal::RowsAreDistinct(kMeanOfCounts));
}

// Two replications whose every field holds a distinct non-zero value:
// a field that dropped out of the aggregate would keep the first
// replication's value and fail its sum, mean or extreme here. Both
// orders are folded so min and max cannot pass by taking the first.
TEST(MetricFieldsTest, AggregateFollowsEachFieldsRule) {
  SimMetrics low;
  SimMetrics high;
  double i = 0.0;
  for (const MetricField& field : kMetricFields) {
    ++i;
    SetFieldValue(low, field, i);
    SetFieldValue(high, field, 100.0 + i);
  }
  for (const auto& reps : {std::vector<SimMetrics>{low, high},
                           std::vector<SimMetrics>{high, low}}) {
    const SimMetrics aggregate = AggregateReplications(reps);
    for (const MetricField& field : kMetricFields) {
      const double first = FieldValue(reps[0], field);
      const double second = FieldValue(reps[1], field);
      double expected = 0.0;
      switch (field.aggregate) {
        case Aggregate::kFirst:
          expected = first;
          break;
        case Aggregate::kSum:
          expected = first + second;
          break;
        case Aggregate::kMean:
          expected = (first + second) / 2.0;
          break;
        case Aggregate::kMin:
          expected = std::min(first, second);
          break;
        case Aggregate::kMax:
          expected = std::max(first, second);
          break;
      }
      EXPECT_EQ(FieldValue(aggregate, field), expected) << field.key;
    }
  }
}

TEST(MetricFieldsTest, RunReportWritesEveryFieldOnce) {
  RunReport report;
  double i = 0.0;
  for (const MetricField& field : kMetricFields) {
    ++i;
    SetFieldValue(report.metrics, field, i + 0.25);  // counts truncate
  }
  std::ostringstream out;
  WriteRunReportJson(out, report);
  const std::size_t begin = out.str().find("\"metrics\":{");
  ASSERT_NE(begin, std::string::npos);
  const std::string json =
      out.str().substr(begin, out.str().find('}', begin) - begin + 1);
  for (const MetricField& field : kMetricFields) {
    const std::string key = std::string("\"") + field.key + "\":";
    const std::size_t at = json.find(key);
    ASSERT_NE(at, std::string::npos) << field.key;
    EXPECT_EQ(json.find(key, at + 1), std::string::npos) << field.key;
    // Counts as integers, doubles with the "%.17g" convention.
    std::string value;
    std::visit(
        [&](auto member) {
          if constexpr (std::is_floating_point_v<std::remove_reference_t<
                            decltype(report.metrics.*member)>>) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.17g", report.metrics.*member);
            value = buf;
          } else {
            value = std::to_string(report.metrics.*member);
          }
        },
        field.member);
    EXPECT_EQ(json.compare(at + key.size(), value.size() + 1, value + ","),
              0)
        << field.key << " expected " << value;
  }
  EXPECT_NE(json.find("\"buffer_hit_ratio\":"), std::string::npos);
  EXPECT_NE(json.find("\"proxy_offload_ratio\":"), std::string::npos);
}

}  // namespace
}  // namespace spiffi::vod

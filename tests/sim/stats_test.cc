#include "sim/stats.h"

#include "gtest/gtest.h"

namespace spiffi::sim {
namespace {

TEST(TallyTest, EmptyTallyIsZero) {
  Tally t;
  EXPECT_EQ(t.count(), 0u);
  EXPECT_DOUBLE_EQ(t.sum(), 0.0);
  EXPECT_DOUBLE_EQ(t.mean(), 0.0);
}

TEST(TallyTest, MeanIsSumOverCount) {
  Tally t;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) t.Add(x);
  EXPECT_EQ(t.count(), 8u);
  EXPECT_DOUBLE_EQ(t.sum(), 40.0);
  EXPECT_DOUBLE_EQ(t.mean(), 5.0);
}

TEST(TallyTest, ResetClears) {
  Tally t;
  t.Add(5.0);
  t.Reset();
  EXPECT_EQ(t.count(), 0u);
  EXPECT_DOUBLE_EQ(t.sum(), 0.0);
}

// Utilization's time weighting: the busy fraction integrates the
// busy/idle step function over the window.
TEST(TimeWeightedTest, ConstantValueAverage) {
  Utilization u;
  u.SetBusy(true, 0.0);
  EXPECT_DOUBLE_EQ(u.Average(10.0), 1.0);
}

TEST(TimeWeightedTest, StepFunctionAverage) {
  Utilization u;
  u.SetBusy(true, 2.0);   // idle over [0,2), busy over [2,...)
  u.SetBusy(false, 6.0);  // busy over [2,6)
  u.SetBusy(true, 8.0);   // idle over [6,8), busy over [8,...)
  // At t=10: busy 4 + 2 = 6 s of 10.
  EXPECT_DOUBLE_EQ(u.Average(10.0), 0.6);
}

TEST(TimeWeightedTest, ResetStartsNewWindow) {
  Utilization u;
  u.SetBusy(true, 5.0);
  u.Reset(5.0);
  // After reset only busy [5, 8) counts.
  EXPECT_DOUBLE_EQ(u.Average(8.0), 1.0);
  u.SetBusy(false, 8.0);
  EXPECT_DOUBLE_EQ(u.Average(11.0), 0.5);
}

TEST(TimeWeightedTest, ZeroWindowReturnsCurrentValue) {
  Utilization u;
  u.SetBusy(true, 0.0);
  u.Reset(2.0);
  EXPECT_DOUBLE_EQ(u.Average(2.0), 1.0);
  u.SetBusy(false, 2.0);
  EXPECT_DOUBLE_EQ(u.Average(2.0), 0.0);
}

TEST(UtilizationTest, FractionOfCapacity) {
  Utilization u;
  u.SetBusy(true, 0.0);
  u.SetBusy(false, 5.0);
  // busy over [0, 5) of [0, 10)
  EXPECT_DOUBLE_EQ(u.Average(10.0), 0.5);
}

TEST(UtilizationTest, VaryingBusyCount) {
  Utilization u;
  // Back-to-back service at one instant (free, then busy again) keeps
  // the server busy throughout, as the CPU does between requests.
  u.SetBusy(true, 0.0);
  u.SetBusy(false, 4.0);
  u.SetBusy(true, 4.0);
  u.SetBusy(false, 7.5);
  EXPECT_FALSE(u.busy());
  EXPECT_DOUBLE_EQ(u.Average(10.0), 0.75);
}

}  // namespace
}  // namespace spiffi::sim

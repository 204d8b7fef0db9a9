#include "sim/calendar.h"

#include <vector>

#include "gtest/gtest.h"

namespace spiffi::sim {
namespace {

// Records the token of every event fired into a shared log.
class Recorder : public EventHandler {
 public:
  explicit Recorder(std::vector<std::uint64_t>* log) : log_(log) {}
  void OnEvent(std::uint64_t token) override { log_->push_back(token); }

 private:
  std::vector<std::uint64_t>* log_;
};

TEST(CalendarTest, EmptyCalendarReportsMaxTime) {
  Calendar calendar;
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(calendar.PeekTime(), kSimTimeMax);
  EXPECT_EQ(calendar.FireNext(), kSimTimeMax);
}

TEST(CalendarTest, FiresInTimeOrder) {
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  calendar.Schedule(3.0, &recorder, 3);
  calendar.Schedule(1.0, &recorder, 1);
  calendar.Schedule(2.0, &recorder, 2);
  EXPECT_DOUBLE_EQ(calendar.FireNext(), 1.0);
  EXPECT_DOUBLE_EQ(calendar.FireNext(), 2.0);
  EXPECT_DOUBLE_EQ(calendar.FireNext(), 3.0);
  EXPECT_EQ(log, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(CalendarTest, SameTimeFiresInScheduleOrder) {
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  for (std::uint64_t i = 0; i < 100; ++i) {
    calendar.Schedule(5.0, &recorder, i);
  }
  while (!calendar.empty()) calendar.FireNext();
  ASSERT_EQ(log.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(log[i], i);
}

TEST(CalendarTest, CancelledEventDoesNotFire) {
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  calendar.Schedule(1.0, &recorder, 1);
  EventId id = calendar.Schedule(2.0, &recorder, 2);
  calendar.Schedule(3.0, &recorder, 3);
  calendar.Cancel(id);
  while (!calendar.empty()) calendar.FireNext();
  EXPECT_EQ(log, (std::vector<std::uint64_t>{1, 3}));
}

TEST(CalendarTest, CancelHeadEntryAdjustsPeek) {
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  EventId id = calendar.Schedule(1.0, &recorder, 1);
  calendar.Schedule(2.0, &recorder, 2);
  calendar.Cancel(id);
  EXPECT_DOUBLE_EQ(calendar.PeekTime(), 2.0);
  EXPECT_EQ(calendar.size(), 1u);
}

TEST(CalendarTest, CancelAfterFireIsNoOp) {
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  EventId id = calendar.Schedule(1.0, &recorder, 1);
  calendar.FireNext();
  calendar.Cancel(id);  // stale id; must not disturb later events
  calendar.Schedule(2.0, &recorder, 2);
  calendar.FireNext();
  EXPECT_EQ(log, (std::vector<std::uint64_t>{1, 2}));
}

TEST(CalendarTest, HandlerMayScheduleDuringFire) {
  Calendar calendar;
  std::vector<std::uint64_t> log;

  class Chainer : public EventHandler {
   public:
    Chainer(Calendar* calendar, std::vector<std::uint64_t>* log)
        : calendar_(calendar), log_(log) {}
    void OnEvent(std::uint64_t token) override {
      log_->push_back(token);
      if (token < 5) calendar_->Schedule(token + 1.0, this, token + 1);
    }

   private:
    Calendar* calendar_;
    std::vector<std::uint64_t>* log_;
  };

  Chainer chainer(&calendar, &log);
  calendar.Schedule(1.0, &chainer, 1);
  while (!calendar.empty()) calendar.FireNext();
  EXPECT_EQ(log, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(CalendarTest, StaleCancelsDoNotAccumulate) {
  // Regression: Cancel() used to insert the id into the cancelled set
  // unconditionally, so cancelling an already-fired (or never-scheduled)
  // event leaked the id for the rest of the run.
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  for (int round = 0; round < 100; ++round) {
    EventId id = calendar.Schedule(round, &recorder, round);
    calendar.FireNext();
    calendar.Cancel(id);                  // already fired
    calendar.Cancel(id + 1'000'000'000);  // never scheduled
    EXPECT_EQ(calendar.cancelled_backlog(), 0u);
  }
  EXPECT_EQ(log.size(), 100u);
  EXPECT_EQ(calendar.size(), 0u);
}

TEST(CalendarTest, CancelledBacklogDrainsWhenEntriesDrop) {
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  EventId a = calendar.Schedule(1.0, &recorder, 1);
  EventId b = calendar.Schedule(2.0, &recorder, 2);
  calendar.Schedule(3.0, &recorder, 3);
  calendar.Cancel(a);
  calendar.Cancel(b);
  calendar.Cancel(b);  // double-cancel is a no-op
  EXPECT_EQ(calendar.cancelled_backlog(), 2u);
  EXPECT_EQ(calendar.size(), 1u);
  while (!calendar.empty()) calendar.FireNext();
  EXPECT_EQ(log, (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(calendar.cancelled_backlog(), 0u);
}

TEST(CalendarTest, SizeCountsOnlyLiveEntries) {
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  EventId id = calendar.Schedule(1.0, &recorder, 1);
  calendar.Schedule(2.0, &recorder, 2);
  EXPECT_EQ(calendar.size(), 2u);
  calendar.Cancel(id);
  EXPECT_EQ(calendar.size(), 1u);
  calendar.FireNext();
  EXPECT_EQ(calendar.size(), 0u);
}

TEST(CalendarTest, ClearDropsAllEntries) {
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  calendar.Schedule(1.0, &recorder, 1);
  calendar.Schedule(2.0, &recorder, 2);
  calendar.Clear();
  EXPECT_TRUE(calendar.empty());
  EXPECT_TRUE(log.empty());
}

TEST(CalendarTest, ShrinkStartedStorageGrowTripsCounter) {
  // A calendar that starts below its working-set size must still report
  // the reallocation churn: every push into a full heap vector counts.
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  for (int i = 0; i < 1000; ++i) calendar.Schedule(i, &recorder, i);
  EXPECT_GT(calendar.storage_grows(), 0u);
  EXPECT_EQ(calendar.peak_size(), 1000u);
}

TEST(CalendarTest, ReservedStorageNeverGrows) {
  Calendar calendar;
  calendar.Reserve(1000);
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 1000; ++i) calendar.Schedule(i, &recorder, i);
    while (!calendar.empty()) calendar.FireNext();
  }
  EXPECT_EQ(calendar.storage_grows(), 0u);
}

TEST(CalendarTest, RecycledSlotRejectsStaleCancel) {
  // After an entry fires, its slot is recycled with a bumped generation:
  // cancelling the old id must not touch the slot's new occupant.
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  EventId old_id = calendar.Schedule(1.0, &recorder, 1);
  calendar.FireNext();
  // With one slot in the table, this reuses the fired entry's slot.
  calendar.Schedule(2.0, &recorder, 2);
  calendar.Cancel(old_id);  // stale generation; must be rejected
  EXPECT_EQ(calendar.size(), 1u);
  EXPECT_EQ(calendar.cancelled_backlog(), 0u);
  calendar.FireNext();
  EXPECT_EQ(log, (std::vector<std::uint64_t>{1, 2}));
}

TEST(CalendarTest, ClearInvalidatesOutstandingIds) {
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  EventId id = calendar.Schedule(1.0, &recorder, 1);
  calendar.Clear();
  // The slot was recycled by Clear; the stale id must not cancel the
  // slot's next occupant.
  calendar.Schedule(2.0, &recorder, 2);
  calendar.Cancel(id);
  EXPECT_EQ(calendar.size(), 1u);
  calendar.FireNext();
  EXPECT_EQ(log, (std::vector<std::uint64_t>{2}));
}

TEST(CalendarTest, CountsFiredEvents) {
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  for (int i = 0; i < 10; ++i) calendar.Schedule(i, &recorder, i);
  while (!calendar.empty()) calendar.FireNext();
  EXPECT_EQ(calendar.fired_count(), 10u);
}

// --- Tick lane ---

TEST(CalendarTest, InOrderTicksFireFromTheLane) {
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  for (std::uint64_t i = 0; i < 10; ++i) {
    calendar.ScheduleTick(static_cast<double>(i) / 30.0, &recorder, i);
  }
  while (!calendar.empty()) calendar.FireNext();
  EXPECT_EQ(log, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(calendar.lane_fires(), 10u);
  EXPECT_EQ(calendar.sift_levels(), 0u);  // the heap never moved
  EXPECT_EQ(calendar.storage_grows(), 0u);
}

TEST(CalendarTest, OutOfOrderTickFallsBackToHeap) {
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  calendar.ScheduleTick(3.0, &recorder, 3);  // lane (empty)
  calendar.ScheduleTick(1.0, &recorder, 1);  // before the tail: heap
  calendar.ScheduleTick(2.0, &recorder, 2);  // still before the tail
  calendar.ScheduleTick(4.0, &recorder, 4);  // after the tail: lane
  EXPECT_DOUBLE_EQ(calendar.PeekTime(), 1.0);
  std::vector<double> times;
  while (!calendar.empty()) times.push_back(calendar.FireNext());
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  EXPECT_EQ(log, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(calendar.lane_fires(), 2u);
}

TEST(CalendarTest, EqualTimeTiesStayFifoAcrossLaneAndHeap) {
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  // Alternate the two structures at one instant; an equal-time tick
  // joins the lane behind its tail. Schedule order must decide.
  calendar.Schedule(5.0, &recorder, 0);
  calendar.ScheduleTick(5.0, &recorder, 1);
  calendar.Schedule(5.0, &recorder, 2);
  calendar.ScheduleTick(5.0, &recorder, 3);
  calendar.ScheduleTick(5.0, &recorder, 4);
  calendar.Schedule(5.0, &recorder, 5);
  while (!calendar.empty()) calendar.FireNext();
  EXPECT_EQ(log, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(calendar.lane_fires(), 3u);
}

TEST(CalendarTest, CancelLaneHeadAdjustsPeek) {
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  EventId head = calendar.ScheduleTick(1.0, &recorder, 1);
  calendar.ScheduleTick(2.0, &recorder, 2);
  calendar.Schedule(3.0, &recorder, 3);
  calendar.Cancel(head);
  EXPECT_EQ(calendar.size(), 2u);
  EXPECT_DOUBLE_EQ(calendar.PeekTime(), 2.0);
  EXPECT_EQ(calendar.cancelled_backlog(), 0u);  // dropped by PeekTime
  while (!calendar.empty()) calendar.FireNext();
  EXPECT_EQ(log, (std::vector<std::uint64_t>{2, 3}));
}

TEST(CalendarTest, CancelDeepLaneEntrySkipsOnlyIt) {
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  std::vector<EventId> ids;
  for (std::uint64_t i = 0; i < 6; ++i) {
    ids.push_back(calendar.ScheduleTick(static_cast<double>(i), &recorder,
                                        i));
  }
  calendar.Cancel(ids[3]);
  calendar.Cancel(ids[4]);
  EXPECT_EQ(calendar.cancelled_backlog(), 2u);
  EXPECT_EQ(calendar.size(), 4u);
  while (!calendar.empty()) calendar.FireNext();
  EXPECT_EQ(log, (std::vector<std::uint64_t>{0, 1, 2, 5}));
  EXPECT_EQ(calendar.cancelled_backlog(), 0u);
  EXPECT_EQ(calendar.lane_fires(), 4u);
}

TEST(CalendarTest, ClearDropsPendingLaneEntries) {
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  EventId tick = calendar.ScheduleTick(1.0, &recorder, 1);
  calendar.ScheduleTick(2.0, &recorder, 2);
  calendar.Schedule(1.5, &recorder, 3);
  calendar.Clear();
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(calendar.size(), 0u);
  EXPECT_EQ(calendar.PeekTime(), kSimTimeMax);
  EXPECT_EQ(calendar.FireNext(), kSimTimeMax);
  // The lane starts over: a tick earlier than the cleared tail takes the
  // lane again, and the stale id cannot cancel the slot's new occupant.
  calendar.ScheduleTick(0.5, &recorder, 4);
  calendar.Cancel(tick);
  EXPECT_EQ(calendar.size(), 1u);
  calendar.FireNext();
  EXPECT_EQ(log, (std::vector<std::uint64_t>{4}));
  EXPECT_EQ(calendar.lane_fires(), 1u);
}

TEST(CalendarTest, PeekTimeAndEmptySeeLaneEntries) {
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  calendar.ScheduleTick(2.0, &recorder, 1);
  EXPECT_FALSE(calendar.empty());
  EXPECT_DOUBLE_EQ(calendar.PeekTime(), 2.0);  // lane only
  calendar.Schedule(3.0, &recorder, 2);
  EXPECT_DOUBLE_EQ(calendar.PeekTime(), 2.0);  // lane head first
  calendar.Schedule(1.0, &recorder, 3);
  EXPECT_DOUBLE_EQ(calendar.PeekTime(), 1.0);  // heap root first
  EXPECT_DOUBLE_EQ(calendar.FireNext(), 1.0);
  EXPECT_DOUBLE_EQ(calendar.FireNext(), 2.0);
  EXPECT_DOUBLE_EQ(calendar.PeekTime(), 3.0);  // heap only
  EXPECT_DOUBLE_EQ(calendar.FireNext(), 3.0);
  EXPECT_TRUE(calendar.empty());
}

TEST(CalendarTest, PeakSizeCountsLaneAndHeap) {
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  for (int i = 0; i < 5; ++i) calendar.ScheduleTick(i, &recorder, i);
  for (int i = 0; i < 3; ++i) calendar.Schedule(i, &recorder, i);
  EXPECT_EQ(calendar.size(), 8u);
  EXPECT_EQ(calendar.peak_size(), 8u);
  while (!calendar.empty()) calendar.FireNext();
  EXPECT_EQ(calendar.peak_size(), 8u);
}

TEST(CalendarTest, LaneRingGrowsToPeakOccupancyThenStops) {
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  // 100 pending ticks need a 128-entry ring: 16 -> 32 -> 64 -> 128.
  double time = 0.0;
  for (int i = 0; i < 100; ++i) calendar.ScheduleTick(time += 1.0, &recorder);
  EXPECT_EQ(calendar.lane_grows(), 4u);
  // Steady state: fire one, schedule one, wrapping the ring many times.
  for (int i = 0; i < 1000; ++i) {
    calendar.FireNext();
    calendar.ScheduleTick(time += 1.0, &recorder);
  }
  EXPECT_EQ(calendar.lane_grows(), 4u);
  EXPECT_EQ(calendar.storage_grows(), 0u);  // lane growth is separate
  EXPECT_EQ(calendar.lane_fires(), 1000u);
}

TEST(CalendarTest, SiftLevelsCountHeapHoleMoves) {
  Calendar calendar;
  std::vector<std::uint64_t> log;
  Recorder recorder(&log);
  calendar.Schedule(1.0, &recorder, 1);
  calendar.Schedule(2.0, &recorder, 2);
  calendar.Schedule(3.0, &recorder, 3);
  EXPECT_EQ(calendar.sift_levels(), 0u);  // ascending: nothing climbs
  calendar.Schedule(0.5, &recorder, 0);   // climbs to the root
  EXPECT_EQ(calendar.sift_levels(), 1u);
  calendar.FireNext();  // the last entry (1.0) stays at the root
  EXPECT_EQ(calendar.sift_levels(), 1u);
  calendar.FireNext();  // the last entry (3.0) sinks below 2.0
  EXPECT_EQ(calendar.sift_levels(), 2u);
}

}  // namespace
}  // namespace spiffi::sim

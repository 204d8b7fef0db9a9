// Randomized differential test for the slot-indexed calendar.
//
// Replays a long random stream of Schedule / Cancel / FireNext / PeekTime
// operations simultaneously against the Calendar and a naive reference
// model (an unsorted vector scanned for its (time, seq) minimum), and
// checks that fire order, returned times, occupancy, and stale-cancel
// rejection agree after every step. Stale ids — already fired, doubly
// cancelled, never scheduled, or pointing at a recycled slot — are thrown
// at Cancel() deliberately and must all be no-ops.
//
// The tick-lane variant mixes ScheduleTick into the stream (in-order
// ticks that take the lane, out-of-order ones that fall back to the
// heap, equal-time ties across the two), cancels the earliest pending
// tick (the lane head) as well as random ones, and Clears now and then.
// The reference treats a tick as an ordinary entry, so any divergence
// from the one-heap order fails.

#include "sim/calendar.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "sim/random.h"

namespace spiffi::sim {
namespace {

class Recorder : public EventHandler {
 public:
  explicit Recorder(std::vector<std::uint64_t>* log) : log_(log) {}
  void OnEvent(std::uint64_t token) override { log_->push_back(token); }

 private:
  std::vector<std::uint64_t>* log_;
};

// Reference model: linear scan for the earliest (time, seq) live entry.
class ReferenceCalendar {
 public:
  // Returns a reference id (its own scheme, independent of EventId).
  std::uint64_t Schedule(SimTime time, std::uint64_t token) {
    entries_.push_back(Entry{time, next_seq_++, token, next_id_});
    return next_id_++;
  }

  // True if the id was live (mirrors Calendar::Cancel accepting it).
  bool Cancel(std::uint64_t id) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].id == id) {
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  // Pops the earliest entry; false when empty.
  bool FireNext(SimTime* time, std::uint64_t* token) {
    if (entries_.empty()) return false;
    std::size_t best = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].time < entries_[best].time ||
          (entries_[i].time == entries_[best].time &&
           entries_[i].seq < entries_[best].seq)) {
        best = i;
      }
    }
    *time = entries_[best].time;
    *token = entries_[best].token;
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(best));
    return true;
  }

  SimTime PeekTime() const {
    SimTime best = kSimTimeMax;
    std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
    for (const Entry& e : entries_) {
      if (e.time < best || (e.time == best && e.seq < best_seq)) {
        best = e.time;
        best_seq = e.seq;
      }
    }
    return best;
  }

  std::size_t size() const { return entries_.size(); }

  void Clear() { entries_.clear(); }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint64_t token;
    std::uint64_t id;
  };
  std::vector<Entry> entries_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
};

// With `ticks`, the stream also schedules ticks, cancels the earliest
// pending tick, and Clears; times then advance with the fired events so
// ticks meet the lane in order most of the time.
void RunDifferential(std::uint64_t seed, int ops, bool reserve,
                     bool ticks = false) {
  Calendar calendar;
  if (reserve) calendar.Reserve(512);
  ReferenceCalendar reference;
  Rng rng(seed);

  std::vector<std::uint64_t> fired;
  Recorder recorder(&fired);
  std::uint64_t next_token = 0;

  // Live entries in both models (in schedule order), plus a graveyard of
  // EventIds that fired or were cancelled — fodder for stale-cancel
  // attempts.
  struct Live {
    EventId id;
    std::uint64_t ref_id;
    std::uint64_t token;
    SimTime time;
    bool tick;
  };
  std::vector<Live> live;
  std::vector<EventId> stale;
  std::vector<bool> token_is_tick;
  std::uint64_t ticks_fired = 0;
  SimTime now = 0.0;        // time of the last fired event
  SimTime tick_time = 0.0;  // time of the last in-order tick

  auto retire_fired = [&](std::uint64_t token) {
    // Tokens are unique; the fired entry's EventId is now stale and must
    // be rejected by any later Cancel.
    if (token_is_tick[token]) ++ticks_fired;
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i].token == token) {
        stale.push_back(live[i].id);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  };

  for (int op = 0; op < ops; ++op) {
    double dice = rng.NextDouble();
    if (ticks && dice < 0.20) {
      // Tick: mostly in order (at or after the last tick, often equal to
      // it or to a heap entry's time), else anywhere ahead of now.
      SimTime time;
      if (rng.NextDouble() < 0.8) {
        tick_time = std::max(tick_time, now) +
                    static_cast<SimTime>(rng.UniformInt(3));
        time = tick_time;
      } else {
        time = now + static_cast<SimTime>(rng.UniformInt(40));
      }
      std::uint64_t token = next_token++;
      token_is_tick.push_back(true);
      EventId id = calendar.ScheduleTick(time, &recorder, token);
      std::uint64_t ref_id = reference.Schedule(time, token);
      EXPECT_NE(id, 0u);
      live.push_back(Live{id, ref_id, token, time, true});
    } else if (dice < 0.45 || live.empty()) {
      // Schedule. Coarse times force (time, seq) FIFO ties often.
      auto time = (ticks ? now : 0.0) +
                  static_cast<SimTime>(rng.UniformInt(40));
      std::uint64_t token = next_token++;
      token_is_tick.push_back(false);
      EventId id = calendar.Schedule(time, &recorder, token);
      std::uint64_t ref_id = reference.Schedule(time, token);
      EXPECT_NE(id, 0u);  // 0 is the reserved "no event" sentinel
      live.push_back(Live{id, ref_id, token, time, false});
    } else if (dice < 0.60) {
      // Cancel a live entry: with ticks, half the time the earliest
      // pending tick (the lane head when it took the lane), else any
      // entry, which reaches ticks deep in the lane.
      auto pick = static_cast<std::size_t>(rng.UniformInt(live.size()));
      if (ticks && rng.NextDouble() < 0.5) {
        for (std::size_t i = 0; i < live.size(); ++i) {
          if (live[i].tick &&
              (!live[pick].tick || live[i].time < live[pick].time)) {
            pick = i;
          }
        }
      }
      Live victim = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      calendar.Cancel(victim.id);
      ASSERT_TRUE(reference.Cancel(victim.ref_id));
      stale.push_back(victim.id);
    } else if (dice < 0.70) {
      // Stale cancel: an id that fired or was already cancelled, a
      // never-issued id, and a double-cancel of the same stale id. All
      // must leave both models untouched.
      if (!stale.empty()) {
        auto pick = static_cast<std::size_t>(rng.UniformInt(stale.size()));
        calendar.Cancel(stale[pick]);
        calendar.Cancel(stale[pick]);
      }
      calendar.Cancel(0);  // the sentinel id
      calendar.Cancel((static_cast<EventId>(0x7fffffu) << 32) | 1u);
    } else if (ticks && dice < 0.705) {
      // Clear with lane (and heap) entries pending: every id goes stale.
      calendar.Clear();
      reference.Clear();
      for (const Live& entry : live) stale.push_back(entry.id);
      live.clear();
    } else {
      // Fire.
      SimTime ref_time = 0.0;
      std::uint64_t ref_token = 0;
      bool ref_fired = reference.FireNext(&ref_time, &ref_token);
      std::size_t fired_before = fired.size();
      SimTime time = calendar.FireNext();
      if (!ref_fired) {
        EXPECT_EQ(time, kSimTimeMax);
        EXPECT_EQ(fired.size(), fired_before);
      } else {
        ASSERT_EQ(fired.size(), fired_before + 1);
        EXPECT_EQ(time, ref_time);
        EXPECT_EQ(fired.back(), ref_token);
        if (ticks) now = time;
        retire_fired(ref_token);
      }
    }
    ASSERT_EQ(calendar.size(), reference.size());
    ASSERT_EQ(calendar.PeekTime(), reference.PeekTime());
    ASSERT_EQ(calendar.empty(), reference.size() == 0);
  }

  // Drain both and compare the tail in fire order.
  while (true) {
    SimTime ref_time = 0.0;
    std::uint64_t ref_token = 0;
    bool ref_fired = reference.FireNext(&ref_time, &ref_token);
    std::size_t fired_before = fired.size();
    SimTime time = calendar.FireNext();
    if (!ref_fired) {
      EXPECT_EQ(time, kSimTimeMax);
      EXPECT_TRUE(calendar.empty());
      break;
    }
    ASSERT_EQ(fired.size(), fired_before + 1);
    EXPECT_EQ(time, ref_time);
    EXPECT_EQ(fired.back(), ref_token);
    retire_fired(ref_token);
  }
  EXPECT_EQ(calendar.cancelled_backlog(), 0u);
  if (ticks) {
    // Both paths ran: some ticks fired from the lane, some from the heap.
    EXPECT_GT(calendar.lane_fires(), 0u);
    EXPECT_LT(calendar.lane_fires(), ticks_fired);
  } else {
    EXPECT_EQ(calendar.lane_fires(), 0u);
  }
}

TEST(CalendarFuzzTest, DifferentialAgainstNaiveReference) {
  RunDifferential(/*seed=*/1, /*ops=*/10000, /*reserve=*/false);
}

TEST(CalendarFuzzTest, DifferentialWithReservedStorage) {
  RunDifferential(/*seed=*/2, /*ops=*/10000, /*reserve=*/true);
}

TEST(CalendarFuzzTest, DifferentialManySeeds) {
  for (std::uint64_t seed = 10; seed < 18; ++seed) {
    RunDifferential(seed, /*ops=*/2000, seed % 2 == 0);
  }
}

TEST(CalendarFuzzTest, DifferentialWithTickLane) {
  RunDifferential(/*seed=*/3, /*ops=*/10000, /*reserve=*/false,
                  /*ticks=*/true);
}

TEST(CalendarFuzzTest, DifferentialWithTickLaneManySeeds) {
  for (std::uint64_t seed = 20; seed < 28; ++seed) {
    RunDifferential(seed, /*ops=*/2000, seed % 2 == 0, /*ticks=*/true);
  }
}

}  // namespace
}  // namespace spiffi::sim
